"""The closed-form path imports neither NumPy nor SciPy.

Each check runs in a fresh interpreter, because this test process has
long since imported both.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import barrierkit

MKT = ["--sigma", "0.30", "--r", "0.10", "--T", "0.25"]
CLOSED_COMMANDS = [
    ["classify", "--s0", "110", "--lower", "70", *MKT, "--nu", "4.9"],
    ["critical", "--lower", "70", "--upper", "130", *MKT, "--pi", "1e-6"],
    ["price", "--s0", "100", "--strike", "100", "--lower", "70", "--upper", "130", *MKT],
    ["breach", "--s0", "100", "--lower", "70", *MKT],
    ["breach", "--s0", "100", "--lower", "70", "--lower-growth", "0.4", "--upper", "130",
     "--upper-growth", "-0.3", *MKT],
    ["calibrate", "--lower", "70", "--strike", "100", *MKT, "--theta", "1e-6"],
    ["table1", "--csv"],
    ["sweep", "--strike", "100", "--lower", "70", *MKT, "--nu", "4.9", "--csv"],
]

CHILD = """
import contextlib, io, json, sys

def heavy():
    return sorted(m for m in sys.modules if m.partition(".")[0] in ("numpy", "scipy"))

import barrierkit
report = {"import": heavy(), "commands": {}}
from barrierkit.cli import run
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    report["commands"][" ".join(argv)] = [code, heavy()]
missing = [name for name in barrierkit.__all__ if getattr(barrierkit, name, None) is None]
import barrierkit.pricing.mc
report["missing"] = missing
report["lazy_is_original"] = barrierkit.mc_price is barrierkit.pricing.mc.mc_price
print(json.dumps(report))
"""


def _child_report(commands):
    """The CHILD script's report on running `commands` in a fresh interpreter."""
    src = str(Path(barrierkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(commands)],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_closed_commands_import_neither_numpy_nor_scipy():
    report = _child_report(CLOSED_COMMANDS)
    assert report["import"] == []
    assert report["commands"] == {" ".join(argv): [0, []] for argv in CLOSED_COMMANDS}
    # the lazy names still resolve, to the objects their modules define
    assert report["missing"] == []
    assert report["lazy_is_original"] is True


def _loads_numpy_without_scipy(argv):
    # the path engine draws its normals with NumPy's ziggurat; only the
    # PDE's tridiagonal solve needs SciPy
    argv = [*argv, "--method", "mc", "--paths", "2000", "--seed", "3"]
    code, heavy = _child_report([argv])["commands"][" ".join(argv)]
    assert code == 0
    assert "numpy" in heavy
    assert not [m for m in heavy if m.partition(".")[0] == "scipy"]


def test_monte_carlo_price_loads_no_scipy():
    _loads_numpy_without_scipy(
        ["price", "--s0", "100", "--strike", "100", "--lower", "70", "--upper", "130", *MKT])


def test_monte_carlo_breach_loads_no_scipy():
    _loads_numpy_without_scipy(["breach", "--s0", "100", "--lower", "70", "--upper", "130", *MKT])


def test_refused_monte_carlo_run_loads_no_numpy():
    # the CLI builds the run's McConfig, which checks paths, steps and
    # seed, before it imports the engine
    refused = [
        ["price", "--s0", "100", "--strike", "100", "--lower", "70", *MKT, "--method", "mc",
         "--paths", "0"],
        ["breach", "--s0", "100", "--lower", "70", *MKT, "--method", "mc", "--steps", "0"],
        ["breach", "--s0", "100", "--lower", "70", "--upper", "130", *MKT, "--method", "mc",
         "--seed", "-1"],
    ]
    report = _child_report(refused)
    assert report["commands"] == {" ".join(argv): [2, []] for argv in refused}
