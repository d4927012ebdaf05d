"""CLI surface: dispatch, formats, exit codes, the README's command lines."""

import math
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import barrierkit
from barrierkit.cli import _HANDLERS, _PRECISION_NOTE, _fmt, build_parser, emit_csv, run
from barrierkit.critical import critical_prices
from barrierkit.model import BarrierCurve, BarrierSet, MarketParams, McConfig, ValidationError
from barrierkit.passage import breach_prob_mc
from barrierkit.pricing.closed import breach_prob_closed, down_and_out_call_closed
from oracles import KNOCKOUT_UNDER_STEEP_DRIFT

MKT = ["--sigma", "0.30", "--r", "0.10", "--T", "0.25"]


def _mkt(sigma="0.30", r="0.10", T="0.25"):
    return ["--sigma", sigma, "--r", r, "--T", T]


def _call(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_child(argv, timeout):
    """Run the CLI in a fresh interpreter on the barrierkit tree this process imported."""
    src = str(Path(barrierkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "barrierkit", *argv],
        capture_output=True, text=True, timeout=timeout, env=dict(os.environ, PYTHONPATH=path),
    )


def _has_non_finite(text):
    return re.search(r"\b(nan|inf)\b", text.lower()) is not None


# ---------------------------------------------------------------- dispatch


def test_classify_vanilla_above_critical(capsys):
    code, out, err = _call(
        capsys, "classify", "--s0", "110", "--lower", "70",
        "--sigma", "0.15", "--r", "0.10", "--T", "0.25", "--nu", "4.9",
    )
    assert code == 0
    assert out == "Vanilla\n"
    assert err == ""


def test_classify_knocked_out(capsys):
    code, out, _ = _call(
        capsys, "classify", "--s0", "65", "--lower", "70",
        "--sigma", "0.15", "--r", "0.10", "--T", "0.25", "--nu", "4.9",
    )
    assert code == 0
    assert out == "KnockedOutAtInception\n"


def test_classify_double_typical(capsys):
    code, out, _ = _call(
        capsys, "classify", "--s0", "100", "--lower", "70", "--upper", "200",
        *MKT, "--nu", "4.9",
    )
    assert code == 0
    assert out == "TypicalDoubleBarrier\n"


def test_classify_csv(capsys):
    code, out, _ = _call(
        capsys, "classify", "--s0", "110", "--lower", "70", "--csv",
        "--sigma", "0.15", "--r", "0.10", "--T", "0.25", "--nu", "4.9",
    )
    assert code == 0
    assert out == "classification\nVanilla\n"


def test_classify_via_pi(capsys):
    code, out, _ = _call(
        capsys, "classify", "--s0", "110", "--lower", "70",
        "--sigma", "0.15", "--r", "0.10", "--T", "0.25", "--pi", "1e-6",
    )
    assert code == 0
    # pi = 1e-6 gives nu ~ 4.753, a slightly tighter band than nu = 4.9
    assert out == "Vanilla\n"


def test_critical_double_barrier_rows(capsys):
    code, out, err = _call(
        capsys, "critical", "--lower", "70", "--upper", "130", *MKT, "--nu", "4.9",
    )
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0] == "s_ml = 143.9902  (attained at t = 0.25)"
    assert lines[1].startswith("s_mu = ")
    shown = float(lines[1].split("=")[1].split("(")[0])
    params = MarketParams(mu=0.10, sigma=0.30, r=0.10, T=0.25)
    expect = critical_prices(params, BarrierSet(upper=BarrierCurve.flat(130.0)), 4.9).s_mu
    assert shown == pytest.approx(expect, rel=1e-9)


def test_critical_csv_header(capsys):
    code, out, _ = _call(
        capsys, "critical", "--lower", "70", "--csv", *MKT, "--nu", "4.9",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "quantity,value,t_at_extremum"
    assert len(lines) == 2
    assert lines[1].startswith("s_ml,")


def test_price_closed_down_and_out(capsys):
    code, out, _ = _call(
        capsys, "price", "--s0", "100", "--strike", "100", "--lower", "70", *MKT,
    )
    assert code == 0
    assert out.startswith("price = ")
    assert out.rstrip().endswith("[Closed]")
    assert "+-" not in out
    value = float(out.split("=")[1].split("[")[0])
    assert value == pytest.approx(7.2208871397512867, rel=1e-9)


def test_price_closed_vanilla_without_barriers(capsys):
    code, out, _ = _call(
        capsys, "price", "--s0", "100", "--strike", "100", *MKT,
    )
    assert code == 0
    value = float(out.split("=")[1].split("[")[0])
    assert value == pytest.approx(7.22089013216803283, rel=1e-9)


def test_price_closed_curved_corridor(capsys):
    code, out, _ = _call(
        capsys, "price", "--s0", "100", "--strike", "100",
        "--lower", "70", "--lower-growth", "-0.2",
        "--upper", "130", "--upper-growth", "0.2", *MKT,
    )
    assert code == 0
    value = float(out.split("=")[1].split("[")[0])
    assert value == pytest.approx(5.4283018759402094299, rel=1e-8)


def test_price_mc_text_and_csv(capsys):
    argv = [
        "price", "--s0", "100", "--strike", "100", "--lower", "70",
        "--method", "mc", "--paths", "4000", "--steps", "50", "--seed", "9",
    ] + MKT
    code, out, _ = _call(capsys, *argv)
    assert code == 0
    assert " +- " in out
    assert out.rstrip().endswith("[MonteCarlo]")
    code, out, _ = _call(capsys, *argv, "--csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "value,std_error,method"
    cells = lines[1].split(",")
    assert cells[2] == "MonteCarlo"
    assert float(cells[1]) > 0.0


def test_breach_closed_single_side(capsys):
    code, out, _ = _call(
        capsys, "breach", "--s0", "100", "--lower", "70", *MKT,
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    p_lower = float(lines[0].split("=")[1])
    p_total = float(lines[1].split("=")[1])
    assert lines[0].startswith("p_lower = ")
    assert lines[1].startswith("p_total = ")
    assert p_lower == p_total
    assert p_lower == pytest.approx(0.0139574222952663369, rel=1e-9)


def test_breach_closed_under_steep_drift(capsys):
    # the reflection weight (B/s0)^(2*mu1/sigma^2) passes e^700; the answer
    # is an ordinary number, and Monte Carlo gives 0.52255 +- 0.0016
    code, out, err = _call(capsys, "breach", "--s0", "100", "--lower", "36.8", *_mkt(sigma="0.05", r="-1", T="1"))
    assert code == 0, err
    assert out == "p_lower = 0.5225435988\np_total = 0.5225435988\n"


@pytest.mark.parametrize(
    "argv, want",
    [
        (["--strike", "150", "--upper", "271.8", *_mkt(sigma="0.05", r="1", T="1")],
         KNOCKOUT_UNDER_STEEP_DRIFT[("upper", 150.0, 271.8, 1.0)]),
        # the lower barrier at 50 is never reached first: the up-and-out
        (["--strike", "150", "--lower", "50", "--upper", "271.8", *_mkt(sigma="0.05", r="1", T="1")],
         KNOCKOUT_UNDER_STEEP_DRIFT[("upper", 150.0, 271.8, 1.0)]),
        (["--strike", "90", "--lower", "36.8", *_mkt(sigma="0.05", r="-1", T="1")],
         KNOCKOUT_UNDER_STEEP_DRIFT[("lower", 90.0, 36.8, -1.0)]),
    ],
)
def test_price_closed_under_steep_drift(capsys, argv, want):
    # the image weight passes e^+-700 and once overflowed (exit 3) or, in
    # the double series, met a subnormal Phi difference and printed 20.82;
    # Monte Carlo gives 20.354 +- 0.144 for the first two
    code, out, err = _call(capsys, "price", "--s0", "100", *argv)
    assert (code, err) == (0, "")
    assert out == f"price = {want:.10g}  [Closed]\n"


def test_breach_closed_double_has_no_total(capsys):
    # the closed form gives P(either) for a corridor, not the chance of
    # each side first, so a corridor prints the total alone, as the PDE does
    code, out, _ = _call(
        capsys, "breach", "--s0", "100", "--lower", "70", "--upper", "130",
        "--csv", *MKT,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "quantity,value,std_error"
    assert [row.split(",")[0] for row in lines[1:]] == ["p_total"]
    assert lines[1] == "p_total,0.1079127262,0"


@pytest.mark.parametrize("argv, want", [
    (["--lower", "70", "--lower-growth", "0.1"], "p_lower = 0.0207681316\np_total = 0.0207681316\n"),
    (["--lower", "70", "--lower-growth", "0.4", "--upper", "130", "--upper-growth", "-0.3"],
     "p_total = 0.259739893\n"),
], ids=["exponential", "exponential-corridor"])
def test_breach_closed_exponential_sets(capsys, argv, want):
    # the corridor is the unequal-growth one of test_passage.py::TestMc
    assert _call(capsys, "breach", "--s0", "100", *argv, *MKT) == (0, want, "")


def test_breach_closed_refuses_a_tabulated_barrier_as_price_does(capsys, tmp_path):
    knots = tmp_path / "lower.csv"
    knots.write_text("0,70\n1,80\n", encoding="utf-8")
    argv = ["--s0", "100", "--lower-file", str(knots), *MKT]
    code, out, err = _call(capsys, "breach", *argv)
    assert (code, out) == (2, "")
    assert (code, out, err) == _call(capsys, "price", "--strike", "100", *argv)
    assert err == "error: the closed form needs flat or exponential barriers\n"


def test_price_mc_refuses_a_corridor_too_narrow_for_its_steps():
    # about 3e10 image pairs per step: exit 3 at once, not a run of days
    argv = ["price", "--s0", "100", "--strike", "100", "--lower", "99.9999999999",
            "--upper", "100.0000000001", *_mkt(sigma="0.3", r="0.05"),
            "--method", "mc", "--paths", "1000"]
    start = time.perf_counter()
    proc = _run_child(argv, timeout=60)
    assert time.perf_counter() - start < 2.0
    assert proc.returncode == 3, proc.stderr
    assert "3.38e+10 image pairs" in proc.stderr and proc.stdout == ""


@pytest.mark.parametrize("argv", [
    ["--lower", "99.9999999999", "--upper", "100.0000000001", *_mkt(sigma="0.3", r="0.05")],
    ["--lower", "70", "--upper", "130", *_mkt(sigma="150", T="1")],
], ids=["pinched", "sigma-150"])
def test_price_closed_refuses_a_corridor_too_narrow_for_its_span(capsys, argv):
    # the closed series counts its image pairs as the engine does: past
    # 1000 it exits 3 instead of printing a truncated sum
    code, out, err = _call(capsys, "price", "--s0", "100", "--strike", "100", *argv)
    assert (code, out) == (3, "")
    assert "image pairs, over 1000" in err


def test_breach_mc_rows(capsys):
    code, out, _ = _call(
        capsys, "breach", "--s0", "100", "--lower", "70", "--upper", "130",
        "--method", "mc", "--paths", "2000", "--steps", "50", "--seed", "4", *MKT,
    )
    assert code == 0
    lines = out.splitlines()
    assert [ln.split(" ")[0] for ln in lines] == ["p_lower", "p_upper", "p_total"]
    assert " +- " in lines[2]


def test_breach_mc_total_has_its_own_standard_error(capsys):
    # in a corridor pinched to 90/110 nearly every path leaves one way or
    # the other, so the two sides' masses are strongly anti-correlated and
    # p_total's standard error, taken path by path, is far below
    # hypot(se_lower, se_upper)
    barriers = ["--lower", "90", "--lower-growth", "0.4", "--upper", "110", "--upper-growth", "-0.3"]
    code, out, _ = _call(capsys, "breach", "--s0", "100", *barriers, *MKT, "--method", "mc",
                         "--paths", "20000", "--steps", "200", "--seed", "31")
    assert code == 0
    p = MarketParams(mu=0.10, sigma=0.30, r=0.10, T=0.25)
    bs = BarrierSet(lower=BarrierCurve.exponential(90.0, 0.4),
                    upper=BarrierCurve.exponential(110.0, -0.3))
    est = breach_prob_mc(p, bs, 100.0, McConfig(paths=20_000, steps_per_year=200, seed=31))
    assert out.splitlines()[2] == f"p_total = {_fmt(est.p_total)} +- {_fmt(est.se_total)} (1 se)"
    assert est.se_total < 1e-8 < 1e-3 < math.hypot(est.se_lower, est.se_upper)


def test_breach_mc_single_barrier_total_repeats_its_side(capsys):
    code, out, _ = _call(capsys, "breach", "--s0", "100", "--upper", "130", *MKT, "--method", "mc",
                         "--paths", "5000", "--steps", "50", "--seed", "4")
    assert code == 0
    lower, upper, total = out.splitlines()
    assert lower == "p_lower = 0"
    assert total.split(" = ")[1] == upper.split(" = ")[1]


@pytest.mark.parametrize("method", ["closed", "mc", "pde"])
def test_breach_needs_a_barrier(capsys, method):
    code, out, err = _call(capsys, "breach", "--s0", "100", *MKT, "--method", method)
    assert (code, out, err) == (2, "", "error: breach needs at least one barrier\n")


def test_breach_pde_matches_closed(capsys):
    code, out, _ = _call(
        capsys, "breach", "--s0", "100", "--lower", "70", "--method", "pde", *MKT,
    )
    assert code == 0
    assert out.startswith("p_total = ")
    p = float(out.split("=")[1])
    params = MarketParams(mu=0.10, sigma=0.30, r=0.10, T=0.25)
    exact = breach_prob_closed(params, BarrierSet(lower=BarrierCurve.flat(70.0)), 100.0)
    assert p == pytest.approx(exact, abs=5e-4)


def test_breach_pde_grid_too_coarse_is_a_numerical_failure(capsys, tmp_path):
    # a valid barrier that dips to 1e-300 stretches the corridor until
    # its node spacing exceeds sigma*sqrt(T); Monte Carlo prices it
    knots = tmp_path / "dip.csv"
    knots.write_text("0,70\n0.5,1e-300\n1,80\n", encoding="utf-8")
    code, out, err = _call(capsys, "breach", "--s0", "100", "--method", "pde",
                           "--lower-file", str(knots), *MKT)
    assert (code, out) == (3, "")
    assert err.startswith("numerical failure: grid too coarse")
    assert "lower barrier over [8.3666e-150, 70]" in err
    code, out, _ = _call(capsys, "price", "--s0", "100", "--strike", "100", "--method", "mc",
                         "--paths", "2000", "--lower-file", str(knots), *MKT)
    assert code == 0 and out.startswith("price = ")


def test_breach_pde_failed_step_solve_is_a_numerical_failure(capsys, failing_step_solve):
    code, out, err = _call(capsys, "breach", "--s0", "100", "--lower", "70", "--upper", "130",
                           "--method", "pde", *MKT)
    assert (code, out) == (3, "")
    assert err.startswith("numerical failure: tridiagonal solve failed over t in [")


def test_breach_pde_unreachable_barrier_prints_zero(capsys):
    # 743 log units from s0 the barrier would stretch the corridor past
    # what the nodes resolve; it is out of reach, so the answer is 0
    for level in ("1e-320", "5e-324"):
        code, out, _ = _call(capsys, "breach", "--s0", "100", "--lower", level,
                             "--method", "pde", *MKT)
        assert (code, out) == (0, "p_total = 0\n")


@pytest.mark.parametrize("s0, closed", [("100", 1.1e-225), ("80", 5.0e-121), ("70", 2.1e-58)])
def test_breach_pde_negligible_under_strong_drift_prints_zero(capsys, s0, closed):
    # the drift carries s0 away from a barrier within the 6-sigma reach;
    # the closed form at the barrier bounds the breach far below 2*Phi(-6),
    # so the barrier is out of reach instead of a grid too coarse
    argv = ["--s0", s0, "--lower", "61.9", *_mkt(sigma="0.073", r="2.88", T="2")]
    code, out, _ = _call(capsys, "breach", "--method", "pde", *argv)
    assert (code, out) == (0, "p_total = 0\n")
    code, out, _ = _call(capsys, "breach", "--method", "closed", *argv)
    assert float(out.splitlines()[-1].split("=")[1]) == pytest.approx(closed, rel=0.05, abs=0)


def test_breach_pde_certain_under_strong_drift_prints_one(capsys):
    # the drift carries s0 far below the barrier: the PDE's grid would be
    # too coarse (exit 3), but ending below it is already certain
    argv = ["--s0", "100", "--lower", "62.4277", *_mkt(sigma="0.069299", r="-2.51542", T="2")]
    for method in ("pde", "closed"):
        code, out, err = _call(capsys, "breach", "--method", method, *argv)
        assert code == 0, err
        assert out.endswith("p_total = 1\n")


def test_breach_s0_on_the_barrier_is_certain_under_every_method(capsys):
    # s0 on the barrier has breached it at inception, as price and classify say
    argv = ["breach", "--s0", "70", "--lower", "70", *MKT]
    for method in ("closed", "mc", "pde"):
        code, out, err = _call(capsys, *argv, "--method", method)
        assert code == 0, err
        assert "p_total = 1\n" in out
    for method in ("closed", "mc", "pde"):  # strictly past it is invalid input
        code, out, err = _call(capsys, "breach", "--s0", "69", "--lower", "70", *MKT,
                               "--method", method)
        assert (code, out) == (2, "")


@pytest.mark.parametrize(
    "argv, want",
    [
        (["breach", "--s0", "70.00000000000001", "--lower", "70", "--method", "mc",
          "--paths", "1000"], "p_lower = 1\np_upper = 0\np_total = 1\n"),
        (["breach", "--s0", "70.00000000000001", "--lower", "70", "--method", "pde"],
         "p_total = 1\n"),
        (["price", "--s0", "70.00000000000001", "--strike", "100", "--lower", "70",
          "--method", "mc", "--paths", "1000"], "price = 0  [MonteCarlo]\n"),
        (["breach", "--s0", "129.99999999999997", "--lower", "70", "--upper", "130",
          "--method", "mc", "--paths", "1000"], "p_lower = 0\np_upper = 1\np_total = 1\n"),
        (["breach", "--s0", "129.99999999999997", "--lower", "70", "--upper", "130",
          "--method", "pde"], "p_total = 1\n"),
        (["price", "--s0", "129.99999999999997", "--strike", "100", "--lower", "70",
          "--upper", "130", "--method", "mc", "--paths", "1000"], "price = 0  [MonteCarlo]\n"),
    ],
    ids=["breach-mc", "breach-pde", "price-mc", "corridor-breach-mc", "corridor-breach-pde",
         "corridor-price-mc"],
)
def test_s0_within_ulps_of_a_line_is_on_it_under_every_method(capsys, argv, want):
    # inside in price, on the line in the log space the engine walks
    assert _call(capsys, *argv, *MKT)[:2] == (0, want)


@pytest.mark.parametrize(
    "argv",
    [
        # 1000 * (T / 1000) rounds one ulp past this T
        ["critical", "--lower", "70", "--upper", "130", "--nu", "3",
         *_mkt(T="0.11738897078470452")],
        # 335 * (T / 335) rounds one ulp past this T
        ["price", "--s0", "100", "--strike", "100", "--lower", "70", "--method", "mc",
         "--paths", "2000", *_mkt(T="0.9169050509759932")],
    ],
    ids=["critical-double", "price-mc"],
)
def test_horizon_where_a_time_grid_overshoots(capsys, argv):
    code, out, err = _call(capsys, *argv)
    assert code == 0, err
    assert out and not _has_non_finite(out)


def test_calibrate_text_output(capsys):
    code, out, _ = _call(
        capsys, "calibrate", "--lower", "70", "--strike", "100",
        "--theta", "1e-2", *MKT,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("numeric critical price = ")
    assert lines[1].startswith("implied nu = ")
    s_crit = float(lines[0].split("=")[1])
    nu = float(lines[1].split("=")[1])
    assert s_crit == pytest.approx(77.978580549279580342, abs=1e-4)
    assert nu == pytest.approx(0.811259590573, abs=1e-3)


def test_calibrate_csv_header(capsys):
    code, out, _ = _call(
        capsys, "calibrate", "--upper", "130", "--strike", "100",
        "--theta", "1e-2", *MKT, "--csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "theta,numeric_critical,implied_nu"
    cells = lines[1].split(",")
    assert float(cells[0]) == 0.01
    assert 70.0 < float(cells[1]) < 130.0


def test_table1_csv_contract(capsys):
    code, out, err = _call(capsys, "table1", "--theta", "1e-6", "--csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "T,sigma,analytic_sml,numeric_sml,implied_nu"
    assert len(lines) == 5
    for row in lines[1:]:
        cells = row.split(",")
        assert len(cells) == 5
        assert all(math.isfinite(float(c)) for c in cells)
    # the quantization caveat rides on stderr so the CSV stream stays clean
    assert _PRECISION_NOTE in err
    assert _PRECISION_NOTE not in out


def test_table1_text_mode_note_on_stdout(capsys):
    code, out, err = _call(capsys, "table1")
    assert code == 0
    assert _PRECISION_NOTE in out
    assert err == ""
    lines = out.splitlines()
    assert lines[0].split() == ["T", "sigma", "analytic_sml", "numeric_sml", "implied_nu"]
    assert len(lines) == 6


def test_sweep_csv_shape(capsys):
    code, out, _ = _call(
        capsys, "sweep", "--strike", "100", "--lower", "70",
        "--sigma", "0.15", "--r", "0.10", "--T", "0.25", "--nu", "4.9", "--csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "s0,classification,barrier_price,vanilla_price,abs_diff"
    assert len(lines) == 34
    labels = set()
    for row in lines[1:]:
        s0, label, bp, vp, diff = row.split(",")
        labels.add(label)
        assert abs(float(bp) - float(vp)) == pytest.approx(float(diff), abs=1e-7)
    assert "DownAndOut" in labels
    assert "Vanilla" in labels
    first = float(lines[1].split(",")[0])
    assert first == pytest.approx(70.0 * 1.02, rel=1e-12)
    # up to 10 sigma*sqrt(T) above the barrier
    assert float(lines[-1].split(",")[0]) == pytest.approx(70.0 * math.exp(10.0 * 0.15 * 0.5), rel=1e-9)


def test_sweep_double_barrier_bounds(capsys):
    code, out, _ = _call(
        capsys, "sweep", "--strike", "100", "--lower", "70", "--upper", "130",
        *MKT, "--nu", "4.9",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 34
    assert lines[0].startswith("s0")


def test_classify_and_sweep_with_an_upper_barrier_alone(capsys):
    mkt = _mkt(sigma="0.15")
    params = MarketParams(mu=0.10, sigma=0.15, r=0.10, T=0.25)
    s_mu = critical_prices(params, BarrierSet(upper=BarrierCurve.flat(130.0)), 4.9).s_mu
    for s0, want in (("80", "Vanilla\n"), ("125", "UpAndOut\n"), ("130", "KnockedOutAtInception\n")):
        argv = ["classify", "--s0", s0, "--upper", "130", *mkt, "--nu", "4.9"]
        assert _call(capsys, *argv) == (0, want, "")
    argv = ["sweep", "--strike", "100", "--upper", "130", *mkt, "--nu", "4.9", "--csv"]
    code, out, _ = _call(capsys, *argv)
    assert code == 0
    rows = [row.split(",") for row in out.splitlines()[1:]]
    s0s = [float(row[0]) for row in rows]
    # from 10 sigma*sqrt(T) below the barrier up to 0.98 of it
    assert len(rows) == 33
    assert s0s[0] == pytest.approx(130.0 / math.exp(10.0 * 0.15 * 0.5), rel=1e-9)
    assert s0s[-1] == pytest.approx(130.0 * 0.98, rel=1e-9)
    assert [row[1] for row in rows] == ["Vanilla" if s <= s_mu else "UpAndOut" for s in s0s]
    assert {"Vanilla", "UpAndOut"} <= {row[1] for row in rows}


# ---------------------------------------------------------------- emit_csv


def test_emit_csv_header_only():
    assert emit_csv([], ["a", "b"]) == "a,b\n"


def test_emit_csv_single_row():
    text = emit_csv([(0.25, 0.15, 98.87, 94.852, 4.347)], list("abcde"))
    assert text == "a,b,c,d,e\n0.25,0.15,98.87,94.852,4.347\n"


def test_emit_csv_round_trip():
    row = (math.pi * 1e7, 1.0 / 3.0, -9.999999999e9, 1.2345678901e-13)
    text = emit_csv([row], ["w", "x", "y", "z"])
    back = [float(c) for c in text.splitlines()[1].split(",")]
    for got, want in zip(back, row):
        assert got == pytest.approx(want, rel=1e-9, abs=0)


def test_emit_csv_quoting():
    text = emit_csv([("a,b", 'say "hi"', "two\nlines")], ["p", "q", "r"])
    assert text.splitlines()[1].startswith('"a,b","say ""hi""","two')


def test_emit_csv_ragged_row_rejected():
    with pytest.raises(ValidationError, match="ragged"):
        emit_csv([(1.0, 2.0), (1.0,)], ["a", "b"])


def test_emit_csv_lf_only_and_trailing_newline():
    text = emit_csv([(1, 2)], ["a", "b"])
    assert "\r" not in text
    assert text.endswith("\n")
    assert not text.endswith("\n\n")
    assert text.splitlines()[1] == "1,2"


# ---------------------------------------------------------------- exit codes


def test_exit_2_missing_barrier(capsys):
    code, _, err = _call(capsys, "classify", "--s0", "100", *MKT, "--nu", "4.9")
    assert code == 2
    assert err.startswith("error: ")


def test_exit_2_missing_accuracy(capsys):
    code, out, err = _call(capsys, "critical", "--lower", "70", *MKT)
    assert (code, out) == (2, "")
    assert "--nu" in err and "--pi" in err


def test_exit_2_crossed_barriers(capsys):
    code, _, err = _call(
        capsys, "critical", "--lower", "130", "--upper", "70", *MKT, "--nu", "4.9",
    )
    assert code == 2
    assert err.startswith("error: ")


def test_exit_2_bad_theta(capsys):
    code, _, err = _call(
        capsys, "calibrate", "--lower", "70", "--theta", "2e-3", *MKT,
    )
    assert code == 2
    assert err.startswith("error: ")


def test_exit_2_calibrate_needs_one_side(capsys):
    code, _, err = _call(
        capsys, "calibrate", "--lower", "70", "--upper", "130",
        "--theta", "1e-2", *MKT,
    )
    assert code == 2
    assert "exactly one" in err
    code, _, err = _call(capsys, "calibrate", "--theta", "1e-2", *MKT)
    assert code == 2


def test_exit_2_calibrate_needs_an_accuracy(capsys):
    code, out, err = _call(capsys, "calibrate", "--lower", "70", *MKT)
    assert (code, out) == (2, "")
    assert "--theta" in err


@pytest.mark.parametrize("flag", ["--s0", "--strike"])
def test_exit_2_non_numeric_price_level(capsys, flag):
    levels = dict.fromkeys(("--s0", "--strike"), "100") | {flag: "abc"}
    code, out, err = _call(capsys, "price", *(x for kv in levels.items() for x in kv), *MKT)
    assert (code, out) == (2, "")
    assert f"argument {flag}: invalid number: 'abc'" in err


def test_exit_3_unreachable_accuracy(capsys):
    # at the quantization floor the upper-side gap never drops below theta/2
    code, out, err = _call(
        capsys, "calibrate", "--upper", "130", "--strike", "100",
        "--theta", "1e-30", *MKT,
    )
    assert code == 3
    assert out == ""
    assert err.startswith("numerical failure: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["price", "--s0", "nan", "--strike", "100", "--lower", "70"],
        ["price", "--s0", "nan", "--strike", "100", "--lower", "70", "--method", "mc",
         "--paths", "1000"],
        ["price", "--s0", "100", "--strike", "nan", "--lower", "70"],
        ["price", "--s0", "100", "--strike", "-5", "--lower", "70"],
        ["price", "--s0", "100", "--strike", "inf", "--lower", "70"],
        ["price", "--s0", "0", "--strike", "100"],
        ["breach", "--s0", "nan", "--lower", "70"],
        ["breach", "--s0", "nan", "--lower", "70", "--method", "mc", "--paths", "1000"],
        ["classify", "--s0", "nan", "--lower", "70", "--nu", "4.9"],
        ["classify", "--s0", "-110", "--lower", "70", "--nu", "4.9"],
        ["calibrate", "--lower", "70", "--strike", "nan", "--theta", "1e-2"],
        ["sweep", "--strike", "nan", "--lower", "70", "--nu", "4.9"],
        ["sweep", "--strike", "0", "--lower", "70", "--nu", "4.9"],
    ],
)
def test_exit_2_non_positive_or_non_finite_price_levels(capsys, argv):
    code, out, err = _call(capsys, *argv, *MKT)
    assert code == 2
    assert "nan" not in out.lower()
    assert "positive and finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["critical", "--lower", "70", "--pi", "0.7", *MKT],
        ["critical", "--lower", "70", "--pi", "nan", *MKT],
        ["classify", "--s0", "110", "--lower", "70", "--pi", "0", *MKT],
        ["sweep", "--strike", "100", "--lower", "70", "--pi", "0.5", *MKT],
        ["critical", "--lower", "70", "--nu", "nan", *MKT],
        ["critical", "--lower", "70", "--nu", "inf", *MKT],
        ["critical", "--lower", "70", "--nu", "-1", *MKT],
        ["critical", "--lower", "70", "--lower-growth", "0.05", "--nu", "-1", *MKT],
        ["critical", "--upper", "130", "--upper-growth", "-0.05", "--nu", "nan", *MKT],
        ["classify", "--s0", "110", "--lower", "70", "--nu", "nan", *MKT],
        ["sweep", "--strike", "100", "--lower", "70", "--upper", "130", "--nu", "inf", *MKT],
        ["calibrate", "--lower", "70", "--theta", "nan", *MKT],
        ["calibrate", "--lower", "70", "--theta", "inf", *MKT],
        ["table1", "--theta", "nan"],
        ["table1", "--nu", "nan"],
    ],
)
def test_exit_2_invalid_accuracy(capsys, argv):
    # an exception escaping run() fails the test on its own
    code, out, err = _call(capsys, *argv)
    assert code == 2
    assert "nan" not in out.lower() and "inf" not in out.lower()
    assert err.startswith("error: ")
    assert "Traceback" not in err


S0_K = ["--s0", "100", "--strike", "100"]


@pytest.mark.parametrize(
    "argv",
    [
        # sigma^2*T overflows: rejected as input
        ["price", *S0_K, "--lower", "70", *_mkt(sigma="1e200")],
        ["price", *S0_K, "--upper", "130", *_mkt(sigma="1e300")],
        ["breach", "--s0", "100", "--lower", "70", *_mkt(sigma="1e200")],
        ["sweep", "--strike", "100", "--lower", "70", "--nu", "3", *_mkt(sigma="1e200")],
        ["calibrate", "--lower", "70", "--theta", "1e-6", *_mkt(sigma="1e200")],
        ["critical", "--lower", "70", "--upper", "130", "--nu", "3", *_mkt(sigma="1e200")],
        ["classify", "--s0", "100", "--lower", "70", "--upper", "130", "--nu", "3",
         *_mkt(sigma="1e308")],
        # a critical curve or a price overflows
        ["critical", "--lower", "70", "--nu", "3", *_mkt(sigma="1e20")],
        ["classify", "--s0", "100", "--lower", "70", "--nu", "3", *_mkt(sigma="100")],
        ["calibrate", "--upper", "130", "--theta", "1e-6", *_mkt(sigma="100")],
        # sigma*sqrt(T) underflows to zero
        ["price", *S0_K, "--lower", "70", *_mkt(sigma="1e-300")],
        ["price", *S0_K, *_mkt(sigma="5e-324")],
        ["breach", "--s0", "100", "--lower", "70", "--upper", "130", *_mkt(sigma="1e-200")],
        ["sweep", "--strike", "100", "--lower", "70", "--nu", "3", *_mkt(sigma="1e-300")],
        ["calibrate", "--lower", "70", "--theta", "1e-6", *_mkt(sigma="1e-300")],
        # rates
        ["calibrate", "--upper", "130", "--theta", "1e-6", *_mkt(r="100")],
        # horizons
        ["calibrate", "--lower", "70", "--theta", "1e-6", *_mkt(T="1e20")],
        ["sweep", "--strike", "100", "--lower", "70", "--nu", "3", *_mkt(T="1e20")],
        ["price", *S0_K, "--lower", "70", "--upper", "130", *_mkt(T="5e-324")],
        # barrier levels
        ["breach", "--s0", "100", "--lower", "5e-324", *MKT],
        # barrier growths
        ["critical", "--lower", "70", "--lower-growth", "1e20", "--nu", "3", *MKT],
        ["classify", "--s0", "100", "--lower", "70", "--upper", "130", "--upper-growth", "1e20",
         "--nu", "3", *MKT],
        ["price", *S0_K, "--lower", "70", "--upper", "130", "--lower-growth", "1e200", *MKT],
        ["breach", "--s0", "100", "--lower", "70", "--upper", "130", "--upper-growth", "1e20",
         *MKT],
        ["sweep", "--strike", "100", "--lower", "70", "--lower-growth", "1e20", "--nu", "3",
         *MKT],
    ],
    # the cases that now price (test_closed_price_past_the_image_weight_overflow)
    # left gaps at 15, 16, 21-23, 25 and 26; the rest keep their ids
    ids=[f"argv{i}" for i in (*range(15), 17, 18, 19, 20, 24, *range(27, 32))],
)
def test_exit_2_or_3_beyond_double_precision(capsys, argv):
    # an exception escaping run() fails the test on its own
    code, out, err = _call(capsys, *argv)
    assert code in (2, 3)
    assert not _has_non_finite(out)
    assert err.startswith(("error: ", "numerical failure: "))
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, want",
    [
        # the discount e^(-r*T) underflows to 0
        (["price", *S0_K, "--upper", "130", *_mkt(r="1e20")], "price = 0  [Closed]\n"),
        (["price", *S0_K, "--upper", "130", *_mkt(r="1e308")], "price = 0  [Closed]\n"),
        # barriers hundreds of log units away leave the vanilla
        (["price", *S0_K, "--lower", "1e-300", *MKT], "price = 7.220890132  [Closed]\n"),
        (["price", *S0_K, "--upper", "1e150", *MKT], "price = 7.220890132  [Closed]\n"),
        (["price", *S0_K, "--upper", "1e300", *MKT], "price = 7.220890132  [Closed]\n"),
        (["calibrate", "--lower", "1e-300", "--theta", "1e-6", *MKT],
         "numeric critical price = 1.000000001e-300\nimplied nu = 4.944132528e-05\n"),
    ],
)
def test_closed_price_past_the_image_weight_overflow(capsys, argv, want):
    # each ended in exit 3 at the image term: its weight overflowed, or the
    # log of B^2/(s0*K) did after B^2 underflowed to 0
    assert _call(capsys, *argv) == (0, want, "")


def test_sweep_next_to_a_barrier_at_1e_300(capsys):
    # every s0 lies below 4.5e-300, where the knock-out and the vanilla
    # with strike 100 are both 0; this ended in exit 3 at the image term
    code, out, err = _call(capsys, "sweep", "--strike", "100", "--lower", "1e-300", "--nu", "3",
                           *MKT, "--csv")
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 33
    assert all(r[2:] == ["0", "0", "0"] for r in rows)


@pytest.mark.parametrize(
    "argv, want",
    [
        (["breach", "--s0", "100", "--lower", "70", "--upper", "130", *_mkt(r="1e308")],
         "p_total = 1\n"),
        (["breach", "--s0", "100", "--upper", "1e300", *MKT], "p_upper = 0\np_total = 0\n"),
    ],
)
def test_breach_closed_past_the_reflection_weight_overflow(capsys, argv, want):
    # the upper side's reflection weight passes e^700 and once overflowed
    # to exit 3; the drift makes the breach certain in the first case, and
    # a barrier 690 log units away makes it impossible in the second
    assert _call(capsys, *argv) == (0, want, "")


def test_critical_price_far_inside_a_huge_horizon(capsys):
    # the maximum sits at the turning point t = 8100; the value is pinned
    # to 1e-14 in tests/test_critical.py
    code, out, err = _call(capsys, "critical", "--lower", "70", "--lower-growth", "0.05",
                           "--nu", "3", *_mkt(T="1e20"))
    assert (code, out, err) == (0, "s_ml = 2.716592874e+19  (attained at t = 8100)\n", "")


def test_critical_price_of_a_barrier_that_overflows_alone(capsys):
    # 70*exp(800) overflows, but mu1 = g leaves s_ml = 70*exp(0.9*sqrt(800))
    code, out, err = _call(capsys, "critical", "--lower", "70", "--lower-growth", "1",
                           "--nu", "3", *_mkt(r="1.045", T="800"))
    assert (code, out, err) == (0, "s_ml = 7.95116333e+12  (attained at t = 800)\n", "")
    assert float(out.split()[2]) == pytest.approx(70.0 * math.exp(0.9 * math.sqrt(800.0)), rel=1e-8)


@pytest.mark.parametrize(
    "argv",
    [
        # bisection on s0 where adjacent floats lie more than 1e-6 apart
        ["calibrate", "--upper", "1e20", "--theta", "1e-6", *MKT],
        # a curved barrier at a horizon where adjacent floats in t lie more
        # than 1e-10 apart, which once stalled a search on t
        ["critical", "--lower", "70", "--lower-growth", "1e-30", "--nu", "1",
         *_mkt(sigma="0.1", r="0.005", T="1e7")],
    ],
)
def test_searches_end_at_float_resolution(argv):
    proc = _run_child(argv, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout and not _has_non_finite(proc.stdout)


def test_exit_2_unknown_flag(capsys):
    code, _, _ = _call(capsys, "price", "--s0", "100", "--strike", "100",
                       "--bogus", "1", *MKT)
    assert code == 2
    # theta has one flag, --theta, on calibrate and table1 alone
    for cmd in (["classify", "--s0", "110"], ["critical"], ["sweep", "--strike", "100"]):
        code, out, err = _call(capsys, *cmd, "--lower", "70", *MKT, "--nu", "4.9", "--digits", "6")
        assert code == 2 and out == "" and "--digits" in err


def test_exit_2_unknown_subcommand(capsys):
    assert _call(capsys, "frobnicate")[0] == 2
    assert _call(capsys)[0] == 2


@pytest.mark.parametrize("argv", [
    ["classify", "--s0", "110", "--lower", "70", *MKT, "--nu", "4.9"],
    ["critical", "--lower", "70", *MKT, "--nu", "4.9"],
    ["price", "--s0", "100", "--strike", "100", "--lower", "70", *MKT],
    ["breach", "--s0", "100", "--lower", "70", *MKT],
    ["calibrate", "--lower", "70", *MKT, "--theta", "1e-2"],
    ["table1"],
    ["sweep", "--strike", "100", "--lower", "70", *MKT, "--nu", "4.9"],
], ids=lambda argv: argv[0])
def test_exit_2_no_config_file_and_no_digits(capsys, tmp_path, argv):
    # each value has one flag: there is no config file, and theta is --theta
    cfg = tmp_path / "run.cfg"
    cfg.write_text("csv = true\n", encoding="utf-8")
    assert _call(capsys, *argv)[0] == 0
    for extra in (["--config", str(cfg)], ["--digits", "6"]):
        code, out, err = _call(capsys, *argv, *extra)
        assert (code, out) == (2, ""), extra
        assert extra[0] in err


def _readme_command_lines():
    """The `barrierkit ...` lines of README's command-line block, continuations joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("barrierkit ")]


def test_readme_command_lines_parse():
    parser = build_parser()
    commands = [shlex.split(line)[1:] for line in _readme_command_lines()]
    assert {argv[0] for argv in commands} == set(_HANDLERS)
    for argv in commands:
        assert parser.parse_args(argv).command == argv[0]


def test_closed_method_rejects_curved_shapes(capsys, tmp_path):
    # an exponential single barrier takes the closed form; a tabulated one does not
    code, out, _ = _call(
        capsys, "price", "--s0", "100", "--strike", "100",
        "--lower", "70", "--lower-growth", "0.1", *MKT,
    )
    want = down_and_out_call_closed(MarketParams(mu=0.10, sigma=0.30, r=0.10, T=0.25),
                                    100.0, 70.0, 100.0, 0.1).value
    assert (code, out) == (0, f"price = {want:.10g}  [Closed]\n")
    knots = tmp_path / "knots.csv"
    knots.write_text("0,70\n0.25,75\n", encoding="utf-8")
    code, _, err = _call(
        capsys, "price", "--s0", "100", "--strike", "100",
        "--lower-file", str(knots), "--upper", "130", *MKT,
    )
    assert code == 2
    assert "flat or exponential" in err


def test_tabulated_barrier_prices_under_mc(capsys, tmp_path):
    knots = tmp_path / "knots.csv"
    knots.write_text("0, 70\n0.25, 75  # linear-in-log segment\n", encoding="utf-8")
    code, out, _ = _call(
        capsys, "price", "--s0", "100", "--strike", "100",
        "--lower-file", str(knots), "--method", "mc",
        "--paths", "2000", "--steps", "50", "--seed", "1", *MKT,
    )
    assert code == 0
    assert "[MonteCarlo]" in out


def test_bad_knot_file_rejected(capsys, tmp_path):
    knots = tmp_path / "bad.csv"
    knots.write_text("0.1\n", encoding="utf-8")
    code, _, err = _call(
        capsys, "price", "--s0", "100", "--strike", "100",
        "--lower-file", str(knots), "--method", "mc", *MKT,
    )
    assert code == 2
    assert "t,level" in err
    knots.write_bytes(b"0,70\n\xff\xfe,80\n")
    code, out, err = _call(capsys, "critical", "--lower-file", str(knots), "--nu", "3", *MKT)
    assert (code, out) == (2, "")
    assert "not UTF-8" in err
    # NaN and infinite knot times pass every order check
    for text in ("nan,70\n1,80\n", "0,70\ninf,80\n"):
        knots.write_text(text, encoding="utf-8")
        for cmd in (["classify", "--s0", "100", "--nu", "3"], ["critical", "--nu", "3"],
                    ["price", "--s0", "100", "--strike", "100", "--method", "mc",
                     "--paths", "1000"]):
            code, out, err = _call(capsys, *cmd, "--lower-file", str(knots), *MKT)
            assert (code, out) == (2, ""), (text, cmd)
            assert "must be finite" in err


def test_barrier_file_excludes_level_flags(capsys, tmp_path):
    knots = tmp_path / "knots.csv"
    knots.write_text("0,70\n0.25,75\n", encoding="utf-8")
    code, _, err = _call(
        capsys, "price", "--s0", "100", "--strike", "100",
        "--lower-file", str(knots), "--lower", "70", "--method", "mc", *MKT,
    )
    assert code == 2
    assert "excludes" in err


def test_growth_without_level_rejected(capsys):
    code, _, err = _call(
        capsys, "classify", "--s0", "100", "--lower-growth", "0.1",
        *MKT, "--nu", "4.9",
    )
    assert code == 2
    assert "needs --lower" in err


# ---------------------------------------------------------------- warnings


def test_nu_and_pi_exclude_each_other(capsys):
    code, out, err = _call(capsys, "critical", "--lower", "70", "--sigma", "0.15",
                           "--r", "0.10", "--T", "0.25", "--nu", "4.9", "--pi", "1e-6")
    assert (code, out) == (2, "")
    assert "not allowed with argument" in err


def test_library_warning_prints_in_the_cli_form(capsys, tmp_path):
    # the engine's off-grid-knot RuntimeWarning, on one line as the CLI's own
    # warnings are, in place of Python's file:line form and echoed source line
    knots = tmp_path / "knots.csv"
    knots.write_text("0,70\n0.1,95\n0.5,70\n")
    argv = ["breach", "--s0", "100", "--lower-file", str(knots), "--sigma", "0.3", "--r", "0.1",
            "--T", "0.5", "--method", "mc", "--paths", "20000", "--steps", "4"]
    warning = ("warning: barrier knot at t=0.1 is not a node of the 2-step grid (step 0.25): "
               "the bridge cuts the corner there, so the Monte Carlo estimate is biased\n")
    code, out, err = _call(capsys, *argv)
    assert code == 0 and err == warning
    assert out.startswith("p_lower = ")
    child = _run_child(argv, timeout=120)
    assert (child.returncode, child.stdout, child.stderr) == (0, out, warning)


# ---------------------------------------------------------------- determinism


@pytest.mark.parametrize("argv", [
    ["classify", "--s0", "110", "--lower", "70", "--sigma", "0.15",
     "--r", "0.10", "--T", "0.25", "--nu", "4.9"],
    ["price", "--s0", "100", "--strike", "100", "--lower", "70",
     "--method", "mc", "--paths", "4000", "--steps", "50", "--seed", "9",
     "--sigma", "0.30", "--r", "0.10", "--T", "0.25", "--csv"],
    ["table1", "--csv"],
    ["sweep", "--strike", "100", "--lower", "70", "--upper", "130",
     "--sigma", "0.30", "--r", "0.10", "--T", "0.25", "--nu", "4.9", "--csv"],
], ids=["classify", "price-mc", "table1", "sweep"])
def test_rerun_is_byte_identical(capsys, argv):
    code1 = run(list(argv))
    first = capsys.readouterr()
    code2 = run(list(argv))
    second = capsys.readouterr()
    assert code1 == code2 == 0
    assert first.out == second.out
    assert first.err == second.err


# ---------------------------------------------------------------- help


@pytest.mark.parametrize("cmd", [
    None, "classify", "critical", "price", "breach", "calibrate", "table1", "sweep",
])
def test_help_exits_zero(capsys, cmd):
    argv = ["--help"] if cmd is None else [cmd, "--help"]
    code = run(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert "usage:" in out


def test_console_script_entry_point():
    proc = _run_child(
        ["classify", "--s0", "110", "--lower", "70", "--sigma", "0.15", "--r", "0.10",
         "--T", "0.25", "--nu", "4.9"],
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == "Vanilla\n"
