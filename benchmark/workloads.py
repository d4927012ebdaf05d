"""The four benchmark workloads: inputs from a seed, ops, and their checks.

A workload is a fixed list of ops (one pass); the run repeats the pass.
Every op returns a result that its check accepts (None) or rejects (a
message). Inputs come only from the seed; anything not set here uses the
library defaults. The caller is a closed loop of one: the next op starts
when the previous one has returned.

Every call into barrierkit goes through a module attribute looked up at
call time (`bk.mc_price`, `bk.cli.run`), so that the traced run's
wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from typing import Callable

import barrierkit as bk
import barrierkit.cli  # noqa: F401  (bk.cli for the in-process reference)

NPROC = len(os.sched_getaffinity(0))

# the a6 market sets: (T, sigma, r, lower, upper), strike = s0 = 100
A6_SETS = (
    (0.25, 0.15, 0.10, 70.0, 130.0),
    (0.25, 0.30, 0.10, 70.0, 130.0),
    (0.50, 0.15, 0.10, 70.0, 130.0),
    (0.50, 0.30, 0.10, 70.0, 130.0),
    (0.25, 0.20, 0.05, 90.0, 115.0),
)
# tie-heavy corridors at T = 0.25: (steps per year, sigma, lower, upper);
# the step's volatility is comparable to the corridor width, so many
# paths cross both sides within one step
CORRIDORS = ((12, 1.0, 85.0, 118.0), (26, 1.5, 80.0, 125.0), (52, 2.0, 80.0, 125.0))
CORRIDOR_SHAPES = ("flat", "exponential", "tabulated")
PDE_TOL = 2e-3  # first-order grid error of the default 400x400 PDE grid

SIZES = {
    "full": {
        "mc_grid": {"paths": 50_000, "steps_per_year": 200},
        "breach_ties": {"corridor_paths": 40_000, "large_paths": 2_000_000},
        "desk_closed": {"contracts": 512, "s0_points": 33, "calibrate_every": 4},
        "cli": {"mc_paths": 20_000, "commands": 9},
    },
    "toy": {
        "mc_grid": {"paths": 2_000, "steps_per_year": 200},
        "breach_ties": {"corridor_paths": 2_000, "large_paths": 20_000},
        "desk_closed": {"contracts": 12, "s0_points": 5, "calibrate_every": 4},
        "cli": {"mc_paths": 2_000, "commands": 3},
    },
}


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None] = lambda result: None
    paths: int = 0  # simulated paths, for paths_per_s
    child_rss_kb: int = 0  # peak RSS of the op's child process, if any


@dataclass
class Workload:
    name: str
    ops: list[Op]
    sizes: dict
    # run once after set-up, outside the timed passes (cli: in-process references)
    prepare: Callable[[], object] | None = None
    # ops run in single-threaded child processes; the run is pinned to one
    # CPU so that the reference loop measures the CPU the children run on
    uses_children: bool = False
    streams_memory: bool = False  # ops stream arrays far larger than the L2 cache
    notes: dict = field(default_factory=dict)


def build(name: str, seed: int, size: str = "full", root: str = ".") -> Workload:
    sizes = SIZES[size][name]
    rng = random.Random(f"{name}:{seed}")
    if name == "mc_grid":
        return _mc_grid(rng, sizes)
    if name == "breach_ties":
        return _breach_ties(rng, sizes)
    if name == "desk_closed":
        return _desk_closed(rng, sizes)
    if name == "cli":
        return _cli(rng, sizes, root)
    raise ValueError(f"unknown workload {name!r}")


def _z_check(closed: float, limit: float = 4.0):
    def check(est) -> str | None:
        if not (est.std_error > 0.0):
            return f"zero standard error (value {est.value})"
        z = (est.value - closed) / est.std_error
        return None if abs(z) <= limit else f"|z| = {abs(z):.2f} > {limit} against closed {closed}"
    return check


# -- mc_grid: the paper's MC-vs-closed-form claim ---------------------------

def _mc_grid(rng: random.Random, sizes: dict) -> Workload:
    strike = s0 = 100.0
    ops = []
    for i, (T, sigma, r, lo, hi) in enumerate(A6_SETS):
        params = bk.MarketParams(mu=r, sigma=sigma, r=r, T=T)
        lower, upper = bk.BarrierCurve.flat(lo), bk.BarrierCurve.flat(hi)
        cases = (
            ("vanilla", bk.BarrierSet(), bk.bs_vanilla(params, bk.Payoff.CALL, strike, s0)),
            ("down-and-out", bk.BarrierSet(lower=lower),
             bk.down_and_out_call_closed(params, strike, lo, s0)),
            ("up-and-out", bk.BarrierSet(upper=upper),
             bk.up_and_out_call_closed(params, strike, hi, s0)),
            ("double", bk.BarrierSet(lower=lower, upper=upper),
             bk.double_knockout_closed(params, strike, lo, hi, s0, (0.0, 0.0))),
        )
        for kind, barriers, closed in cases:
            spec = bk.OptionSpec(payoff=bk.Payoff.CALL, strike=strike, barriers=barriers)
            cfg = bk.McConfig(paths=sizes["paths"], steps_per_year=sizes["steps_per_year"],
                              seed=rng.getrandbits(32))
            ops.append(Op(
                name=f"mc_price set{i} {kind}",
                run=lambda p=params, sp=spec, c=cfg: bk.mc_price(p, sp, s0, c),
                check=_z_check(closed.value),
                paths=cfg.paths,
            ))
    return Workload("mc_grid", ops, dict(sizes, contracts=len(ops)), streams_memory=True)


# -- breach_ties: many short, tie-heavy paths plus one large pooled op ------

def _corridor(shape: str, T: float, n_steps: int, lo: float, hi: float) -> "bk.BarrierSet":
    if shape == "flat":
        return bk.BarrierSet(lower=bk.BarrierCurve.flat(lo), upper=bk.BarrierCurve.flat(hi))
    if shape == "exponential":
        return bk.BarrierSet(lower=bk.BarrierCurve.exponential(lo, 0.2),
                             upper=bk.BarrierCurve.exponential(hi, -0.2))
    # knots on step nodes, so the bridge's log-linear chords are exact
    mid = (n_steps // 2) * T / n_steps
    return bk.BarrierSet(
        lower=bk.BarrierCurve.tabulated(((0.0, lo), (mid, lo * 1.03), (T, lo * 0.99))),
        upper=bk.BarrierCurve.tabulated(((0.0, hi), (mid, hi * 0.98), (T, hi * 1.01))),
    )


def _check_triangle(result) -> str | None:
    est, pde = result
    se = math.hypot(est.se_lower, est.se_upper)
    gap = abs(est.p_total - pde)
    if gap > 4.0 * se + PDE_TOL:
        return f"|p_mc - p_pde| = {gap:.3g} > 4 se + tol ({4.0 * se + PDE_TOL:.3g})"
    return None


def _breach_ties(rng: random.Random, sizes: dict) -> Workload:
    T, s0 = 0.25, 100.0
    ops = []
    for shape in CORRIDOR_SHAPES:
        for steps, sigma, lo, hi in CORRIDORS:
            params = bk.MarketParams(mu=0.05, sigma=sigma * rng.uniform(0.98, 1.02), r=0.05, T=T)
            n_steps = max(1, math.ceil(steps * T - 1e-12))
            barriers = _corridor(shape, T, n_steps, lo * rng.uniform(0.99, 1.01),
                                 hi * rng.uniform(0.99, 1.01))
            cfg = bk.McConfig(paths=sizes["corridor_paths"], steps_per_year=steps,
                              seed=rng.getrandbits(32))

            def run(p=params, b=barriers, c=cfg):
                est = bk.breach_prob_mc(p, b, s0, c)
                return est, bk.breach_prob_pde(p, b, s0, T, bk.default_grid(p, b, s0, T))

            ops.append(Op(f"breach triangle {shape} {steps}/yr", run, _check_triangle,
                          paths=cfg.paths))

    params = bk.MarketParams(mu=0.05, sigma=0.4 * rng.uniform(0.98, 1.02), r=0.05, T=1.0)
    growth = (0.05, -0.05)
    barriers = bk.BarrierSet(lower=bk.BarrierCurve.exponential(60.0, growth[0]),
                             upper=bk.BarrierCurve.exponential(160.0, growth[1]))
    spec = bk.OptionSpec(payoff=bk.Payoff.CALL, strike=100.0, barriers=barriers)
    cfg = bk.McConfig(paths=sizes["large_paths"], steps_per_year=12, seed=rng.getrandbits(32))
    closed = bk.double_knockout_closed(params, 100.0, 60.0, 160.0, s0, growth).value
    ops.append(Op(
        name="mc_price large pooled",
        run=lambda: bk.mc_price(params, spec, s0, cfg, workers=NPROC),
        check=_z_check(closed),
        paths=cfg.paths,
    ))
    return Workload("breach_ties", ops, dict(sizes, corridors=len(CORRIDORS) * len(CORRIDOR_SHAPES),
                                             workers=NPROC, T=T), streams_memory=True)


# -- desk_closed: the analytic path, no Monte Carlo -------------------------

def _desk_contract(rng: random.Random, i: int, sizes: dict) -> Op:
    kind = ("flat single", "flat double", "exponential double", "tabulated single")[i % 4]
    r = rng.uniform(0.0, 0.10)
    params = bk.MarketParams(mu=r, sigma=rng.uniform(0.10, 0.50), r=r, T=rng.uniform(0.1, 1.0))
    T = params.T
    digits = rng.randint(2, 8)
    pi = 10.0 ** -rng.uniform(2.0, 8.0)
    lo = 100.0 * rng.uniform(0.60, 0.85)
    hi = 100.0 * rng.uniform(1.15, 1.50)
    side = "lower"
    growth = (0.0, 0.0)
    if kind == "flat single":
        side = "lower" if (i // 4) % 2 == 0 else "upper"
        barriers = bk.BarrierSet(lower=bk.BarrierCurve.flat(lo)) if side == "lower" else \
            bk.BarrierSet(upper=bk.BarrierCurve.flat(hi))
    elif kind == "flat double":
        barriers = bk.BarrierSet(lower=bk.BarrierCurve.flat(lo), upper=bk.BarrierCurve.flat(hi))
    elif kind == "exponential double":
        growth = (rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1))
        barriers = bk.BarrierSet(lower=bk.BarrierCurve.exponential(lo, growth[0]),
                                 upper=bk.BarrierCurve.exponential(hi, growth[1]))
    else:
        knots = ((0.0, lo), (T / 2, lo * rng.uniform(0.95, 1.05)), (T, lo * rng.uniform(0.95, 1.05)))
        barriers = bk.BarrierSet(lower=bk.BarrierCurve.tabulated(knots))
    has_l, has_u = barriers.lower is not None, barriers.upper is not None
    # strikes on both sides of the lower barrier's terminal level, half
    # below it, so the mix of work does not depend on the seed
    anchor = barriers.lower.value_at(T, T) if has_l else 100.0
    strike = anchor * (rng.uniform(0.8, 0.98) if (i // 8) % 2 else rng.uniform(1.02, 1.25))
    b_l0 = barriers.lower.value_at(0.0, T) if has_l else None
    b_u0 = barriers.upper.value_at(0.0, T) if has_u else None
    span = math.exp(4.0 * params.sigma * math.sqrt(T))
    a, b = (b_l0 * 1.02 if has_l else b_u0 / span), (b_u0 * 0.98 if has_u else b_l0 * span)
    m = sizes["s0_points"] - 1
    # the first point sits on a barrier: knocked out at inception
    s0s = [b_l0 if has_l else b_u0] + [a + (b - a) * k / max(m - 1, 1) for k in range(m)]
    calibrate = kind == "flat single" and i % sizes["calibrate_every"] == 0
    # every other block of calibrations asks for the double-precision floor,
    # as reproduce_table1 does; on an upper barrier that search fails with
    # the documented NumericsError (the accuracy is not certifiable there)
    theta = bk.FLOOR_THETA if (i // 16) % 2 else 10.0 ** -digits
    barrier = lo if side == "lower" else hi

    def closed(s0: float):
        if kind == "tabulated single":
            return None  # no closed form for a tabulated barrier
        if has_l and has_u:
            return bk.double_knockout_closed(params, strike, lo, hi, s0, growth).value
        if has_l:
            return bk.down_and_out_call_closed(params, strike, lo, s0).value
        return bk.up_and_out_call_closed(params, strike, hi, s0).value

    def run():
        nu = bk.nu_for_accuracy(pi)
        crit = bk.critical_prices(params, barriers, nu)
        rows = []
        for s0 in s0s:
            if has_l and has_u:
                label = bk.classify_double(s0, b_l0, b_u0, crit.s_ml, crit.s_mu)
            elif has_l:
                label = bk.classify_down_and_out(s0, b_l0, crit.s_ml)
            else:
                label = bk.classify_up_and_out(s0, b_u0, crit.s_mu)
            vanilla = bk.bs_vanilla(params, bk.Payoff.CALL, strike, s0).value
            rows.append((s0, label, closed(s0), vanilla))
        calib = None
        if calibrate:
            pricer = bk.down_and_out_call_closed if side == "lower" else bk.up_and_out_call_closed
            s_crit = bk.numeric_critical_price(params, strike, barrier, side, theta, pricer)
            calib = (s_crit, bk.implied_nu(params, barrier, side, s_crit))
        return nu, crit, rows, calib

    def check(result) -> str | None:
        nu, crit, rows, calib = result
        for s0, label, ko, vanilla in rows:
            if ko is None:
                continue
            if not (0.0 <= ko <= vanilla * (1.0 + 1e-9) + 1e-12):
                return f"s0={s0}: knock-out {ko} outside [0, vanilla {vanilla}]"
            if label is bk.Classification.KNOCKED_OUT_AT_INCEPTION and ko != 0.0:
                return f"s0={s0}: knocked out at inception but priced {ko}"
        if calib is not None:
            s_crit, nu_imp = calib
            if not (s_crit > barrier if side == "lower" else s_crit < barrier):
                return f"measured critical price {s_crit} not beyond the {side} barrier {barrier}"
            if not (0.0 < nu_imp <= 20.0):
                return f"implied nu {nu_imp} outside (0, 20]"
        return None

    return Op(f"contract {i} {kind}", run, check)


def _desk_closed(rng: random.Random, sizes: dict) -> Workload:
    ops = [_desk_contract(rng, i, sizes) for i in range(sizes["contracts"])]

    def check_table(rows) -> str | None:
        if len(rows) != 4:
            return f"table1 has {len(rows)} rows"
        for row in rows:
            if not (row.numeric_s_ml > 70.0 and 0.0 < row.implied_nu <= 20.0):
                return f"table1 row {row} fails its range checks"
        return None

    ops.append(Op("reproduce_table1", lambda: bk.reproduce_table1(), check_table))
    return Workload("desk_closed", ops, sizes)


# -- cli: interpreter start and import dominate ------------------------------

def _cli_commands(rng: random.Random, sizes: dict) -> list[list[str]]:
    market = ["--sigma", "0.30", "--r", "0.10", "--T", "0.25"]
    commands = [
        ["classify", "--s0", "110", "--lower", "70", "--sigma", "0.15", "--r", "0.10",
         "--T", "0.25", "--nu", "4.9"],
        ["price", "--s0", "100", "--strike", "100", "--lower", "70", "--upper", "130", *market,
         "--method", "mc", "--paths", str(sizes["mc_paths"]), "--seed", str(rng.getrandbits(32))],
        ["table1", "--csv"],
        ["critical", "--lower", "70", "--upper", "130", *market, "--pi", "1e-6"],
        ["price", "--s0", "100", "--strike", "100", "--lower", "70", "--upper", "130", *market],
        ["breach", "--s0", "100", "--lower", "70", *market],
        ["breach", "--s0", "100", "--lower", "70", *market, "--method", "pde"],
        ["calibrate", "--lower", "70", "--strike", "100", *market, "--theta", "1e-6"],
        ["sweep", "--strike", "100", "--lower", "70", "--sigma", "0.15", "--r", "0.10",
         "--T", "0.25", "--nu", "4.9", "--csv"],
    ]
    return commands[: sizes["commands"]]


def run_cli_in_process(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = bk.cli.run(argv)
    return code, out.getvalue()


def _cli(rng: random.Random, sizes: dict, root: str) -> Workload:
    commands = _cli_commands(rng, sizes)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    expected: dict[int, str] = {}

    def prepare():
        refs = []
        for k, argv in enumerate(commands):
            code, text = run_cli_in_process(argv)
            if code != 0:
                raise RuntimeError(f"in-process reference for {argv[0]} exited {code}")
            expected[k] = text
            refs.append(text)
        return refs

    def make(k: int, argv: list[str]) -> Op:
        op = Op(f"cli {' '.join(argv[:1] + argv[-2:])}", run=None)

        def run():
            with tempfile.TemporaryFile() as err:
                proc = subprocess.Popen([sys.executable, "-m", "barrierkit", *argv], cwd=root,
                                        env=env, stdout=subprocess.PIPE, stderr=err)
                timer = threading.Timer(120.0, proc.kill)
                timer.start()
                try:
                    out = proc.stdout.read()
                    proc.stdout.close()
                    _, status, usage = os.wait4(proc.pid, 0)
                finally:
                    timer.cancel()
                proc.returncode = os.waitstatus_to_exitcode(status)
                op.child_rss_kb = usage.ru_maxrss
                if proc.returncode != 0:
                    err.seek(0)
                    raise RuntimeError(f"exit {proc.returncode}: {err.read().decode()[-300:]}")
            return out.decode()

        def check(text: str) -> str | None:
            if text != expected[k]:
                return "stdout differs from the in-process result"
            return None

        op.run, op.check = run, check
        op.paths = sizes["mc_paths"] if "--method" in argv and "mc" in argv else 0
        return op

    ops = [make(k, argv) for k, argv in enumerate(commands)]
    return Workload("cli", ops, dict(sizes), prepare=prepare, uses_children=True,
                    notes={"commands": [" ".join(c) for c in commands]})
