"""End-to-end checks of the shipped claims, one test per claim.

Each test pins the tolerance it was promised with. Where a measured
number has an independent high-precision oracle (oracles.py), the test
checks the library against that oracle. Reference values quoted by the
source that the oracles contradict are kept and asserted as deviations:
the onset prices 77.182 / 97.000 and their implied nu 0.76 / 2.267 are
points where the barrier still moves the price by theta/2 or more, and
the floor-calibration nu 4.347 lies where the two double prices are
already equal. Only the last one is a double-precision effect; the
README's "Known deviations" section carries the analysis.
"""

import math
import random
import time
from dataclasses import astuple

import pytest

from barrierkit import McConfig
from barrierkit.calibrate import (
    BISECT_TOL_S,
    implied_nu,
    numeric_critical_price,
    reproduce_table1,
)
from barrierkit.classify import (
    classify_double,
    classify_down_and_out,
    classify_up_and_out,
)
from barrierkit.cli import _PRECISION_NOTE, run
from barrierkit.critical import critical_curve, critical_prices, prob_inside
from barrierkit.model import (
    BarrierCurve,
    BarrierSet,
    Classification,
    MarketParams,
    OptionSpec,
    Payoff,
)
from barrierkit.numerics import std_normal_cdf
from barrierkit.passage import breach_prob_mc, breach_prob_pde, default_grid
from barrierkit.pricing.closed import (
    breach_prob_closed,
    bs_vanilla,
    double_knockout_closed,
    down_and_out_call_closed,
    up_and_out_call_closed,
)
from barrierkit.pricing.mc import mc_price
from oracles import (
    FLOOR_CROSSINGS,
    QUOTED_FLOOR_NU,
    QUOTED_ONSETS,
    crossing,
)


def _mkt(T, sigma, r=0.10):
    return MarketParams(mu=r, sigma=sigma, r=r, T=T)


def _flat(params, nu, lower=None, upper=None):
    """critical_prices on flat barriers at the given levels."""
    return critical_prices(params, BarrierSet(
        lower=None if lower is None else BarrierCurve.flat(lower),
        upper=None if upper is None else BarrierCurve.flat(upper)), nu)


def test_a1_flat_lower_critical_reference_values():
    """Analytic worthlessness thresholds for a flat 70 barrier at nu=4.9."""
    t0 = time.perf_counter()
    got = {
        (T, sigma): _flat(_mkt(T, sigma), 4.9, lower=70.0).s_ml
        for (T, sigma) in ((0.25, 0.15), (0.25, 0.30), (0.50, 0.15), (0.50, 0.30))
    }
    elapsed = time.perf_counter() - t0
    assert got[(0.25, 0.15)] == pytest.approx(98.87, abs=0.01)
    assert got[(0.25, 0.30)] == pytest.approx(144.00, abs=0.01)
    assert got[(0.50, 0.15)] == pytest.approx(112.60, abs=0.01)
    # the commonly quoted 192.00 for the last row sits ~0.29% below the
    # exact evaluation 192.5666; accept it at the half-percent level and
    # leave the discrepancy documented (README, "Known deviations")
    own = got[(0.50, 0.30)]
    assert own == pytest.approx(192.566627435925147, rel=1e-12)
    assert abs(192.00 - own) / own < 0.005, (
        f"quoted 192.00 vs evaluated {own:.4f}: "
        f"{abs(192.00 - own) / own:.3%} exceeds 0.5%"
    )
    assert elapsed < 0.1


def test_a2_measured_worthlessness_onset_prices():
    """Onset prices and implied nu at two-digit and six-digit accuracy."""
    params = _mkt(0.25, 0.30)
    t0 = time.perf_counter()
    s_2 = numeric_critical_price(params, 100.0, 70.0, "lower", 1e-2,
                                 down_and_out_call_closed)
    s_6 = numeric_critical_price(params, 100.0, 70.0, "lower", 1e-6,
                                 down_and_out_call_closed)
    nu_2 = implied_nu(params, 70.0, "lower", s_2)
    nu_6 = implied_nu(params, 70.0, "lower", s_6)
    elapsed = time.perf_counter() - t0
    (s_ref_2, nu_ref_2), (s_ref_6, nu_ref_6) = crossing(1e-2), crossing(1e-6)
    assert s_2 == pytest.approx(s_ref_2, abs=0.01)
    assert s_6 == pytest.approx(s_ref_6, abs=0.01)
    assert nu_2 == pytest.approx(nu_ref_2, abs=0.02)
    assert nu_6 == pytest.approx(nu_ref_6, abs=0.02)
    assert elapsed < 5.0
    # deviation: the source's quoted onsets are not onsets; the barrier
    # still moves the price by theta/2 or more there (README 'Known
    # deviations'), and the quoted nu merely invert the quoted prices
    for theta, s_quoted, nu_quoted, gap_exact in QUOTED_ONSETS:
        gap = abs(down_and_out_call_closed(params, 100.0, 70.0, s_quoted).value
                  - bs_vanilla(params, Payoff.CALL, 100.0, s_quoted).value)
        assert gap == pytest.approx(gap_exact, rel=1e-6)
        assert gap >= 0.5 * theta, (
            f"quoted onset {s_quoted} at theta={theta}: gap {gap:.3e}"
        )
        assert implied_nu(params, 70.0, "lower", s_quoted) == pytest.approx(
            nu_quoted, abs=0.02)


def test_a3_floor_calibration_implied_nu(capsys):
    """Implied nu of the four-row calibration at the quantization floor."""
    rows = [astuple(row) for row in reproduce_table1()]
    nus = {(T, sigma): nu for (T, sigma, _, _, nu) in rows}
    nu_11, nu_13 = nus[(0.25, 0.15)], nus[(0.25, 0.30)]
    nu_21, nu_23 = nus[(0.50, 0.15)], nus[(0.50, 0.30)]
    # high-sigma rows need more than double precision to pin exactly, so
    # they are held to qualitative bounds: past the 4.9 design point and
    # increasing with sigma
    assert nu_13 > 4.9 and nu_23 > 4.9
    assert nu_13 > nu_11 and nu_23 > nu_21
    # the measurement must announce its own precision floor
    code = run(["table1", "--csv"])
    captured = capsys.readouterr()
    assert code == 0
    assert _PRECISION_NOTE in captured.err
    assert nu_21 == pytest.approx(4.850, abs=0.05)
    # the first row against the half-ulp floor oracle
    s_ref, nu_ref = FLOOR_CROSSINGS[(0.25, 0.15)]
    assert nu_11 == pytest.approx(nu_ref, abs=0.05)
    # deviation: the quoted nu 4.347 maps to a start price inside the
    # saturated region, where the two double prices are already equal,
    # so no measurement at the floor can return it (README 'Known
    # deviations')
    params = _mkt(0.25, 0.15)
    s_quoted = _flat(params, QUOTED_FLOOR_NU, lower=70.0).s_ml
    assert s_quoted > s_ref
    assert (down_and_out_call_closed(params, 100.0, 70.0, s_quoted).value
            == bs_vanilla(params, Payoff.CALL, 100.0, s_quoted).value)


def test_a4_critical_curve_probability_round_trip():
    """Start on the critical curve: stay-side probability equals Phi(nu)."""
    params = _mkt(0.25, 0.30)
    lower, upper = BarrierCurve.flat(70.0), BarrierCurve.flat(130.0)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(10):
        t = params.T * (i + 1) / 10.0
        for j in range(10):
            nu = 0.8 * j
            phi = std_normal_cdf(nu)
            s_l = critical_curve(params, lower, nu, t, "lower")
            s_u = critical_curve(params, upper, nu, t, "upper")
            worst = max(
                worst,
                abs(prob_inside(params, lower, s_l, t, "lower") - phi),
                abs(prob_inside(params, upper, s_u, t, "upper") - phi),
            )
    elapsed = time.perf_counter() - t0
    assert worst < 1e-12
    assert elapsed < 0.1


def test_a5_classification_partition_on_random_inputs():
    """10^5 random setups: one label each, consistent and monotone."""
    rng = random.Random(20260817)
    t0 = time.perf_counter()
    seen = set()
    for _ in range(100_000):
        params = _mkt(rng.uniform(0.05, 2.0), rng.uniform(0.05, 0.60),
                      rng.uniform(0.0, 0.20))
        nu = rng.uniform(0.0, 8.0)
        kind = rng.randrange(3)
        if kind == 0:
            b = rng.uniform(20.0, 180.0)
            s_ml = _flat(params, nu, lower=b).s_ml
            s0 = b * rng.uniform(0.25, 4.0)
            label = classify_down_and_out(s0, b, s_ml)
            preds = (s0 <= b, b < s0 < s_ml, b < s0 and s0 >= s_ml)
            want = (Classification.KNOCKED_OUT_AT_INCEPTION,
                    Classification.DOWN_AND_OUT, Classification.VANILLA)
            if label is Classification.VANILLA:
                up = s0 * rng.uniform(1.0, 3.0)
                assert classify_down_and_out(up, b, s_ml) is Classification.VANILLA
        elif kind == 1:
            b = rng.uniform(20.0, 180.0)
            s_mu = _flat(params, nu, upper=b).s_mu
            s0 = b * rng.uniform(0.25, 4.0)
            label = classify_up_and_out(s0, b, s_mu)
            preds = (s0 >= b, s_mu < s0 < b, s0 < b and s0 <= s_mu)
            want = (Classification.KNOCKED_OUT_AT_INCEPTION,
                    Classification.UP_AND_OUT, Classification.VANILLA)
            if label is Classification.VANILLA:
                down = s0 * rng.uniform(1.0 / 3.0, 1.0)
                assert classify_up_and_out(down, b, s_mu) is Classification.VANILLA
        else:
            b_l = rng.uniform(20.0, 120.0)
            b_u = b_l * math.exp(rng.uniform(0.08, 1.5))
            crit = _flat(params, nu, lower=b_l, upper=b_u)
            s_ml, s_mu = crit.s_ml, crit.s_mu
            s0 = rng.uniform(0.5 * b_l, 1.5 * b_u)
            label = classify_double(s0, b_l, b_u, s_ml, s_mu)
            alive = b_l < s0 < b_u
            lo_dead = alive and s0 >= s_ml
            up_dead = alive and s0 <= s_mu
            preds = (not alive, lo_dead and up_dead, lo_dead and not up_dead,
                     up_dead and not lo_dead,
                     alive and not lo_dead and not up_dead)
            want = (Classification.KNOCKED_OUT_AT_INCEPTION,
                    Classification.VANILLA, Classification.UP_AND_OUT,
                    Classification.DOWN_AND_OUT,
                    Classification.TYPICAL_DOUBLE_BARRIER)
            # a worthless side reduces the corridor to the single-barrier case
            if s0 <= s_mu:
                assert label is classify_down_and_out(s0, b_l, s_ml)
            if s0 >= s_ml:
                assert label is classify_up_and_out(s0, b_u, s_mu)
        assert sum(preds) == 1
        assert label is want[preds.index(True)]
        seen.add(label)
    elapsed = time.perf_counter() - t0
    assert len(seen) >= 4
    assert elapsed < 5.0


def test_a6_closed_forms_match_monte_carlo():
    """All four closed forms sit within 3 standard errors of bridged MC."""
    sets = [
        (0.25, 0.15, 0.10, 70.0, 130.0),
        (0.25, 0.30, 0.10, 70.0, 130.0),
        (0.50, 0.15, 0.10, 70.0, 130.0),
        (0.50, 0.30, 0.10, 70.0, 130.0),
        (0.25, 0.20, 0.05, 90.0, 115.0),
    ]
    strike, s0 = 100.0, 100.0
    t0 = time.perf_counter()
    bad = []
    for i, (T, sigma, r, lo, hi) in enumerate(sets):
        params = _mkt(T, sigma, r)
        lower, upper = BarrierCurve.flat(lo), BarrierCurve.flat(hi)
        cases = [
            ("vanilla", BarrierSet(),
             bs_vanilla(params, Payoff.CALL, strike, s0)),
            ("down-and-out", BarrierSet(lower=lower),
             down_and_out_call_closed(params, strike, lo, s0)),
            ("up-and-out", BarrierSet(upper=upper),
             up_and_out_call_closed(params, strike, hi, s0)),
            ("double", BarrierSet(lower=lower, upper=upper),
             double_knockout_closed(params, strike, lo, hi, s0, (0.0, 0.0))),
        ]
        for j, (name, barriers, closed) in enumerate(cases):
            spec = OptionSpec(payoff=Payoff.CALL, strike=strike, barriers=barriers)
            cfg = McConfig(paths=1_000_000, steps_per_year=200,
                           seed=1000 + 10 * i + j)
            est = mc_price(params, spec, s0, cfg)
            z = (est.value - closed.value) / est.std_error
            if abs(z) > 3.0:
                bad.append(f"set {i} {name}: z={z:+.2f}")
    assert not bad, "; ".join(bad)
    # collapsing one side of the corridor must recover the one-barrier forms
    for T, sigma in ((0.25, 0.30), (0.50, 0.15)):
        params = _mkt(T, sigma)
        no_lower = double_knockout_closed(params, strike, 1e-3, 130.0, s0, (0.0, 0.0))
        no_upper = double_knockout_closed(params, strike, 70.0, 1e6, s0, (0.0, 0.0))
        assert no_lower.value == pytest.approx(
            up_and_out_call_closed(params, strike, 130.0, s0).value, abs=1e-8)
        assert no_upper.value == pytest.approx(
            down_and_out_call_closed(params, strike, 70.0, s0).value, abs=1e-8)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"a6 took {elapsed:.1f} s, over its 60 s bound"


def test_a7_first_passage_triangle():
    """Closed-form breach probability vs the grid solver and bridged MC."""
    params = _mkt(0.25, 0.30)
    T, s0 = 0.25, 100.0
    t0 = time.perf_counter()
    cfg = McConfig(paths=200_000, steps_per_year=200, seed=21)
    for side, level in (("lower", 70.0), ("upper", 130.0)):
        curve = BarrierCurve.flat(level)
        barriers = (BarrierSet(lower=curve) if side == "lower"
                    else BarrierSet(upper=curve))
        exact = breach_prob_closed(params, barriers, s0)
        errors = []
        for n in (100, 200, 400):
            grid = default_grid(params, barriers, s0, T, n_space=n, n_time=n)
            errors.append(abs(breach_prob_pde(params, barriers, s0, T, grid) - exact))
        assert errors[-1] < 1e-3
        for coarse, fine in zip(errors, errors[1:]):
            order = math.log2(coarse / fine)
            assert order >= 1.0, f"{side}: observed order {order:.2f} under doubling"
        est = breach_prob_mc(params, barriers, s0, cfg)
        p, se = ((est.p_lower, est.se_lower) if side == "lower"
                 else (est.p_upper, est.se_upper))
        assert abs(p - exact) <= 3.0 * se
    assert time.perf_counter() - t0 < 30.0


def test_a8_onset_sweep_at_six_digit_accuracy():
    """Above the six-digit onset price the barrier must not move the price."""
    params = _mkt(0.25, 0.30)
    strike, level, theta = 100.0, 70.0, 1e-6
    # the oracle crossing plus the method's resolution: exactly at the
    # crossing the float gap rounds to 5.0000000051e-7, still >= theta/2
    s_ref = crossing(theta)[0]
    onset = s_ref + BISECT_TOL_S
    t0 = time.perf_counter()

    def gap(s0):
        dao = down_and_out_call_closed(params, strike, level, s0).value
        vanilla = bs_vanilla(params, Payoff.CALL, strike, s0).value
        return abs(dao - vanilla)

    # just below the onset the barrier is still visible at this accuracy
    assert gap(s_ref - 0.1) >= 0.5 * theta
    far = onset * math.exp(10.0 * params.sigma * math.sqrt(params.T))
    violations = [
        (s0, gap(s0))
        for s0 in (onset + (far - onset) * i / 63.0 for i in range(64))
        if gap(s0) >= 0.5 * theta
    ]
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    assert not violations, (
        f"barrier still visible at or above the oracle onset {onset:.6f}: "
        + ", ".join(f"s0={s:.3f} gap={g:.3e}" for s, g in violations[:4])
    )


def test_a9_monte_carlo_worker_determinism():
    """Thread count must not leak into the estimate: bit-equal results."""
    params = _mkt(0.25, 0.30)
    barriers = BarrierSet(lower=BarrierCurve.flat(70.0),
                          upper=BarrierCurve.flat(130.0))
    spec = OptionSpec(payoff=Payoff.CALL, strike=100.0, barriers=barriers)
    cfg = McConfig(paths=100_000, steps_per_year=200, seed=123)
    runs = [mc_price(params, spec, 100.0, cfg, workers=w) for w in (1, 2, 8)]
    assert runs[0].value == runs[1].value == runs[2].value
    assert runs[0].std_error == runs[1].std_error == runs[2].std_error
