"""First-breach probabilities: reflection form, bridged MC, and the PDE."""

import math
import random
from dataclasses import replace

import mpmath as mp
import pytest

from barrierkit import McConfig
from barrierkit.model import (BarrierCurve, BarrierOrderError, BarrierSet, DomainError, MarketParams,
                              NumericsError, OptionSpec, Payoff)
from barrierkit.passage import (
    BreachEstimate,
    PdeGrid,
    _reachable,
    breach_prob_mc,
    breach_prob_pde,
    default_grid,
)
from barrierkit.pricing.closed import _leg, breach_prob_closed, double_knockout_closed
from barrierkit.critical import critical_prices, prob_inside
from barrierkit.numerics import std_normal_cdf
from barrierkit.pricing.mc import mc_price
from oracles import (BREACH_EXPONENTIAL, BREACH_FAR_CORRIDOR, BREACH_UNDER_STEEP_DRIFT,
                     CORRIDOR_BREACH, KNOCKOUT_OVER_TAIL_AT_S_ML)


def mk_params(sigma=0.30, T=0.25, r=0.10):
    return MarketParams(mu=r, sigma=sigma, r=r, T=T)


DKO = BarrierSet(lower=BarrierCurve.flat(70.0), upper=BarrierCurve.flat(130.0))


def _flat(p, side, level, s0=100.0):
    """The closed breach probability of one flat barrier."""
    return breach_prob_closed(p, BarrierSet(**{side: BarrierCurve.flat(level)}), s0)


def _breach_exponential(p, side, level, g, s0=100.0):
    """Exact P(breach of level*exp(g*t) before T): a line in log space, so
    the flat barrier's breach under the drift mu - g."""
    return _flat(replace(p, mu=p.mu - g), side, level, s0)


def _survival_mass(p, lower, g_l, upper, g_u, s0=100.0):
    """P(no breach of L*exp(g_l*t) or U*exp(g_u*t) before T), from the image series.

    Below the terminal lower level the double knock-out is
    disc*(s0*A - K*C), so two such strikes give the survival mass C.
    """
    k1, k2 = 1.0, 2.0
    v1, v2 = (double_knockout_closed(p, k, lower, upper, s0, (g_l, g_u)).value for k in (k1, k2))
    return (v1 - v2) / (math.exp(-p.r * p.T) * (k2 - k1))


class TestClosedFlat:
    def test_reference_values(self):
        # frozen from a 40-digit evaluation of the reflection formula
        p = mk_params()
        assert _flat(p, "lower", 70.0) == pytest.approx(
            0.0139574222952663369, rel=1e-13
        )
        assert _flat(p, "upper", 130.0) == pytest.approx(
            0.0939553073710373159, rel=1e-13
        )

    def test_tiny_but_positive_at_critical_price(self):
        # started on the degeneracy threshold the breach chance is around
        # one in a million, not zero: degenerate pricing is approximate
        p = mk_params(sigma=0.15)
        prob = _flat(p, "lower", 70.0, 98.870186482869048)
        assert prob == pytest.approx(1.0187340708570643e-6, rel=1e-12, abs=0)
        assert prob > 0.0

    @pytest.mark.parametrize("T, sigma, nu", sorted(KNOCKOUT_OVER_TAIL_AT_S_ML))
    def test_knockout_at_s_ml_is_about_twice_the_tail(self, T, sigma, nu):
        # the paper's criterion bounds the pointwise tail Phi(-nu), not the
        # chance of touching the barrier first (README, "Known deviations")
        p = mk_params(sigma=sigma, T=T)
        s_ml = critical_prices(p, BarrierSet(lower=BarrierCurve.flat(70.0)), nu).s_ml
        ratio = _flat(p, "lower", 70.0, s_ml) / std_normal_cdf(-nu)
        assert ratio == pytest.approx(KNOCKOUT_OVER_TAIL_AT_S_ML[(T, sigma, nu)], rel=1e-13)
        assert 2.03 < ratio < 2.39

    @pytest.mark.parametrize("side, barrier, r", sorted(BREACH_UNDER_STEEP_DRIFT))
    def test_steep_drift_past_the_weight_overflow(self, side, barrier, r):
        # the reflection weight (B/s0)^(2*mu1/sigma^2) passes e^700, the
        # breach probability does not
        p = MarketParams(mu=r, sigma=0.05, r=r, T=1.0)
        got = _flat(p, side, barrier)
        assert got == pytest.approx(BREACH_UNDER_STEEP_DRIFT[(side, barrier, r)], rel=1e-14)

    @pytest.mark.parametrize("log_w", [650.0, 699.9, 700.1, 750.0, 5000.0])
    def test_reflected_term_either_side_of_the_switch(self, log_w):
        # w * Phi(b) with w = phi(a) / phi(b), the leg the breach form
        # takes: from the weight up to e^700, from phi(a) and the Mills
        # ratio past it (t = log_w - b^2/2 = -a^2/2), each exact at its inputs
        a = 0.3
        b = -math.sqrt(a * a + 2.0 * log_w)
        with mp.workdps(30):
            w = mp.exp(log_w) if log_w <= 700.0 else mp.npdf(a) / mp.npdf(b)
            want = w * mp.ncdf(b)
        got = _leg(0.0, log_w, -math.inf, -0.5 * a * a, -math.inf, b, 1.0)
        # up to e^700 the leg is the plain product e^w * Phi(b); an ulp of
        # b moves Phi(b) near 1e-300 by about b^2 ulps (b^2 ~ 1400), so the
        # bound there is b^2 * 2^-52 relative, against 1e-14 for the Mills branch
        rel = b * b * 2.0**-52 if log_w <= 700.0 else 1e-14
        assert got == pytest.approx(float(want), rel=rel, abs=0)

    def test_edges(self):
        p = mk_params()
        assert _flat(p, "lower", 70.0, 70.0) == 1.0
        assert _flat(p, "upper", 130.0, 130.0) == 1.0
        assert breach_prob_closed(p, DKO, 70.0) == breach_prob_closed(p, DKO, 130.0) == 1.0

    def test_monotone_in_horizon_and_distance(self):
        p = mk_params()
        probs = [_flat(replace(p, T=t), "lower", 70.0) for t in (0.1, 0.2, 0.25)]
        assert all(b > a for a, b in zip(probs, probs[1:]))
        probs = [_flat(p, "lower", b) for b in (60.0, 70.0, 80.0)]
        assert all(b > a for a, b in zip(probs, probs[1:]))

    def test_bounded_below_by_terminal_probability(self):
        # breaching by T includes every path that also ends beyond the
        # barrier, so the first-passage mass dominates the terminal mass
        p = mk_params()
        lo = BarrierCurve.flat(70.0)
        terminal_below = 1.0 - prob_inside(p, lo, 100.0, 0.25, "lower")
        assert _flat(p, "lower", 70.0) >= terminal_below

    def test_domain(self):
        p = mk_params()
        with pytest.raises(DomainError):
            breach_prob_closed(p, BarrierSet(), 100.0)
        with pytest.raises(DomainError):
            _flat(p, "lower", 70.0, 60.0)  # past the barrier
        with pytest.raises(DomainError):
            _flat(p, "upper", 130.0, 140.0)
        with pytest.raises(DomainError):
            _flat(p, "lower", -70.0)
        with pytest.raises(DomainError, match="flat or exponential"):
            breach_prob_closed(p, BarrierSet(lower=BarrierCurve.tabulated([(0, 70), (1, 80)])), 100.0)
        with pytest.raises(BarrierOrderError):  # 70*e^(4*T) passes 130 before T
            breach_prob_closed(p, BarrierSet(lower=BarrierCurve.exponential(70.0, 4.0),
                                             upper=BarrierCurve.flat(130.0)), 100.0)
        for T in (-1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                _flat(replace(p, T=T), "lower", 70.0)


class TestClosedSets:
    """breach_prob_closed on exponential barriers and corridors."""

    @pytest.mark.parametrize("side, level, g", sorted(BREACH_EXPONENTIAL))
    def test_exponential_barrier_against_oracle(self, side, level, g):
        p = MarketParams(mu=0.1, sigma=0.3, r=0.1, T=0.5)
        got = breach_prob_closed(p, BarrierSet(**{side: BarrierCurve.exponential(level, g)}), 100.0)
        assert got == pytest.approx(BREACH_EXPONENTIAL[(side, level, g)], rel=1e-13)

    @pytest.mark.parametrize("row", sorted(CORRIDOR_BREACH))
    def test_corridor_against_oracle(self, row):
        r, sigma, T, lower, upper, g_l, g_u = row
        p = MarketParams(mu=r, sigma=sigma, r=r, T=T)
        bs = BarrierSet(lower=BarrierCurve.exponential(lower, g_l),
                        upper=BarrierCurve.exponential(upper, g_u))
        assert breach_prob_closed(p, bs, 100.0) == pytest.approx(CORRIDOR_BREACH[row], rel=1e-14)

    def test_far_corridor_keeps_its_digits(self):
        # one minus the survival mass is 0 here; the knocked-out mass,
        # summed as it stands, is 7.2e-169
        p = MarketParams(mu=0.0, sigma=0.05, r=0.0, T=0.25)
        bs = BarrierSet(lower=BarrierCurve.flat(50.0), upper=BarrierCurve.flat(200.0))
        assert 1.0 - _survival_mass(p, 50.0, 0.0, 200.0, 0.0) == 0.0
        assert breach_prob_closed(p, bs, 100.0) == pytest.approx(BREACH_FAR_CORRIDOR, rel=1e-12, abs=0.0)

    def test_agrees_with_the_identity_references(self):
        # a single exponential barrier against the flat one under the
        # drift mu - g, a corridor against one minus the two-strike survival
        rng = random.Random(18)
        for i in range(300):
            r = rng.uniform(-1.0, 1.0)
            p = MarketParams(mu=r, sigma=rng.uniform(0.05, 1.0), r=r, T=rng.uniform(0.05, 2.0))
            lower, upper = rng.uniform(50.0, 95.0), rng.uniform(105.0, 200.0)
            g_l, g_u = rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)
            for side, level, g in (("lower", lower, g_l), ("upper", upper, g_u)):
                got = breach_prob_closed(p, BarrierSet(**{side: BarrierCurve.exponential(level, g)}), 100.0)
                assert got == pytest.approx(_breach_exponential(p, side, level, g), abs=5e-14), i
            if lower * math.exp(g_l * p.T) < upper * math.exp(g_u * p.T):
                bs = BarrierSet(lower=BarrierCurve.exponential(lower, g_l),
                                upper=BarrierCurve.exponential(upper, g_u))
                exact = 1.0 - _survival_mass(p, lower, g_l, upper, g_u)
                assert breach_prob_closed(p, bs, 100.0) == pytest.approx(exact, abs=5e-14), i

    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_single_barrier_against_mpmath(self, side):
        # 400 random flat or exponential barriers per side, each against
        # the reflection form under the drift mu - g at 40 digits
        rng = random.Random(0 if side == "lower" else 1)
        for i in range(400):
            r, sigma, T = rng.uniform(-1.0, 1.0), rng.uniform(0.05, 1.0), rng.uniform(0.05, 2.0)
            g = rng.choice([0.0, rng.uniform(-0.5, 0.5)])
            level = 100.0 * math.exp(rng.uniform(0.01, 1.5) * (-1.0 if side == "lower" else 1.0))
            with mp.workdps(40):
                s2, h = mp.mpf(sigma)**2, mp.log(mp.mpf(level) / 100)
                m1, srt = r - g - s2 / 2, sigma * mp.sqrt(T)
                lr, d = (h, m1 * T) if side == "lower" else (-h, -m1 * T)
                want = mp.ncdf((lr - d) / srt) + mp.exp(2 * m1 * h / s2) * mp.ncdf((lr + d) / srt)
            p = MarketParams(mu=r, sigma=sigma, r=r, T=T)
            got = breach_prob_closed(p, BarrierSet(**{side: BarrierCurve.exponential(level, g)}), 100.0)
            assert abs(got - want) <= 5e-13 * want + 1e-300, (i, got, want)

class TestMc:
    @pytest.mark.parametrize("barriers,s0", [
        (BarrierSet(lower=BarrierCurve.flat(130.0), upper=BarrierCurve.flat(70.0)), 100.0),
        (BarrierSet(lower=BarrierCurve.exponential(90.0, 2.0), upper=BarrierCurve.flat(110.0)), 85.0),
    ], ids=["swapped-flat", "lower-crosses-upper"])
    @pytest.mark.parametrize("method", ["mc_price", "breach_prob_mc"])
    def test_crossed_set_is_refused_before_inception(self, barriers, s0, method):
        # s0 is past the lower line at t = 0 in both sets, but the set
        # itself is refused first, as the closed forms and the PDE refuse
        # it; 90*e^(2t) passes 110 at t = 0.1, before T
        p, cfg = mk_params(), McConfig(paths=100, steps_per_year=12, seed=0)
        with pytest.raises(BarrierOrderError):
            if method == "mc_price":
                mc_price(p, OptionSpec(payoff=Payoff.CALL, strike=100.0, barriers=barriers), s0, cfg)
            else:
                breach_prob_mc(p, barriers, s0, cfg)

    def test_double_barrier_sides_against_closed(self):
        # single-sided reflection values bound each side from above; the
        # totals still agree closely because double-counting is rare here
        p = mk_params()
        est = breach_prob_mc(p, DKO, 100.0, McConfig(paths=100_000, steps_per_year=200, seed=19))
        lo = _flat(p, "lower", 70.0)
        up = _flat(p, "upper", 130.0)
        assert est.p_lower <= lo + 3.0 * est.se_lower
        assert est.p_upper <= up + 3.0 * est.se_upper
        assert abs(est.p_lower - lo) <= 4.0 * est.se_lower + 1e-4
        assert abs(est.p_upper - up) <= 4.0 * est.se_upper + 1e-4

    def test_single_barrier_matches_closed(self):
        p = mk_params()
        bs = BarrierSet(lower=BarrierCurve.flat(85.0))
        est = breach_prob_mc(p, bs, 100.0, McConfig(paths=100_000, steps_per_year=200, seed=29))
        ref = _flat(p, "lower", 85.0)
        assert abs(est.p_lower - ref) <= 3.0 * est.se_lower
        assert est.p_upper == 0.0
        assert est.se_upper == 0.0

    def test_unequal_growth_corridor_matches_closed(self):
        p = mk_params()
        bs = BarrierSet(lower=BarrierCurve.exponential(70.0, 0.4),
                        upper=BarrierCurve.exponential(130.0, -0.3))
        est = breach_prob_mc(p, bs, 100.0, McConfig(paths=100_000, steps_per_year=200, seed=31))
        exact = breach_prob_closed(p, bs, 100.0)
        assert abs(est.p_total - exact) <= 3.0 * est.se_total

    def test_total_standard_error_is_taken_path_by_path(self):
        # pinched to 90/110, nearly every path leaves the corridor one way
        # or the other: the sides' masses are strongly anti-correlated, so
        # p_total's error is far below hypot(se_lower, se_upper) (2.2e-3)
        p = mk_params()
        bs = BarrierSet(lower=BarrierCurve.exponential(90.0, 0.4),
                        upper=BarrierCurve.exponential(110.0, -0.3))
        est = breach_prob_mc(p, bs, 100.0, McConfig(paths=100_000, steps_per_year=200, seed=31))
        assert est.se_total < 1e-8
        assert abs(est.p_total - breach_prob_closed(p, bs, 100.0)) <= 3.0 * est.se_total
        # one side alone: the total is that side, bit for bit
        cfg = McConfig(paths=5_000, steps_per_year=50, seed=3)
        one = breach_prob_mc(p, BarrierSet(lower=BarrierCurve.flat(85.0)), 100.0, cfg)
        assert (one.p_total, one.se_total) == (one.p_lower, one.se_lower)
        one = breach_prob_mc(p, BarrierSet(upper=BarrierCurve.flat(115.0)), 100.0, cfg)
        assert (one.p_total, one.se_total) == (one.p_upper, one.se_upper)

    def test_exclusive_events(self):
        p = mk_params()
        est = breach_prob_mc(p, DKO, 100.0, McConfig(paths=20_000, steps_per_year=100, seed=3))
        assert isinstance(est, BreachEstimate)
        assert 0.0 <= est.p_total <= 1.0

    def test_domain(self):
        p = mk_params()
        with pytest.raises(DomainError):
            breach_prob_mc(p, BarrierSet(), 100.0, McConfig(paths=100, steps_per_year=10))
        # on a barrier at inception is a certain breach; past one is invalid
        est = breach_prob_mc(p, DKO, 70.0, McConfig(paths=100, steps_per_year=10))
        assert (est.p_lower, est.se_lower, est.p_upper, est.se_upper) == (1.0, 0.0, 0.0, 0.0)
        assert est.se_total == 0.0
        est = breach_prob_mc(p, DKO, 130.0, McConfig(paths=100, steps_per_year=10))
        assert (est.p_lower, est.p_upper, est.p_total) == (0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            breach_prob_mc(p, DKO, 69.0, McConfig(paths=100, steps_per_year=10))
        with pytest.raises(DomainError):
            breach_prob_mc(p, DKO, 131.0, McConfig(paths=100, steps_per_year=10))


def _pde_pin_cases():
    """Inputs whose breach_prob_pde results are frozen bit for bit in PDE_PINS."""
    p, T = mk_params(), 0.25
    lower, upper = BarrierSet(lower=BarrierCurve.flat(70.0)), BarrierSet(upper=BarrierCurve.flat(130.0))
    # 0.1037 and 0.0601 fall between the uniform time nodes k*T/400
    tab_lower = BarrierCurve.tabulated([(0.0, 70.0), (0.1037, 85.0), (0.25, 75.0)])
    tab_upper = BarrierCurve.tabulated([(0.0, 130.0), (0.0601, 118.0), (0.25, 125.0)])
    exp_pair = BarrierSet(lower=BarrierCurve.exponential(70.0, 0.4),
                          upper=BarrierCurve.exponential(130.0, -0.3))
    sweep = BarrierSet(lower=BarrierCurve.exponential(70.0, 3.0), upper=BarrierCurve.flat(150.0))
    far_upper = BarrierSet(lower=BarrierCurve.flat(70.0), upper=BarrierCurve.flat(1e300))
    down = MarketParams(mu=-2.0, sigma=0.1, r=0.1, T=T)
    long = mk_params(sigma=0.2, T=2.0, r=-0.05)
    cases = {
        "flat lower": (p, lower, T, None),
        "flat upper": (p, upper, T, None),
        "flat corridor": (p, DKO, T, None),
        "exponential lower": (p, BarrierSet(lower=BarrierCurve.exponential(70.0, 0.1)), T, None),
        "exponential upper": (p, BarrierSet(upper=BarrierCurve.exponential(130.0, -0.2)), T, None),
        "exponential corridor": (p, exp_pair, T, None),
        "tabulated lower off the nodes": (p, BarrierSet(lower=tab_lower), T, None),
        "tabulated corridor off the nodes": (p, BarrierSet(lower=tab_lower, upper=tab_upper), T, None),
        "16 x 16 corridor": (p, DKO, T, PdeGrid(s_min=50.0, s_max=200.0, n_space=16, n_time=16)),
        "sweeping lower": (p, sweep, T, None),
        "far upper left out": (p, far_upper, T, default_grid(p, lower, 100.0, T)),
        "downward drift": (down, lower, T, None),
        "two years, exponential corridor": (long, BarrierSet(
            lower=BarrierCurve.exponential(70.0, 0.1), upper=BarrierCurve.exponential(140.0, -0.05)),
            2.0, None),
    }
    return {name: (q, bs, t, grid or default_grid(q, bs, 100.0, t))
            for name, (q, bs, t, grid) in cases.items()}


# float.hex of each result, recorded with scipy.linalg.solve_banded as the step
# solver; it runs the same LAPACK dgtsv, so the march's arithmetic alone moves them
PDE_PINS = {
    "flat lower": "0x1.c9bee61b26145p-7",
    "flat upper": "0x1.80e67c06b8f74p-4",
    "flat corridor": "0x1.ba0a61d31dab2p-4",
    "exponential lower": "0x1.5486f42313db4p-6",
    "exponential upper": "0x1.4471d7159f8d0p-3",
    "exponential corridor": "0x1.09f8f03149d59p-2",
    "tabulated lower off the nodes": "0x1.f7f2f6a356c1fp-4",
    "tabulated corridor off the nodes": "0x1.4fb9aa6488244p-2",
    "16 x 16 corridor": "0x1.d74787092c386p-4",
    "sweeping lower": "0x1.fffffd2efdd3ep-1",
    "far upper left out": "0x1.c9bee61b26145p-7",
    "downward drift": "0x1.ff3bfa360ccb8p-1",
    "two years, exponential corridor": "0x1.9c5ae36a50087p-1",
}


class TestPde:
    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_drift_onto_a_barrier_is_a_certain_breach(self, side):
        # the terminal chance of ending past the barrier alone passes
        # 1 - 2*Phi(-6); the grid would be too coarse for this drift
        r = -2.51542 if side == "lower" else 2.51542
        p = MarketParams(mu=r, sigma=0.069299, r=r, T=2.0)
        curve = BarrierCurve.exponential(62.4277 if side == "lower" else 160.0, 0.1)
        bs = BarrierSet(**{side: curve})
        assert breach_prob_pde(p, bs, 100.0, 2.0, default_grid(p, bs, 100.0, 2.0)) == 1.0

    def test_single_lower_matches_closed(self):
        p = mk_params()
        bs = BarrierSet(lower=BarrierCurve.flat(70.0))
        grid = default_grid(p, bs, 100.0, 0.25)
        got = breach_prob_pde(p, bs, 100.0, 0.25, grid)
        ref = _flat(p, "lower", 70.0)
        assert got == pytest.approx(ref, abs=2e-4)

    def test_single_upper_matches_closed(self):
        p = mk_params()
        bs = BarrierSet(upper=BarrierCurve.flat(130.0))
        grid = default_grid(p, bs, 100.0, 0.25)
        got = breach_prob_pde(p, bs, 100.0, 0.25, grid)
        ref = _flat(p, "upper", 130.0)
        assert got == pytest.approx(ref, abs=2e-4)

    def test_double_between_bounds(self):
        p = mk_params()
        grid = default_grid(p, DKO, 100.0, 0.25)
        got = breach_prob_pde(p, DKO, 100.0, 0.25, grid)
        lo = _flat(p, "lower", 70.0)
        up = _flat(p, "upper", 130.0)
        assert max(lo, up) - 2e-4 <= got <= lo + up + 2e-4

    def test_refinement_improves_single_barrier(self):
        p = mk_params()
        bs = BarrierSet(lower=BarrierCurve.flat(70.0))
        ref = _flat(p, "lower", 70.0)
        errs = []
        for n in (100, 200, 400):
            grid = default_grid(p, bs, 100.0, 0.25, n_space=n, n_time=n)
            errs.append(abs(breach_prob_pde(p, bs, 100.0, 0.25, grid) - ref))
        assert errs[2] < errs[0]

    def test_curved_barrier_accepted(self):
        p = mk_params()
        for side, level, g in (("lower", 70.0, 0.1), ("lower", 70.0, 0.5), ("upper", 130.0, -0.2)):
            bs = BarrierSet(**{side: BarrierCurve.exponential(level, g)})
            got = breach_prob_pde(p, bs, 100.0, 0.25, default_grid(p, bs, 100.0, 0.25))
            assert got == pytest.approx(_breach_exponential(p, side, level, g), abs=5e-5), (side, g)

    @pytest.mark.parametrize(
        "sigma,lower,g_l,upper,g_u",
        [(0.30, 70.0, 0.4, 130.0, -0.3), (0.20, 90.0, 0.2, 115.0, 0.1)],
    )
    def test_unequal_growth_corridor_matches_series(self, sigma, lower, g_l, upper, g_u):
        p = mk_params(sigma=sigma)
        bs = BarrierSet(lower=BarrierCurve.exponential(lower, g_l),
                        upper=BarrierCurve.exponential(upper, g_u))
        got = breach_prob_pde(p, bs, 100.0, 0.25, default_grid(p, bs, 100.0, 0.25))
        exact = 1.0 - _survival_mass(p, lower, g_l, upper, g_u)
        assert got == pytest.approx(exact, abs=1e-5)

    def test_curved_barrier_converges_at_second_order(self):
        p = mk_params()
        bs = BarrierSet(lower=BarrierCurve.exponential(70.0, 0.1))
        exact = _breach_exponential(p, "lower", 70.0, 0.1)
        errs = []
        for n in (100, 200, 400):
            grid = default_grid(p, bs, 100.0, 0.25, n_space=n, n_time=n)
            errs.append(abs(breach_prob_pde(p, bs, 100.0, 0.25, grid) - exact))
        for coarse, fine in zip(errs, errs[1:]):
            assert math.log2(coarse / fine) >= 1.5, errs

    @pytest.mark.parametrize("name", sorted(PDE_PINS))
    def test_pinned_bits(self, name):
        p, bs, T, grid = _pde_pin_cases()[name]
        assert breach_prob_pde(p, bs, 100.0, T, grid).hex() == PDE_PINS[name]

    def test_failed_step_solve_is_a_numerics_error(self, failing_step_solve):
        # the [0, 1] clamp would pass a NaN through, so the march checks
        # every step's LAPACK status and solution
        p = mk_params()
        with pytest.raises(NumericsError, match="tridiagonal solve failed"):
            breach_prob_pde(p, DKO, 100.0, 0.25, default_grid(p, DKO, 100.0, 0.25))

    @pytest.mark.parametrize("grid", [None, PdeGrid(s_min=50.0, s_max=200.0)], ids=["default", "given"])
    def test_underflowed_sigma_sqrt_t_is_a_numerics_error(self, grid):
        # sigma*sqrt(T) = 1e-350 rounds to 0, which the far-side check
        # would divide by; the closed forms refuse the same variance
        p = MarketParams(mu=-1.0, sigma=1e-200, r=-1.0, T=1e-300)
        bs = BarrierSet(lower=BarrierCurve.flat(99.0), upper=BarrierCurve.flat(101.0))
        with pytest.raises(NumericsError, match=r"sigma\^2\*T = 0"):
            breach_prob_pde(p, bs, 100.0, 1e-300, grid)

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            PdeGrid(s_min=0.0, s_max=100.0)
        with pytest.raises(DomainError):
            PdeGrid(s_min=100.0, s_max=50.0)
        with pytest.raises(DomainError):
            PdeGrid(s_min=10.0, s_max=100.0, n_space=8)
        with pytest.raises(DomainError):
            PdeGrid(s_min=10.0, s_max=100.0, n_time=4)

    def test_coarse_but_resolved_grids_solve(self):
        p = mk_params()
        # the minimum legal grid still puts 14 interior nodes across the DKO
        got = breach_prob_pde(p, DKO, 100.0, 0.25,
                              PdeGrid(s_min=50.0, s_max=200.0, n_space=16, n_time=16))
        assert got == pytest.approx(1.0 - _survival_mass(p, 70.0, 0.0, 130.0, 0.0), abs=1e-2)
        # a barrier sweeping through most of the corridor narrows it to
        # 1.2% near expiry, but the corridor always keeps its n_space nodes
        sweep = BarrierSet(
            lower=BarrierCurve.exponential(70.0, 3.0), upper=BarrierCurve.flat(150.0)
        )
        got = breach_prob_pde(p, sweep, 100.0, 0.25, default_grid(p, sweep, 100.0, 0.25))
        assert got == pytest.approx(1.0 - _survival_mass(p, 70.0, 3.0, 150.0, 0.0), abs=1e-7)

    @pytest.mark.parametrize("mid,T", [(1e-300, 0.25), (1e-300, 1.0), (1e-30, 1.0), (1e-10, 1.0)])
    def test_unresolved_grid_raises(self, mid, T):
        # a valid barrier that dips to 1e-300 stretches the corridor to
        # hundreds of log units, far wider than the nodes resolve; the
        # shallower dips keep the spacing under sigma*sqrt(T), but the
        # barrier falls ~100 log units a year, so the xi drift times the
        # spacing exceeds sigma^2 and the centered rows lose their
        # positive off-diagonals (unguarded, 1e-30 printed 0.214 against
        # MC's 0.176)
        p = mk_params(T=T)
        dip = BarrierSet(lower=BarrierCurve.tabulated([(0.0, 70.0), (0.5, mid), (1.0, 80.0)]))
        with pytest.raises(NumericsError, match="grid too coarse: .*lower barrier over"):
            breach_prob_pde(p, dip, 100.0, T, default_grid(p, dip, 100.0, T))

    @pytest.mark.parametrize("side,level,g", [("lower", 70.0, 10.0), ("upper", 130.0, -10.0)])
    def test_fast_but_resolved_barrier_solves(self, side, level, g):
        # the barrier moves ~3 node spacings a step, but the drift it adds
        # in xi, net of mu, keeps drift*spacing under sigma^2
        p = mk_params(r=g + 0.1)
        bs = BarrierSet(**{side: BarrierCurve.exponential(level, g)})
        got = breach_prob_pde(p, bs, 100.0, 0.25, default_grid(p, bs, 100.0, 0.25))
        assert got == pytest.approx(_breach_exponential(p, side, level, g), abs=1e-4)

    def test_unreachable_barrier_is_left_out(self):
        p = mk_params()
        far = BarrierSet(lower=BarrierCurve.flat(1e-320))
        assert breach_prob_pde(p, far, 100.0, 0.25, default_grid(p, far, 100.0, 0.25)) == 0.0
        # a far upper barrier changes neither the grid nor the answer
        near = BarrierSet(lower=BarrierCurve.flat(70.0))
        both = BarrierSet(lower=BarrierCurve.flat(70.0), upper=BarrierCurve.flat(1e300))
        assert default_grid(p, both, 100.0, 0.25) == default_grid(p, near, 100.0, 0.25)
        grid = default_grid(p, near, 100.0, 0.25)
        got = breach_prob_pde(p, both, 100.0, 0.25, grid)
        assert got == breach_prob_pde(p, near, 100.0, 0.25, grid)
        # 70 is 0.357 log units below 100, past 6*sigma*sqrt(T) = 0.3, so it
        # is out of reach under an upward drift but not under a downward one
        for mu in (2.0, -2.0):
            q = MarketParams(mu=mu, sigma=0.1, r=0.1, T=0.25)
            got = breach_prob_pde(q, near, 100.0, 0.25, default_grid(q, near, 100.0, 0.25))
            exact = _flat(q, "lower", 70.0)
            assert got == pytest.approx(exact, abs=1e-4), (mu, got, exact)
            assert (got == 0.0) == (mu > 0), (mu, got)

    def test_drift_rule_leaves_out_only_a_negligible_answer(self):
        # the drift carries s0 away from a lower barrier inside the 6-sigma
        # reach (closed form 1.1e-225): alone it is left out, and next to a
        # live upper barrier it stays
        q = MarketParams(mu=2.88, sigma=0.073, r=2.88, T=2.0)
        lower = BarrierSet(lower=BarrierCurve.flat(61.9))
        both = BarrierSet(lower=BarrierCurve.flat(61.9), upper=BarrierCurve.flat(1000.0))
        assert _reachable(q, lower, 100.0, 2.0) == BarrierSet()
        assert _reachable(q, both, 100.0, 2.0) == both
        # towards a barrier the closed form's reflection weight is e^800, so
        # the bound is taken only with the drift heading away
        p = MarketParams(mu=-3.995, sigma=0.1, r=-3.995, T=1.0)
        towards = BarrierSet(lower=BarrierCurve.flat(36.8))
        assert _reachable(p, towards, 100.0, 1.0) == towards

    def test_domain(self):
        p = mk_params()
        grid = PdeGrid(s_min=50.0, s_max=200.0)
        with pytest.raises(DomainError):
            breach_prob_pde(p, BarrierSet(), 100.0, 0.25, grid)
        with pytest.raises(DomainError):
            breach_prob_pde(p, DKO, 100.0, 0.0, grid)
        with pytest.raises(DomainError):
            breach_prob_pde(p, DKO, 60.0, 0.25, grid)  # below the lower barrier
        assert breach_prob_pde(p, DKO, 70.0, 0.25, grid) == 1.0  # on it
        assert breach_prob_pde(p, DKO, 130.0, 0.25, grid) == 1.0
        # one-sided problems take the far edge from the grid; the start
        # value must sit inside it
        one_sided = BarrierSet(lower=BarrierCurve.flat(70.0))
        with pytest.raises(DomainError):
            breach_prob_pde(p, one_sided, 100.0, 0.25, PdeGrid(s_min=60.0, s_max=90.0))

    def test_default_grid_covers_problem(self):
        p = mk_params()
        grid = default_grid(p, DKO, 100.0, 0.25)
        assert grid.s_min < 70.0 and grid.s_max > 130.0
        span = math.exp(6.0 * 0.30 * math.sqrt(0.25))
        assert grid.s_min == pytest.approx(70.0 / span, rel=1e-12)
        assert grid.s_max == pytest.approx(130.0 * span, rel=1e-12)

    @pytest.mark.parametrize("sigma, T, lower", [(5.0, 1e4, 70.0), (1.0, 1e4, 1e-100)])
    def test_default_grid_past_double_precision(self, sigma, T, lower):
        # 3000 log units of room overflow e^room; 600 keep it finite, but
        # 1e-100 / e^600 underflows to 0, a valid input, not a bad grid
        p = MarketParams(mu=0.0, sigma=sigma, r=0.0, T=T)
        bs = BarrierSet(lower=BarrierCurve.flat(lower))
        with pytest.raises(NumericsError, match=r"grid edges \(0, .* leave double precision"):
            default_grid(p, bs, 100.0, T)

    @pytest.mark.parametrize("sigma, T", [(1e-160, 0.25), (0.3, 1e-300)])
    def test_default_grid_edges_that_coincide(self, sigma, T):
        # e^{6*sigma*sqrt(T)} rounds to 1, and both barriers are out of reach:
        # both edges are s0, which no input gave
        p = MarketParams(mu=0.1, sigma=sigma, r=0.1, T=T)
        with pytest.raises(NumericsError, match=r"grid edges \(100, 100\).* leave double precision"):
            default_grid(p, DKO, 100.0, T)

    def test_default_grid_covers_a_rising_lower_barrier(self):
        # the far edge must clear the barrier's highest level, not just s0
        p = mk_params()
        bs = BarrierSet(lower=BarrierCurve.exponential(70.0, 10.0))
        grid = default_grid(p, bs, 100.0, 0.25)
        span = math.exp(6.0 * 0.30 * math.sqrt(0.25))
        assert grid.s_min == pytest.approx(70.0 / span, rel=1e-12)
        assert grid.s_max == pytest.approx(70.0 * math.exp(2.5) * span, rel=1e-12)
        exact = _breach_exponential(p, "lower", 70.0, 10.0)
        assert breach_prob_pde(p, bs, 100.0, 0.25, grid) == pytest.approx(exact, abs=1e-12)
