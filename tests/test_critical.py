"""Critical curves, their flat-barrier extrema, and pointwise probabilities."""

import math
import random

import pytest

from barrierkit.critical import _times_barrier, critical_curve, critical_prices, prob_inside
from barrierkit.model import (BarrierCurve, BarrierOrderError, BarrierSet, DomainError, MarketParams,
                             NumericsError)
from barrierkit.numerics import std_normal_cdf

from oracles import CURVED_CRITICAL, FAR_HORIZON_CRITICAL


def mk_params(sigma, T, r=0.10):
    return MarketParams(mu=r, sigma=sigma, r=r, T=T)


def _side(cp, side):
    return (cp.s_ml, cp.t_at_max) if side == "lower" else (cp.s_mu, cp.t_at_min)


def _flat(p, side, level, nu):
    """(s_ml, t_at_max) or (s_mu, t_at_min) of one flat barrier."""
    return _side(critical_prices(p, BarrierSet(**{side: BarrierCurve.flat(level)}), nu), side)


# flat lower barrier at 70, r = 0.10, nu = 4.9; values and the attained
# time frozen from an independent high-precision evaluation of the
# closed form (all four rows maximize at the horizon)
SML_ROWS = [
    (0.25, 0.15, 98.870186482869048),
    (0.25, 0.30, 143.990200049647579),
    (0.50, 0.15, 112.600226384315822),
    (0.50, 0.30, 192.566627435925147),
]


class TestTurningPoint:
    def test_reference_value(self):
        # (nu*sigma / (2*mu1))^2 with mu1 = 0.08875, inside a 20-year horizon
        p = mk_params(0.15, 20.0)
        assert _flat(p, "lower", 70.0, 4.9)[1] == pytest.approx(17.1465978972426106, rel=1e-14)

    def test_zero_drift_peaks_at_horizon(self):
        p = mk_params(0.5, 0.25, r=0.125)  # sigma^2/2 == mu exactly in binary
        assert _flat(p, "lower", 70.0, 4.9)[1] == 0.25

    def test_negative_nu_rejected(self):
        with pytest.raises(DomainError):
            _flat(mk_params(0.3, 0.25), "lower", 70.0, -1.0)


class TestCurves:
    @pytest.mark.parametrize("nu", [-1.0, math.nan, math.inf])
    @pytest.mark.parametrize("t", [0.0, 0.1])
    def test_nu_must_be_nonnegative_and_finite(self, nu, t):
        with pytest.raises(DomainError, match="nu must be nonnegative and finite"):
            critical_curve(mk_params(0.3, 0.25), BarrierCurve.flat(70.0), nu, t, "lower")

    def test_start_at_barrier(self):
        p = mk_params(0.3, 0.25)
        lo = BarrierCurve.flat(70.0)
        up = BarrierCurve.flat(130.0)
        assert critical_curve(p, lo, 4.9, 0.0, "lower") == 70.0
        assert critical_curve(p, up, 4.9, 0.0, "upper") == 130.0

    def test_lower_above_barrier_upper_below(self):
        p = mk_params(0.3, 0.25)
        lo = BarrierCurve.flat(70.0)
        up = BarrierCurve.flat(130.0)
        for i in range(1, 11):
            t = 0.025 * i
            assert critical_curve(p, lo, 4.9, t, "lower") > 70.0
            assert critical_curve(p, up, 4.9, t, "upper") < 130.0

    def test_defining_probability_roundtrip(self):
        # S on the lower critical curve leaves exactly Phi(nu) mass above
        p = mk_params(0.3, 0.25)
        lo = BarrierCurve.flat(70.0)
        up = BarrierCurve.flat(130.0)
        for nu in (0.5, 2.0, 4.9):
            for t in (0.01, 0.1, 0.25):
                s = critical_curve(p, lo, nu, t, "lower")
                assert prob_inside(p, lo, s, t, "lower") == pytest.approx(
                    std_normal_cdf(nu), rel=1e-13
                )
                s = critical_curve(p, up, nu, t, "upper")
                assert prob_inside(p, up, s, t, "upper") == pytest.approx(
                    std_normal_cdf(nu), rel=1e-13
                )


class TestPointwiseProbabilities:
    def test_reference_values(self):
        p = mk_params(0.3, 0.25)
        lo = BarrierCurve.flat(70.0)
        up = BarrierCurve.flat(130.0)
        assert prob_inside(p, lo, 100.0, 0.25, "lower") == pytest.approx(
            0.993234892004714896, rel=1e-14
        )
        assert prob_inside(p, up, 100.0, 0.25, "upper") == pytest.approx(
            0.951283556228358861, rel=1e-14
        )

    def test_needs_positive_time(self):
        p = mk_params(0.3, 0.25)
        with pytest.raises(DomainError):
            prob_inside(p, BarrierCurve.flat(70.0), 100.0, 0.0, "lower")
        with pytest.raises(DomainError):
            prob_inside(p, BarrierCurve.flat(130.0), 100.0, -0.1, "upper")

    @pytest.mark.parametrize("s0", [0.0, -5.0, math.nan, math.inf])
    def test_needs_a_positive_finite_start(self, s0):
        with pytest.raises(DomainError, match="s0 must be positive and finite"):
            prob_inside(mk_params(0.3, 0.25), BarrierCurve.flat(70.0), s0, 0.1, "lower")


class TestFlatExtrema:
    @pytest.mark.parametrize("T,sigma,expected", SML_ROWS)
    def test_s_ml_reference_rows(self, T, sigma, expected):
        p = mk_params(sigma, T)
        s, t_at = _flat(p, "lower", 70.0, 4.9)
        assert s == pytest.approx(expected, rel=1e-14)
        assert t_at == T  # stationary time sits far beyond these horizons

    def test_s_mu_reference(self):
        p = mk_params(0.15, 0.25)
        s, t_at = _flat(p, "upper", 130.0, 4.9)
        assert s == pytest.approx(88.0449034184599145, rel=1e-14)
        assert t_at == 0.25

    def test_interior_stationary_point_wins(self):
        # large nu keeps t_p inside a long horizon on the lower side
        p = MarketParams(mu=0.5, sigma=0.15, r=0.5, T=2.0)
        tp = (4.9 * 0.15 / (2.0 * (0.5 - 0.5 * 0.15**2))) ** 2
        assert tp < 2.0
        s, t_at = _flat(p, "lower", 70.0, 4.9)
        assert t_at == pytest.approx(tp, rel=1e-14)
        lo = BarrierCurve.flat(70.0)
        assert s >= critical_curve(p, lo, 4.9, tp * 0.9, "lower")
        assert s >= critical_curve(p, lo, 4.9, min(2.0, tp * 1.1), "lower")

    def test_negative_drift_maximizes_lower_at_horizon(self):
        p = MarketParams(mu=-0.05, sigma=0.3, r=-0.05, T=0.25)
        _, t_at = _flat(p, "lower", 70.0, 4.9)
        assert t_at == 0.25

    def test_monotone_in_nu(self):
        p = mk_params(0.3, 0.25)
        lows = [_flat(p, "lower", 70.0, nu)[0] for nu in (0.0, 1.0, 3.0, 4.9)]
        assert all(b > a for a, b in zip(lows, lows[1:]))
        ups = [_flat(p, "upper", 130.0, nu)[0] for nu in (0.0, 1.0, 3.0, 4.9)]
        assert all(b < a for a, b in zip(ups, ups[1:]))

    def test_nu_zero(self):
        # positive drift: the nu = 0 lower curve decays, so its maximum is
        # the barrier itself at inception
        p = mk_params(0.3, 0.25)
        s, t_at = _flat(p, "lower", 70.0, 0.0)
        assert (s, t_at) == (70.0, 0.0)
        # negative drift: the curve grows, maximum at the horizon
        q = MarketParams(mu=-0.05, sigma=0.3, r=-0.05, T=0.25)
        s, t_at = _flat(q, "lower", 70.0, 0.0)
        m1 = -0.05 - 0.045
        assert t_at == 0.25
        assert s == pytest.approx(70.0 * math.exp(-m1 * 0.25), rel=1e-15)


class TestCriticalPrices:
    def test_flat_double(self):
        p = mk_params(0.15, 0.25)
        bs = BarrierSet(lower=BarrierCurve.flat(70.0), upper=BarrierCurve.flat(130.0))
        cp = critical_prices(p, bs, 4.9)
        assert cp.s_ml == pytest.approx(98.870186482869048, rel=1e-14)
        assert cp.s_mu == pytest.approx(88.0449034184599145, rel=1e-14)
        assert cp.t_at_max == 0.25
        assert cp.t_at_min == 0.25

    def test_single_sides(self):
        p = mk_params(0.15, 0.25)
        cp = critical_prices(p, BarrierSet(lower=BarrierCurve.flat(70.0)), 4.9)
        assert cp.s_mu is None and cp.t_at_min is None
        assert cp.s_ml == pytest.approx(98.870186482869048, rel=1e-14)
        cp = critical_prices(p, BarrierSet(upper=BarrierCurve.flat(130.0)), 4.9)
        assert cp.s_ml is None and cp.t_at_max is None
        assert cp.s_mu == pytest.approx(88.0449034184599145, rel=1e-14)

    def test_empty_set_rejected(self):
        with pytest.raises(DomainError):
            critical_prices(mk_params(0.3, 0.25), BarrierSet(), 4.9)

    @pytest.mark.parametrize("T, lower, upper", [
        # the lines swapped: 130 over 70 everywhere
        (0.25, BarrierCurve.flat(130.0), BarrierCurve.flat(70.0)),
        # 70*e^{0.4t} meets 130*e^{-0.3t} at t = ln(13/7)/0.7, about 0.88
        (1.0, BarrierCurve.exponential(70.0, 0.4), BarrierCurve.exponential(130.0, -0.3)),
    ], ids=["swapped", "crossing"])
    def test_crossed_set_rejected(self, T, lower, upper):
        # as the pricers and breach routes refuse it, rather than extremize each side alone
        with pytest.raises(BarrierOrderError):
            critical_prices(mk_params(0.3, T), BarrierSet(lower=lower, upper=upper), 3.0)

    def test_growing_lower_peaks_at_horizon(self):
        # a growing barrier keeps the curve increasing, so the maximum sits
        # at the horizon; at the second horizon a 1000-step grid on [0, T]
        # ends one ulp past T. The reference values are 40-digit evaluations.
        bs = BarrierSet(lower=BarrierCurve.exponential(70.0, 0.05))
        for T, expected in ((0.25, 100.1138203323573), (0.995325888840994, 140.2191584441792181)):
            cp = critical_prices(mk_params(0.15, T), bs, 4.9)
            assert cp.s_ml == pytest.approx(expected, rel=1e-14)
            assert cp.t_at_max == T

    def test_curved_matches_flat_when_growth_zero(self):
        p = mk_params(0.30, 0.25)
        flat = critical_prices(p, BarrierSet(lower=BarrierCurve.flat(70.0)), 4.9)
        curved = critical_prices(
            p, BarrierSet(lower=BarrierCurve.exponential(70.0, 0.0)), 4.9
        )
        assert (curved.s_ml, curved.t_at_max) == (flat.s_ml, flat.t_at_max)

    def test_tabulated_upper_dispatch(self):
        p = mk_params(0.30, 0.25)
        up = BarrierCurve.tabulated([(0.0, 130.0), (0.25, 131.0)])
        cp = critical_prices(p, BarrierSet(upper=up), 4.9)
        assert cp.s_mu is not None and cp.s_mu < 130.0


def _curve(barrier):
    if barrier[0] == "exp":
        return BarrierCurve.exponential(barrier[1], barrier[2])
    return BarrierCurve.tabulated(barrier[1])


def _interior_exponential_cases(n):
    """Exponential lower barriers whose turning point lies inside (0, T)."""
    rng = random.Random(11)
    cases = []
    while len(cases) < n:
        sigma, r, g, nu = rng.uniform(0.05, 1.0), rng.uniform(-0.1, 0.5), rng.uniform(-1, 1), rng.uniform(0.5, 6)
        m = r - 0.5 * sigma * sigma - g
        if m > 0.0 and (nu * sigma / (2.0 * m)) ** 2 < 10.0:
            cases.append((mk_params(sigma, 10.0, r=r), g, nu))
    return cases


class TestCurvedExtrema:
    @pytest.mark.parametrize("side,barrier,T,expected,t_expected", CURVED_CRITICAL)
    def test_matches_oracle(self, side, barrier, T, expected, t_expected):
        cp = critical_prices(mk_params(0.15, T), BarrierSet(**{side: _curve(barrier)}), 2.0)
        value, t_at = _side(cp, side)
        assert value == pytest.approx(expected, rel=1e-14)
        assert t_at == pytest.approx(t_expected, rel=1e-14)

    def test_far_horizon(self):
        # the maximum sits at t = 8100 of a horizon of 1e20 years
        bs = BarrierSet(lower=BarrierCurve.exponential(70.0, 0.05))
        cp = critical_prices(mk_params(0.3, 1e20), bs, 3.0)
        s_ml, t_at = FAR_HORIZON_CRITICAL
        assert cp.s_ml == pytest.approx(s_ml, rel=1e-14)
        assert cp.t_at_max == pytest.approx(t_at, rel=1e-14)

    def test_exponential_turning_point_is_exact(self):
        for p, g, nu in _interior_exponential_cases(50):
            cp = critical_prices(p, BarrierSet(lower=BarrierCurve.exponential(70.0, g)), nu)
            mu1 = p.mu - 0.5 * p.sigma * p.sigma
            assert cp.t_at_max == (nu * p.sigma / (2.0 * (mu1 - g))) ** 2

    def test_time_stable_under_one_ulp_of_nu(self):
        # the attained time is a formula or a knot, so a one-ulp change of
        # nu moves it by a few ulps, never by the width of a search bracket
        knots = ((0.0, 70.0), (2.5, 74.0), (6.0, 69.0), (10.0, 75.0))
        for p, g, nu in _interior_exponential_cases(200):
            for curve in (BarrierCurve.exponential(70.0, g), BarrierCurve.tabulated(knots)):
                bs = BarrierSet(lower=curve)
                t0 = critical_prices(p, bs, nu).t_at_max
                t1 = critical_prices(p, bs, math.nextafter(nu, math.inf)).t_at_max
                assert t1 == pytest.approx(t0, rel=1e-12, abs=0.0)

    def test_ties_go_to_the_earlier_segment(self):
        # zero drift (sigma^2/2 == mu exactly in binary) and nu = 0 leave
        # the curve at 70 everywhere; each segment offers its end, and the
        # first one keeps the tie
        p = mk_params(0.5, 2.0, r=0.125)
        knotted = BarrierCurve.tabulated([(0.0, 70.0), (1.0, 70.0), (2.0, 70.0)])
        for side in ("lower", "upper"):
            assert _side(critical_prices(p, BarrierSet(**{side: knotted}), 0.0), side) == (70.0, 1.0)

    @pytest.mark.parametrize("curve, mu, sigma", [
        # 70*e^712.6: math.exp itself overflows
        (BarrierCurve.exponential(70.0, 14.0), 0.0, 0.3),
        # 70*e^707.9: e^x is finite, the product rounds to inf
        (BarrierCurve.exponential(70.0, 14.1), 0.1, 0.2),
        # a tabulated level of 1e307 times e^12.6
        (BarrierCurve.tabulated([(0.0, 70.0), (50.0, 1e307)]), 0.0, 0.3),
    ])
    def test_critical_price_past_double_precision(self, curve, mu, sigma):
        p = MarketParams(mu=mu, sigma=sigma, r=mu, T=50.0)
        with pytest.raises(NumericsError, match="critical price .* leaves double precision"):
            critical_prices(p, BarrierSet(lower=curve), 4.9)
        with pytest.raises(NumericsError, match="leaves double precision"):
            critical_curve(p, curve, 4.9, 50.0, "lower")


def _signed_path_cases(n):
    """Seeded (params, curve, nu, t): flat, exponential and tabulated curves,
    t in (0, T] with T itself among them, nu in [0, 8]."""
    rng = random.Random(22)
    cases = []
    for i in range(n):
        r, T = rng.uniform(-0.5, 0.5), rng.uniform(0.05, 3.0)
        p = MarketParams(mu=r, sigma=rng.uniform(0.05, 1.0), r=r, T=T)
        level = rng.uniform(50.0, 150.0)
        shape = i % 3
        if shape == 0:
            curve = BarrierCurve.flat(level)
        elif shape == 1:
            curve = BarrierCurve.exponential(level, rng.uniform(-1.0, 1.0))
        else:
            times = sorted(rng.uniform(0.0, T) for _ in range(rng.randrange(1, 4)))
            curve = BarrierCurve.tabulated(
                [(0.0, level)] + [(t, rng.uniform(50.0, 150.0)) for t in times + [T]]
            )
        t = T if i % 10 == 0 else T * (1.0 - rng.random())
        cases.append((p, curve, rng.uniform(0.0, 8.0), t))
    return cases


class TestSignedPath:
    """critical_curve and prob_inside serve both sides through one sign."""

    @staticmethod
    def _two_formulas(p, curve, nu, t, side):
        # the lower and upper curves as separate expressions, each side's own
        if t == 0.0:
            return curve.value_at(t, p.T)
        m1 = p.mu - 0.5 * p.sigma * p.sigma
        if side == "lower":
            x = nu * p.sigma * math.sqrt(t) - m1 * t
        else:
            x = -(nu * p.sigma * math.sqrt(t) + m1 * t)
        return _times_barrier(curve, x, t, p.T)

    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_curve_keeps_each_sides_bits(self, side):
        for p, curve, nu, t in _signed_path_cases(3000):
            for tt in (0.0, t):
                assert critical_curve(p, curve, nu, tt, side) == self._two_formulas(p, curve, nu, tt, side)

    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_probability_at_the_curve_is_phi_nu(self, side):
        worst = 0.0
        for p, curve, nu, t in _signed_path_cases(3000):
            s = critical_curve(p, curve, nu, t, side)
            worst = max(worst, abs(prob_inside(p, curve, s, t, side) - std_normal_cdf(nu)))
        assert worst < 1e-12

    @pytest.mark.parametrize("side", ["", "Lower", "both", None, 1.0])
    def test_side_must_be_lower_or_upper(self, side):
        p, lo = mk_params(0.3, 0.25), BarrierCurve.flat(70.0)
        with pytest.raises(DomainError, match="side must be 'lower' or 'upper'"):
            critical_curve(p, lo, 4.9, 0.1, side)
        with pytest.raises(DomainError, match="side must be 'lower' or 'upper'"):
            prob_inside(p, lo, 100.0, 0.1, side)
