"""Critical curves, their flat-barrier extrema, and pointwise probabilities."""

import math

import pytest

from barrierkit.critical import (
    critical_prices,
    lower_critical_curve,
    prob_above_lower,
    prob_below_upper,
    s_ml_flat,
    s_mu_flat,
    turning_point,
    upper_critical_curve,
)
from barrierkit.model import BarrierCurve, BarrierSet, DomainError, MarketParams
from barrierkit.numerics import std_normal_cdf


def mk_params(sigma, T, r=0.10):
    return MarketParams(mu=r, sigma=sigma, r=r, T=T)


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
        p = mk_params(0.15, 0.25)
        # (nu*sigma / (2*mu1))^2 with mu1 = 0.08875
        assert turning_point(p, 4.9) == pytest.approx(17.1465978972426106, rel=1e-14)

    def test_zero_drift_has_none(self):
        p = mk_params(0.5, 0.25, r=0.125)  # sigma^2/2 == mu exactly in binary
        assert turning_point(p, 4.9) is None

    def test_negative_nu_rejected(self):
        with pytest.raises(DomainError):
            turning_point(mk_params(0.3, 0.25), -1.0)


class TestCurves:
    def test_start_at_barrier(self):
        p = mk_params(0.3, 0.25)
        lo = BarrierCurve.flat(70.0)
        up = BarrierCurve.flat(130.0)
        assert lower_critical_curve(p, lo, 4.9, 0.0) == 70.0
        assert upper_critical_curve(p, up, 4.9, 0.0) == 130.0

    def test_lower_above_barrier_upper_below(self):
        p = mk_params(0.3, 0.25)
        lo = BarrierCurve.flat(70.0)
        up = BarrierCurve.flat(130.0)
        for i in range(1, 11):
            t = 0.025 * i
            assert lower_critical_curve(p, lo, 4.9, t) > 70.0
            assert upper_critical_curve(p, up, 4.9, t) < 130.0

    def test_defining_probability_roundtrip(self):
        # S on the lower critical curve leaves exactly Phi(nu) mass above
        p = mk_params(0.3, 0.25)
        lo = BarrierCurve.flat(70.0)
        up = BarrierCurve.flat(130.0)
        for nu in (0.5, 2.0, 4.9):
            for t in (0.01, 0.1, 0.25):
                s = lower_critical_curve(p, lo, nu, t)
                assert prob_above_lower(p, lo, s, t) == pytest.approx(
                    std_normal_cdf(nu), rel=1e-13
                )
                s = upper_critical_curve(p, up, nu, t)
                assert prob_below_upper(p, up, s, t) == pytest.approx(
                    std_normal_cdf(nu), rel=1e-13
                )


class TestPointwiseProbabilities:
    def test_reference_values(self):
        p = mk_params(0.3, 0.25)
        lo = BarrierCurve.flat(70.0)
        up = BarrierCurve.flat(130.0)
        assert prob_above_lower(p, lo, 100.0, 0.25) == pytest.approx(
            0.993234892004714896, rel=1e-14
        )
        assert prob_below_upper(p, up, 100.0, 0.25) == pytest.approx(
            0.951283556228358861, rel=1e-14
        )

    def test_needs_positive_time(self):
        p = mk_params(0.3, 0.25)
        with pytest.raises(DomainError):
            prob_above_lower(p, BarrierCurve.flat(70.0), 100.0, 0.0)
        with pytest.raises(DomainError):
            prob_below_upper(p, BarrierCurve.flat(130.0), 100.0, -0.1)


class TestFlatExtrema:
    @pytest.mark.parametrize("T,sigma,expected", SML_ROWS)
    def test_s_ml_reference_rows(self, T, sigma, expected):
        p = mk_params(sigma, T)
        s, t_at = s_ml_flat(p, 70.0, 4.9)
        assert s == pytest.approx(expected, rel=1e-14)
        assert t_at == T  # stationary time sits far beyond these horizons

    def test_s_mu_reference(self):
        p = mk_params(0.15, 0.25)
        s, t_at = s_mu_flat(p, 130.0, 4.9)
        assert s == pytest.approx(88.0449034184599145, rel=1e-14)
        assert t_at == 0.25

    def test_interior_stationary_point_wins(self):
        # large nu keeps t_p inside a long horizon on the lower side
        p = MarketParams(mu=0.5, sigma=0.15, r=0.5, T=2.0)
        tp = turning_point(p, 4.9)
        assert tp is not None and tp < 2.0
        s, t_at = s_ml_flat(p, 70.0, 4.9)
        assert t_at == pytest.approx(tp, rel=1e-14)
        lo = BarrierCurve.flat(70.0)
        assert s >= lower_critical_curve(p, lo, 4.9, tp * 0.9)
        assert s >= lower_critical_curve(p, lo, 4.9, min(2.0, tp * 1.1))

    def test_negative_drift_maximizes_lower_at_horizon(self):
        p = MarketParams(mu=-0.05, sigma=0.3, r=-0.05, T=0.25)
        _, t_at = s_ml_flat(p, 70.0, 4.9)
        assert t_at == 0.25

    def test_monotone_in_nu(self):
        p = mk_params(0.3, 0.25)
        lows = [s_ml_flat(p, 70.0, nu)[0] for nu in (0.0, 1.0, 3.0, 4.9)]
        assert all(b > a for a, b in zip(lows, lows[1:]))
        ups = [s_mu_flat(p, 130.0, nu)[0] for nu in (0.0, 1.0, 3.0, 4.9)]
        assert all(b < a for a, b in zip(ups, ups[1:]))

    def test_nu_zero(self):
        # positive drift: the nu = 0 lower curve decays, so its maximum is
        # the barrier itself at inception
        p = mk_params(0.3, 0.25)
        s, t_at = s_ml_flat(p, 70.0, 0.0)
        assert (s, t_at) == (70.0, 0.0)
        # negative drift: the curve grows, maximum at the horizon
        q = MarketParams(mu=-0.05, sigma=0.3, r=-0.05, T=0.25)
        s, t_at = s_ml_flat(q, 70.0, 0.0)
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

    def test_curved_lower_runs_optimizer(self):
        # growing barrier keeps the curve increasing; maximum at the horizon.
        # At the second horizon the last scan point a + 1000*h rounds one
        # ulp past T; the reference values are 40-digit evaluations.
        bs = BarrierSet(lower=BarrierCurve.exponential(70.0, 0.05))
        for T, expected in ((0.25, 100.1138203323573), (0.995325888840994, 140.2191584441792181)):
            cp = critical_prices(mk_params(0.15, T), bs, 4.9)
            assert cp.s_ml == pytest.approx(expected, rel=1e-10)
            assert cp.t_at_max == pytest.approx(T, abs=1e-6)

    def test_curved_matches_flat_when_growth_zero(self):
        p = mk_params(0.30, 0.25)
        flat = critical_prices(p, BarrierSet(lower=BarrierCurve.flat(70.0)), 4.9)
        curved = critical_prices(
            p, BarrierSet(lower=BarrierCurve.exponential(70.0, 0.0)), 4.9
        )
        assert curved.s_ml == pytest.approx(flat.s_ml, rel=1e-9)

    def test_tabulated_upper_dispatch(self):
        p = mk_params(0.30, 0.25)
        up = BarrierCurve.tabulated([(0.0, 130.0), (0.25, 131.0)])
        cp = critical_prices(p, BarrierSet(upper=up), 4.9)
        assert cp.s_mu is not None and cp.s_mu < 130.0
