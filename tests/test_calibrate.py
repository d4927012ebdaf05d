"""Measured critical prices, implied nu, and the four-row calibration.

The crossing references come from a separate 40-digit computation that
solves |barrier price - vanilla| = theta/2 directly on the closed forms,
so they are independent of the bisection logic under test; they and the
floor crossings live in oracles.py with their derivation.
"""

import math
import random
from dataclasses import astuple

import numpy as np
import pytest

from barrierkit.calibrate import (
    FLOOR_THETA,
    SWEEP_POINTS,
    CalibrationRow,
    _sweep_grid,
    implied_nu,
    numeric_critical_price,
    reproduce_table1,
)
from barrierkit.critical import critical_prices
from barrierkit.model import BarrierCurve, BarrierSet, DomainError, MarketParams, NumericsError, Payoff, PriceEstimate
from barrierkit.pricing.closed import bs_vanilla, down_and_out_call_closed, up_and_out_call_closed
from oracles import FLOOR_CROSSINGS, INTERIOR_IMPLIED_NU, ORACLE_CROSSINGS


def mk_params(sigma=0.30, T=0.25, r=0.10):
    return MarketParams(mu=r, sigma=sigma, r=r, T=T)


class TestThetaValidation:
    @pytest.mark.parametrize("theta", [2e-3, 1.5e-6, 3e-1, 0.0, -1e-4])
    def test_rejects_non_powers_of_ten(self, theta):
        with pytest.raises(DomainError):
            numeric_critical_price(
                mk_params(), 100.0, 70.0, "lower", theta, down_and_out_call_closed
            )

    def test_side_and_barrier_validation(self):
        with pytest.raises(DomainError):
            numeric_critical_price(
                mk_params(), 100.0, 70.0, "sideways", 1e-2, down_and_out_call_closed
            )
        with pytest.raises(DomainError):
            numeric_critical_price(
                mk_params(), 100.0, -70.0, "lower", 1e-2, down_and_out_call_closed
            )


class TestSweepGrid:
    def test_bit_identical_to_linspace(self):
        # brackets as the search makes them: s_star on either side of the
        # far end, which sits e^(10 sigma sqrt(T)) from a barrier of any size
        rng = random.Random(20240611)
        brackets = [(70.0, 70.0), (70.0000001, 1306.4), (130.0, 9.1)]
        for _ in range(20_000):
            barrier = 10.0 ** rng.uniform(-3.0, 6.0)
            span = math.exp(10.0 * rng.uniform(0.01, 2.0) * math.sqrt(rng.uniform(0.01, 5.0)))
            far = barrier * span if rng.random() < 0.5 else barrier / span
            brackets.append((rng.uniform(barrier, far), far))
        for start, far in brackets:
            want = np.linspace(start, far, SWEEP_POINTS).tolist()
            assert _sweep_grid(start, far) == want, (start, far)


class TestLowerCrossings:
    @pytest.mark.parametrize("theta,s_ref,nu_ref", ORACLE_CROSSINGS)
    def test_measured_onset_matches_oracle(self, theta, s_ref, nu_ref):
        p = mk_params()
        s = numeric_critical_price(p, 100.0, 70.0, "lower", theta, down_and_out_call_closed)
        assert s == pytest.approx(s_ref, abs=5e-6)  # bisection stops at 1e-6
        nu = implied_nu(p, 70.0, "lower", s)
        assert nu == pytest.approx(nu_ref, abs=1e-4)

    def test_onset_recedes_as_theta_tightens(self):
        p = mk_params()
        onsets = [
            numeric_critical_price(p, 100.0, 70.0, "lower", th, down_and_out_call_closed)
            for th in (1e-2, 1e-4, 1e-6)
        ]
        assert onsets[0] < onsets[1] < onsets[2]


class TestUpperSide:
    def test_measured_onset(self):
        p = mk_params()
        s = numeric_critical_price(p, 100.0, 130.0, "upper", 1e-2, up_and_out_call_closed)
        assert s == pytest.approx(72.99353657342664, rel=1e-9)
        # (ln(130/s) - (r - sigma^2/2) T) / (sigma sqrt(T)) at 40 digits
        assert implied_nu(p, 130.0, "upper", s) == pytest.approx(3.7560903554476166, rel=1e-8)

    def test_floor_unreachable(self):
        # the up-and-out correction never underflows to zero inside the
        # bracket, so a below-ulp theta cannot be certified
        p = mk_params()
        with pytest.raises(NumericsError, match="unreachable"):
            numeric_critical_price(
                p, 100.0, 130.0, "upper", FLOOR_THETA, up_and_out_call_closed
            )


class TestNearEnd:
    def test_degenerate_at_the_barrier(self):
        # low vol and a far barrier: even one tick above the barrier the
        # two prices already agree, so the near end itself comes back
        p = mk_params(sigma=0.15)
        s = numeric_critical_price(p, 100.0, 70.0, "lower", 1e-2, down_and_out_call_closed)
        assert s == 70.0 * (1.0 + 1e-9)


class TestVerificationSweep:
    """A stub pricer equal to the vanilla except where it is told to differ."""

    @staticmethod
    def _gapped(bad):
        def pricer(params, strike, barrier, s):
            vanilla = bs_vanilla(params, Payoff.CALL, strike, s).value
            return PriceEstimate(vanilla + (1.0 if bad(s) else 0.0))
        return pricer

    def test_gap_reopening_past_the_onset_restarts_the_bisection(self):
        # the gap closes at 80 and reopens on [150, 160]: the bisection's
        # midpoints (191.9, 130.9, 100.5, ...) all miss the window, the
        # sweep's grid points (3.7 apart) do not, and the restarted
        # bisection lands on its top edge
        pricer = self._gapped(lambda s: s < 80.0 or 150.0 <= s <= 160.0)
        s = numeric_critical_price(mk_params(), 100.0, 70.0, "lower", 1e-6, pricer)
        assert s == pytest.approx(160.0, abs=1e-6) and s > 160.0
        no_window = self._gapped(lambda s: s < 80.0)
        assert numeric_critical_price(mk_params(), 100.0, 70.0, "lower", 1e-6, no_window) == \
            pytest.approx(80.0, abs=1e-6)

    def test_sweep_that_never_settles_is_a_numerics_error(self):
        # a pricer that is not a function of s0: every price it was asked
        # for before differs from then on, so each sweep finds its own start
        # (or the bracket end) distinguishable and no round settles
        asked = set()

        def bad(s):
            seen = s in asked
            asked.add(s)
            return s < 80.0 or seen

        with pytest.raises(NumericsError, match="never stabilized"):
            numeric_critical_price(mk_params(), 100.0, 70.0, "lower", 1e-6, self._gapped(bad))


class TestImpliedNu:
    @pytest.mark.parametrize("nu0", [0.5, 2.0, 4.9, 6.0])
    def test_round_trip_lower(self, nu0):
        p = mk_params()
        s_crit = critical_prices(p, BarrierSet(lower=BarrierCurve.flat(70.0)), nu0).s_ml
        assert implied_nu(p, 70.0, "lower", s_crit) == pytest.approx(nu0, rel=1e-10)

    @pytest.mark.parametrize("nu0", [0.5, 2.0, 4.9, 6.0])
    def test_round_trip_upper(self, nu0):
        p = mk_params()
        s_crit = critical_prices(p, BarrierSet(upper=BarrierCurve.flat(130.0)), nu0).s_mu
        assert implied_nu(p, 130.0, "upper", s_crit) == pytest.approx(nu0, rel=1e-10)

    @pytest.mark.parametrize("side,r,sigma,T,barrier,s_crit,nu_ref", INTERIOR_IMPLIED_NU)
    def test_interior_turning_point_matches_oracle(self, side, r, sigma, T, barrier, s_crit, nu_ref):
        p = mk_params(sigma=sigma, T=T, r=r)
        assert implied_nu(p, barrier, side, s_crit) == pytest.approx(nu_ref, rel=1e-14)

    def test_unattainable_raises(self):
        p = mk_params()
        with pytest.raises(NumericsError, match="attainable"):
            implied_nu(p, 70.0, "lower", 60.0)  # below every critical price
        with pytest.raises(NumericsError, match="attainable"):
            implied_nu(p, 70.0, "lower", 1e9)  # beyond nu = 20

    def test_side_validation(self):
        with pytest.raises(DomainError):
            implied_nu(mk_params(), 70.0, "both", 90.0)
        with pytest.raises(DomainError):
            implied_nu(mk_params(), 70.0, "lower", 0.0)


class TestFloorTable:
    def test_floor_is_saturated(self):
        # every theta below one ulp of the price gives the same answer:
        # the indicator has already collapsed to exact float equality
        p = mk_params(sigma=0.15, T=0.50)
        a = numeric_critical_price(p, 100.0, 70.0, "lower", 1e-20, down_and_out_call_closed)
        b = numeric_critical_price(p, 100.0, 70.0, "lower", FLOOR_THETA, down_and_out_call_closed)
        assert a == b

    def test_four_row_regression(self):
        rows = reproduce_table1()
        assert [(r.T, r.sigma) for r in rows] == [
            (0.25, 0.15), (0.25, 0.30), (0.50, 0.15), (0.50, 0.30),
        ]
        analytic = [98.870186482869048, 143.990200049647579,
                    112.600226384315822, 192.566627435925147]
        # measured onsets and implied nu at the precision floor; they
        # agree with the independent half-ulp oracle (oracles.py), the
        # onsets to 1e-6 and nu, the exact inverse of the onset, to 1e-6
        numeric = [91.451143, 158.512737, 112.581003, 248.868203]
        nus = [3.859962, 5.540598, 4.898390, 6.109064]
        for row, a, n, v in zip(rows, analytic, numeric, nus):
            s_ref, nu_ref = FLOOR_CROSSINGS[(row.T, row.sigma)]
            assert row.analytic_s_ml == pytest.approx(a, rel=1e-12)
            assert row.numeric_s_ml == pytest.approx(n, abs=1e-4)
            assert row.numeric_s_ml == pytest.approx(s_ref, abs=1e-4)
            assert row.implied_nu == pytest.approx(v, abs=1e-6)
            assert row.implied_nu == pytest.approx(nu_ref, abs=1e-6)
            assert astuple(row) == (
                row.T, row.sigma, row.analytic_s_ml, row.numeric_s_ml, row.implied_nu
            )
        assert isinstance(rows[0], CalibrationRow)

    def test_reference_nu_changes_analytic_column_only(self):
        base = reproduce_table1()[0]
        other = reproduce_table1(reference_nu=2.0)[0]
        flat = BarrierSet(lower=BarrierCurve.flat(70.0))
        assert other.analytic_s_ml == pytest.approx(
            critical_prices(mk_params(sigma=0.15), flat, 2.0).s_ml, rel=1e-12
        )
        assert other.numeric_s_ml == base.numeric_s_ml
