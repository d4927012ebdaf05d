"""Closed-form prices: vanilla, single knock-outs, and the image series.

Reference numbers are frozen from an independent 40-digit quadrature of
the absorbed-transition density (reflection series for the surviving
density integrated against the payoff), so they do not share algebra
with the implementation under test.
"""

import math
import random

import pytest

from barrierkit.model import (
    BarrierCurve,
    BarrierSet,
    DomainError,
    MarketParams,
    NumericsError,
    OptionSpec,
    Payoff,
    PricingMethod,
)
from barrierkit.calibrate import numeric_critical_price
from barrierkit.passage import breach_prob_mc, breach_prob_pde, default_grid
from barrierkit.pricing import closed
from barrierkit.pricing.closed import (
    _leg,
    breach_prob_closed,
    bs_vanilla,
    double_knockout_closed,
    down_and_out_call_closed,
    series_terms,
    up_and_out_call_closed,
)
from barrierkit.pricing.mc import McConfig, mc_price
from oracles import (CORRIDOR_TERM_COUNT, DOUBLE_BELOW_FLOOR, KNOCKOUT_UNDER_STEEP_DRIFT,
                     NARROW_SLAB_UNDER_STEEP_DRIFT, PINCHED_CORRIDOR)


def mk_params(sigma=0.30, T=0.25, r=0.10):
    return MarketParams(mu=r, sigma=sigma, r=r, T=T)


P_MAIN = dict(sigma=0.30, T=0.25, r=0.10)
P_SLOW = dict(sigma=0.20, T=1.00, r=0.05)


class TestVanilla:
    def test_reference_call_and_put(self):
        p = mk_params(**P_MAIN)
        assert bs_vanilla(p, Payoff.CALL, 100.0, 100.0).value == pytest.approx(
            7.22089013216803283, rel=5e-15
        )
        assert bs_vanilla(p, Payoff.PUT, 100.0, 100.0).value == pytest.approx(
            4.75188133500129969, rel=5e-15
        )

    def test_put_call_parity(self):
        p = mk_params(**P_MAIN)
        for s0 in (60.0, 100.0, 155.0):
            call = bs_vanilla(p, Payoff.CALL, 100.0, s0).value
            put = bs_vanilla(p, Payoff.PUT, 100.0, s0).value
            assert call - put == pytest.approx(
                s0 - 100.0 * math.exp(-0.10 * 0.25), rel=1e-12, abs=1e-12
            )

    def test_string_payoff_forms(self):
        p = mk_params(**P_MAIN)
        assert (
            bs_vanilla(p, "call", 100.0, 100.0).value
            == bs_vanilla(p, Payoff.CALL, 100.0, 100.0).value
        )
        with pytest.raises(DomainError, match="^payoff must be 'call' or 'put', got 'calll'$"):
            bs_vanilla(p, "calll", 100.0, 100.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            bs_vanilla(mk_params(), Payoff.CALL, 100.0, 0.0)

    def test_method_tag(self):
        est = bs_vanilla(mk_params(), Payoff.CALL, 100.0, 100.0)
        assert est.method is PricingMethod.CLOSED
        assert est.std_error == 0.0

    def test_accuracy_against_mpmath(self):
        # the docstring's bounds: absolute 2*2^-52*(s0*e^{(mu-r)T} + K*e^{-rT})
        # on every call, relative 1e-12 where the price is at least 1e-6 of
        # that scale; deep out-of-the-money calls, down to subnormal prices,
        # keep the absolute bound alone
        mp = pytest.importorskip("mpmath")
        rng = random.Random(20261022)
        deep = 0
        with mp.workdps(60):
            for i in range(2400):
                if i % 3 == 0:
                    sigma, T = rng.uniform(0.005, 0.05), rng.uniform(0.01, 2.0)
                else:
                    sigma, T = rng.uniform(0.05, 1.0), rng.uniform(0.1, 2.0)
                r, q = rng.uniform(-3.0, 3.0), rng.uniform(0.0, 0.2)
                strike = 100.0 * math.exp(rng.uniform(math.log(0.3), math.log(30.0 if i % 4 == 0 else 3.0)))
                got = bs_vanilla(MarketParams(mu=r - q, sigma=sigma, r=r, T=T), Payoff.CALL, strike, 100.0).value
                s0, k, sig, rate, t, mu = (mp.mpf(v) for v in (100.0, strike, sigma, r, T, r - q))
                srt = sig * mp.sqrt(t)
                d1 = (mp.log(s0 / k) + (mu + sig**2 / 2) * t) / srt
                fwd, disc_k = s0 * mp.exp((mu - rate) * t), k * mp.exp(-rate * t)
                want = fwd * mp.ncdf(d1) - disc_k * mp.ncdf(d1 - srt)
                scale = float(fwd + disc_k)
                err = float(abs(got - want))
                assert err <= 2.0 * 2.0**-52 * scale, (i, got, float(want))
                if want >= 1e-6 * scale:
                    assert err <= 1e-12 * float(want), (i, got, float(want))
                deep += want < 1e-100
        assert deep >= 100


class TestDownAndOut:
    def test_reference_barrier_below_strike(self):
        p = mk_params(**P_MAIN)
        assert down_and_out_call_closed(p, 100.0, 70.0, 100.0).value == pytest.approx(
            7.2208871397512867, rel=5e-14
        )
        q = mk_params(**P_SLOW)
        assert down_and_out_call_closed(q, 100.0, 70.0, 100.0).value == pytest.approx(
            10.449632879392299, rel=5e-14
        )

    def test_reference_barrier_above_strike(self):
        p = mk_params(**P_MAIN)
        assert down_and_out_call_closed(p, 100.0, 110.0, 120.0).value == pytest.approx(
            16.358293050632723, rel=5e-14
        )

    def test_dead_on_arrival(self):
        p = mk_params(**P_MAIN)
        assert down_and_out_call_closed(p, 100.0, 70.0, 70.0).value == 0.0
        assert down_and_out_call_closed(p, 100.0, 70.0, 50.0).value == 0.0

    def test_bounded_by_vanilla(self):
        p = mk_params(**P_MAIN)
        for s0 in (71.0, 85.0, 100.0, 140.0):
            dao = down_and_out_call_closed(p, 100.0, 70.0, s0).value
            van = bs_vanilla(p, Payoff.CALL, 100.0, s0).value
            assert dao <= van + 1e-15

    def test_branch_continuity_at_barrier_equal_strike(self):
        p = mk_params(**P_MAIN)
        lo = down_and_out_call_closed(p, 100.0, 100.0, 120.0).value
        hi = down_and_out_call_closed(p, 100.0, 100.0 + 1e-9, 120.0).value
        assert hi == pytest.approx(lo, rel=1e-7)

    def test_remote_barrier_is_vanilla_bit_for_bit(self):
        p = mk_params(**P_MAIN)
        dao = down_and_out_call_closed(p, 100.0, 1e-3, 100.0).value
        van = bs_vanilla(p, Payoff.CALL, 100.0, 100.0).value
        assert dao == van

    def test_domain(self):
        with pytest.raises(DomainError):
            down_and_out_call_closed(mk_params(), 100.0, -70.0, 100.0)


class TestUpAndOut:
    def test_reference_values(self):
        p = mk_params(**P_MAIN)
        assert up_and_out_call_closed(p, 100.0, 130.0, 100.0).value == pytest.approx(
            4.3830898601029706, rel=5e-14
        )
        q = mk_params(**P_SLOW)
        assert up_and_out_call_closed(q, 90.0, 140.0, 100.0).value == pytest.approx(
            10.837768677254364, rel=5e-14
        )

    def test_dead_on_arrival(self):
        p = mk_params(**P_MAIN)
        assert up_and_out_call_closed(p, 100.0, 130.0, 130.0).value == 0.0
        assert up_and_out_call_closed(p, 100.0, 130.0, 150.0).value == 0.0

    def test_worthless_when_barrier_not_above_strike(self):
        p = mk_params(**P_MAIN)
        assert up_and_out_call_closed(p, 100.0, 100.0, 90.0).value == 0.0
        assert up_and_out_call_closed(p, 100.0, 95.0, 90.0).value == 0.0

    def test_bounded_by_vanilla(self):
        p = mk_params(**P_MAIN)
        for s0 in (75.0, 100.0, 129.0):
            uo = up_and_out_call_closed(p, 100.0, 130.0, s0).value
            van = bs_vanilla(p, Payoff.CALL, 100.0, s0).value
            assert uo <= van + 1e-15

    def test_remote_barrier_converges_to_vanilla(self):
        p = mk_params(**P_MAIN)
        uo = up_and_out_call_closed(p, 100.0, 1e6, 100.0).value
        van = bs_vanilla(p, Payoff.CALL, 100.0, 100.0).value
        assert uo == pytest.approx(van, rel=1e-14)


class TestDoubleKnockout:
    def test_reference_flat(self):
        p = mk_params(**P_MAIN)
        assert double_knockout_closed(p, 100.0, 70.0, 130.0, 100.0).value == pytest.approx(
            4.3830868703605832, rel=5e-14
        )
        q = MarketParams(mu=0.05, sigma=0.20, r=0.05, T=1.0)
        assert double_knockout_closed(q, 90.0, 80.0, 120.0, 95.0).value == pytest.approx(
            3.3855597230442825, rel=5e-14
        )

    def test_reference_strike_below_lower(self):
        # the strike sits under the lower barrier's terminal level, so the
        # payoff slab starts at L_T and the cash leg is the survival mass
        # itself: exact, at the same tolerance as the other series pins
        p = mk_params(**P_MAIN)
        assert double_knockout_closed(p, 60.0, 70.0, 130.0, 100.0).value == pytest.approx(
            34.837921371770508, rel=5e-14
        )

    def test_dead_on_arrival_and_empty_slab(self):
        p = mk_params(**P_MAIN)
        assert double_knockout_closed(p, 100.0, 70.0, 130.0, 70.0).value == 0.0
        assert double_knockout_closed(p, 100.0, 70.0, 130.0, 130.0).value == 0.0
        assert double_knockout_closed(p, 135.0, 70.0, 130.0, 100.0).value == 0.0

    def test_bounded_by_both_single_barriers(self):
        p = mk_params(**P_MAIN)
        for s0 in (75.0, 100.0, 125.0):
            dko = double_knockout_closed(p, 100.0, 70.0, 130.0, s0).value
            dao = down_and_out_call_closed(p, 100.0, 70.0, s0).value
            uo = up_and_out_call_closed(p, 100.0, 130.0, s0).value
            assert dko <= min(dao, uo) + 1e-12

    def test_degenerate_limits(self):
        p = mk_params(**P_MAIN)
        near_uo = double_knockout_closed(p, 100.0, 1e-6, 130.0, 100.0).value
        uo = up_and_out_call_closed(p, 100.0, 130.0, 100.0).value
        assert near_uo == pytest.approx(uo, rel=1e-12)
        near_dao = double_knockout_closed(p, 100.0, 70.0, 1e6, 100.0).value
        dao = down_and_out_call_closed(p, 100.0, 70.0, 100.0).value
        assert near_dao == pytest.approx(dao, rel=1e-12)

    def test_zero_curvature_matches_flat(self):
        p = mk_params(**P_MAIN)
        flat = double_knockout_closed(p, 100.0, 70.0, 130.0, 100.0).value
        curved = double_knockout_closed(p, 100.0, 70.0, 130.0, 100.0, (0.0, 0.0)).value
        assert curved == flat

    def test_common_curvature_reduces_to_shifted_flat(self):
        # growing both barriers at rate d is a change of numeraire: price
        # equals exp(d*T) times the flat price with carry mu - d and the
        # strike discounted by the same factor
        d = 0.08
        p = MarketParams(mu=0.10, sigma=0.30, r=0.10, T=0.25)
        q = MarketParams(mu=0.10 - d, sigma=0.30, r=0.10, T=0.25)
        curved = double_knockout_closed(p, 100.0, 70.0, 130.0, 100.0, (d, d)).value
        flat = double_knockout_closed(
            q, 100.0 * math.exp(-d * 0.25), 70.0, 130.0, 100.0
        ).value
        assert curved == pytest.approx(flat * math.exp(d * 0.25), rel=1e-12)

    def test_reference_asymmetric_curvature(self):
        # growth rates of opposite sign, frozen from the same quadrature
        # oracle evaluated on the exponential corridor
        p = mk_params(**P_MAIN)
        widening = double_knockout_closed(p, 100.0, 70.0, 130.0, 100.0, (-0.2, 0.2)).value
        narrowing = double_knockout_closed(p, 100.0, 70.0, 130.0, 100.0, (0.2, -0.2)).value
        assert widening == pytest.approx(5.4283018759402094299, rel=5e-13)
        assert narrowing == pytest.approx(3.1308728267055350042, rel=5e-13)
        assert widening > narrowing

    def test_crossing_curvature_rejected(self):
        p = MarketParams(mu=0.10, sigma=0.30, r=0.10, T=1.0)
        with pytest.raises(DomainError):
            double_knockout_closed(p, 95.0, 90.0, 100.0, 95.0, (0.5, 0.0))

    def test_barrier_order_rejected(self):
        with pytest.raises(DomainError):
            double_knockout_closed(mk_params(), 100.0, 130.0, 70.0, 100.0)

    def test_continuity_across_strike_rebase(self):
        p = mk_params(**P_MAIN)
        below = double_knockout_closed(p, 70.0 - 1e-7, 70.0, 130.0, 100.0).value
        above = double_knockout_closed(p, 70.0 + 1e-7, 70.0, 130.0, 100.0).value
        assert below == pytest.approx(above, rel=1e-6)

    def test_decreasing_in_strike(self):
        p = mk_params(**P_MAIN)
        vals = [
            double_knockout_closed(p, k, 70.0, 130.0, 100.0).value
            for k in (60.0, 80.0, 100.0, 120.0)
        ]
        assert all(b < a for a, b in zip(vals, vals[1:]))


def _shells_through_n_plus_one(p, strike, s0, lower, upper):
    """A flat or exponential corridor's call price, or its breach probability
    with strike None, summed over every shell |n| <= N + 1 from `_leg`: the
    rule before the series kept the engine's terms alone. Each term is built
    in the factored form `_knockout_call` uses, so only the term set differs."""
    (lo, g_l), (hi, g_u) = lower, upper
    T, sig = p.T, p.sigma
    s2t, srt = sig * sig * T, sig * math.sqrt(T)
    m1t = (p.mu - 0.5 * sig * sig) * T
    k, rt = (-math.inf, 0.0) if strike is None else (math.log(strike / s0), p.r * T)
    hl, hu = math.log(lo / s0), math.log(hi / s0)
    lt, ut = hl + g_l * T, hu + g_u * T
    x1, x2 = max(lt, k), ut
    if x1 >= x2:
        return 0.0
    q1, q2 = (x1 - m1t) / srt, (x2 - m1t) / srt
    t1, t2 = -rt - 0.5 * q1 * q1, -rt - 0.5 * q2 * q2
    ma, kk, a0, d0, dt = m1t - rt, -2.0 / s2t, -hl, hu - hl, ut - lt
    y1, ym = x1 - lt, m1t - lt
    m = series_terms(d0 * dt, s2t) + 1
    asset = cash = gone = 0.0
    for n in range(-m, m + 1):
        pa, ca, gb, nd = kk * n, dt * (n * d0 - a0), kk * (n * d0 + a0), n * dt
        ga, ema, emb = pa * d0, pa * (ca + d0 * ym), gb * (nd + ym)
        ea1, ea2 = t1 + pa * (ca + d0 * y1), t2 + pa * (ca + d0 * dt)
        eb1, eb2 = t1 + gb * (nd + y1), t2 + gb * (nd + dt)
        direct = _leg(ga, ema - rt, ea1, ea2, q1, q2, srt)
        reflected = _leg(gb, emb - rt, eb1, eb2, q1, q2, srt)
        gone += reflected - direct if n else reflected
        asset += _leg(1.0 + ga, ma + ema, x1 + ea1, x2 + ea2, q1, q2, srt) - _leg(
            1.0 + gb, ma + emb, x1 + eb1, x2 + eb2, q1, q2, srt)
        cash += direct - reflected
    if strike is None:
        return 0.5 * math.erfc(-q1 / math.sqrt(2.0)) + 0.5 * math.erfc(q2 / math.sqrt(2.0)) + gone
    return max(s0 * asset - strike * cash, 0.0)


class TestSeriesTerms:
    """The corridor series takes the engine's terms: shells |n| <= N in full
    and the reflected term of shell -(N + 1), the upper R_N."""

    @pytest.mark.parametrize("n, lo, hi, sigma", [(1, 70.0, 130.0, 0.2), (3, 70.0, 130.0, 0.43),
                                                  (11, 90.0, 110.0, 0.5)])
    def test_legs_per_price_and_breach_probability(self, monkeypatch, n, lo, hi, sigma):
        # four legs a shell, two on shell -(N+1); a breach probability takes
        # cash legs alone and no free-mass leg on shell 0
        p = mk_params(sigma=sigma, T=1.0, r=0.1)
        assert series_terms(math.log(hi / lo) ** 2, sigma * sigma) == n
        calls = []

        def counting(*args):
            calls.append(args)
            return _leg(*args)

        monkeypatch.setattr(closed, "_leg", counting)
        double_knockout_closed(p, 100.0, lo, hi, 100.0)
        assert len(calls) == 8 * n + 6
        calls.clear()
        breach_prob_closed(p, BarrierSet(lower=BarrierCurve.flat(lo), upper=BarrierCurve.flat(hi)), 100.0)
        assert len(calls) == 4 * n + 2

    @pytest.mark.parametrize("row", sorted(DOUBLE_BELOW_FLOOR))
    def test_absolute_floor(self, row):
        # the shells cancel, so a tiny price is exact only to a few ulps of
        # s0*e^{(mu-r)T} + K*e^{-rT}: 5.75242648e-10 for 5.7524892966e-10,
        # 3.9e-19 for 8.7e-565
        r, sigma, T, K, L, U, s0 = row
        p = MarketParams(mu=r, sigma=sigma, r=r, T=T)
        got = double_knockout_closed(p, K, L, U, s0).value
        want = float(DOUBLE_BELOW_FLOOR[row])
        assert abs(got - want) <= 4.0 * 2.0**-52 * (s0 + K * math.exp(-r * T)), (got, want)

    def test_dropped_shells_stay_below_the_floor(self):
        # the shell +(N+1) and the upper D_{N+1} move no result by more than
        # a few ulps of its scale, under steep drift and with N >= 10
        rng = random.Random(20261021)
        checked = 0
        while checked < 300:
            sigma, T = rng.uniform(0.3, 1.0), rng.uniform(0.25, 2.0)
            r = rng.choice((-1.0, 1.0)) * rng.uniform(1.0, 3.0)
            p = MarketParams(mu=r, sigma=sigma, r=r, T=T)
            lower = (100.0 * math.exp(-rng.uniform(0.05, 0.25)), rng.uniform(-0.5, 0.5))
            upper = (100.0 * math.exp(rng.uniform(0.05, 0.25)), rng.uniform(-0.5, 0.5))
            strike = 100.0 * math.exp(rng.uniform(-0.3, 0.3))
            d0 = math.log(upper[0] / lower[0])
            dt = d0 + (upper[1] - lower[1]) * T
            if dt <= 0.0 or series_terms(d0 * dt, sigma * sigma * T) < 10:
                continue
            checked += 1
            scale = 100.0 * math.exp((p.mu - p.r) * T) + strike * math.exp(-p.r * T)
            got = double_knockout_closed(p, strike, lower[0], upper[0], 100.0,
                                         (lower[1], upper[1])).value
            want = _shells_through_n_plus_one(p, strike, 100.0, lower, upper)
            assert abs(got - want) <= 4.0 * 2.0**-52 * scale, (checked, got, want)
            barriers = BarrierSet(lower=BarrierCurve.exponential(*lower),
                                  upper=BarrierCurve.exponential(*upper))
            got = breach_prob_closed(p, barriers, 100.0)
            want = min(max(_shells_through_n_plus_one(p, None, 100.0, lower, upper), 0.0), 1.0)
            assert abs(got - want) <= 4.0 * 2.0**-52, (checked, got, want)

    def test_pinched_corridor_is_zero_to_double_precision(self):
        # 95 image pairs; a cap of 50 shells once left 2.95e-9 here
        r, sigma, T, K, L, U, g_l, g_u = PINCHED_CORRIDOR
        p = MarketParams(mu=r, sigma=sigma, r=r, T=T)
        got = double_knockout_closed(p, K, L, U, 100.0, (g_l, g_u)).value
        assert abs(got) <= 1e-12 * (100.0 + K)

    @pytest.mark.parametrize("row", sorted(CORRIDOR_TERM_COUNT))
    def test_one_pair_corridors_keep_the_upper_reflection(self, row):
        # series_terms is 1, and shells |n| <= 1 alone drift by about 2e-10
        r, sigma, T, K, L, U, g_l, g_u = row
        p = MarketParams(mu=r, sigma=sigma, r=r, T=T)
        got = double_knockout_closed(p, K, L, U, 100.0, (g_l, g_u)).value
        assert got == pytest.approx(CORRIDOR_TERM_COUNT[row], abs=1e-14 * (100.0 + K))


class TestExponentialSingle:
    """One barrier B*exp(g*t): the single-barrier image form with a growth."""

    def test_growth_is_a_change_of_numeraire(self):
        # the barrier is flat for S*exp(-g*t), whose carry is mu - g, so the
        # price is exp(g*T) times the flat one at strike K*exp(-g*T)
        rng = random.Random(20261020)
        for i in range(2000):
            sigma, r, T = rng.uniform(0.05, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(0.1, 2.0)
            strike = 100.0 * math.exp(rng.uniform(math.log(0.3), math.log(3.0)))
            g = rng.uniform(-0.3, 0.3)
            p = MarketParams(mu=r, sigma=sigma, r=r, T=T)
            q = MarketParams(mu=r - g, sigma=sigma, r=r, T=T)
            for pricer, barrier in ((down_and_out_call_closed, 100.0 * rng.uniform(0.4, 0.98)),
                                    (up_and_out_call_closed, 100.0 * rng.uniform(1.02, 2.7))):
                curved = pricer(p, strike, barrier, 100.0, g).value
                flat = pricer(q, strike * math.exp(-g * T), barrier, 100.0).value
                assert abs(curved - math.exp(g * T) * flat) <= 1e-14 * (100.0 + strike), (i, pricer)

    @pytest.mark.parametrize("side, level, growth", [("lower", 85.0, 0.3), ("upper", 125.0, -0.2)])
    def test_matches_monte_carlo(self, side, level, growth):
        p = MarketParams(mu=0.10, sigma=0.30, r=0.10, T=0.5)
        curve = BarrierCurve.exponential(level, growth)
        spec = OptionSpec(payoff=Payoff.CALL, strike=95.0, barriers=BarrierSet(**{side: curve}))
        est = mc_price(p, spec, 100.0, McConfig(paths=200_000, steps_per_year=12, seed=7))
        pricer = down_and_out_call_closed if side == "lower" else up_and_out_call_closed
        closed = pricer(p, 95.0, level, 100.0, growth).value
        assert abs(est.value - closed) <= 3.0 * est.std_error


class TestSteepDrift:
    """Drifts that push the image weight (B/s0)^(2*mu1/sigma^2) past e^+-700."""

    @pytest.mark.parametrize("side, strike, barrier, r", sorted(KNOCKOUT_UNDER_STEEP_DRIFT))
    def test_reference_values(self, side, strike, barrier, r):
        # the lower row's image legs are below the smallest double; its
        # 6e-13 relative error is bs_vanilla's own cancellation, which the
        # down-and-out equals bit for bit
        p = MarketParams(mu=r, sigma=0.05, r=r, T=1.0)
        pricer = down_and_out_call_closed if side == "lower" else up_and_out_call_closed
        got = pricer(p, strike, barrier, 100.0).value
        want = KNOCKOUT_UNDER_STEEP_DRIFT[(side, strike, barrier, r)]
        assert got == pytest.approx(want, rel=1e-12, abs=0)

    def test_narrow_slab_takes_both_ends_of_the_image(self):
        # both ends of the slab sit 40 sd down the image's tail, and the
        # price is 1e-4 of each leg: exact to 1e-14 * (s0 + K)
        p = MarketParams(mu=1.0, sigma=0.05, r=1.0, T=1.0)
        got = up_and_out_call_closed(p, 271.7, 271.8, 100.0).value
        assert got == pytest.approx(NARROW_SLAB_UNDER_STEEP_DRIFT, abs=1e-14 * (100.0 + 271.7))

    def test_unreachable_lower_barrier_leaves_the_up_and_out(self):
        # the series once multiplied e^800 by a subnormal Phi difference
        # here and returned 20.82
        p = MarketParams(mu=1.0, sigma=0.05, r=1.0, T=1.0)
        dko = double_knockout_closed(p, 150.0, 50.0, 271.8, 100.0).value
        assert dko == pytest.approx(
            KNOCKOUT_UNDER_STEEP_DRIFT[("upper", 150.0, 271.8, 1.0)], rel=1e-12
        )

    def test_huge_rates_keep_every_leg_a_present_value(self):
        # e^(mu*T) passes e^700 and U/L overflows a double: the remote
        # corridor is the vanilla (its NaN legs once read as a silent 0),
        # and a far upper barrier under a drift of 750 sd is certain to be hit
        p = MarketParams(mu=217.0, sigma=0.0444, r=217.0, T=0.0411)
        van = bs_vanilla(p, Payoff.CALL, 0.873, 100.0).value
        dko = double_knockout_closed(p, 0.873, 3.45e-187, 3.42e262, 100.0).value
        assert dko == pytest.approx(van, rel=1e-14)
        q = MarketParams(mu=535.0, sigma=2.35, r=535.0, T=1.41)
        assert down_and_out_call_closed(q, 6496.0, 78.6, 100.0).value == 100.0
        assert up_and_out_call_closed(q, 6496.0, 1e200, 100.0).value == 0.0

    def test_seeded_sweep_stays_between_zero_and_the_vanilla(self):
        # a third of the draws has sigma <= 0.15 and |r| >= 1, where the
        # weights pass e^700; every knock-out, flat or exponential, is
        # finite, inside [0, vanilla], and each double is below both of its
        # single barriers
        rng = random.Random(20261019)
        for i in range(2000):
            if i % 3 == 0:
                sigma, r = rng.uniform(0.05, 0.15), rng.choice((-1.0, 1.0)) * rng.uniform(1.0, 3.0)
            else:
                sigma, r = rng.uniform(0.05, 1.0), rng.uniform(-3.0, 3.0)
            p = MarketParams(mu=r, sigma=sigma, r=r, T=rng.uniform(0.1, 2.0))
            lo, hi = 100.0 * rng.uniform(0.4, 0.98), 100.0 * rng.uniform(1.02, 2.7)
            strike = 100.0 * math.exp(rng.uniform(math.log(0.3), math.log(3.0)))
            growth = (rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            van = bs_vanilla(p, Payoff.CALL, strike, 100.0).value
            dao = down_and_out_call_closed(p, strike, lo, 100.0).value
            uo = up_and_out_call_closed(p, strike, hi, 100.0).value
            dko = double_knockout_closed(p, strike, lo, hi, 100.0).value
            dao_g = down_and_out_call_closed(p, strike, lo, 100.0, growth[0]).value
            uo_g = up_and_out_call_closed(p, strike, hi, 100.0, growth[1]).value
            prices = [dao, uo, dko, dao_g, uo_g]
            if lo * math.exp(growth[0] * p.T) < hi * math.exp(growth[1] * p.T):
                dko_g = double_knockout_closed(p, strike, lo, hi, 100.0, growth).value
                prices.append(dko_g)
                assert dko_g <= min(dao_g, uo_g) + 1e-12, (i, prices)
            for v in prices:
                assert 0.0 <= v <= van * (1.0 + 1e-9) + 1e-12, (i, prices, van)
            assert dko <= min(dao, uo) + 1e-12, (i, prices)


DKO = BarrierSet(lower=BarrierCurve.flat(70.0), upper=BarrierCurve.flat(130.0))
# every entry point that takes a price level (s0, strike or a flat
# barrier), with that level as `x`; and the PDE's own horizon, which no
# MarketParams guards
PRICE_LEVEL_ENTRIES = {
    "bs_vanilla-s0": lambda p, x: bs_vanilla(p, Payoff.CALL, 100.0, x),
    "bs_vanilla-strike": lambda p, x: bs_vanilla(p, Payoff.CALL, x, 100.0),
    "down_and_out-s0": lambda p, x: down_and_out_call_closed(p, 100.0, 70.0, x),
    "down_and_out-strike": lambda p, x: down_and_out_call_closed(p, x, 70.0, 100.0),
    "down_and_out-barrier": lambda p, x: down_and_out_call_closed(p, 100.0, x, 100.0),
    "up_and_out-s0": lambda p, x: up_and_out_call_closed(p, 100.0, 130.0, x),
    "up_and_out-strike": lambda p, x: up_and_out_call_closed(p, x, 130.0, 100.0),
    "up_and_out-barrier": lambda p, x: up_and_out_call_closed(p, 100.0, x, 100.0),
    "double_knockout-s0": lambda p, x: double_knockout_closed(p, 100.0, 70.0, 130.0, x),
    "double_knockout-strike": lambda p, x: double_knockout_closed(p, x, 70.0, 130.0, 100.0),
    "double_knockout-upper": lambda p, x: double_knockout_closed(p, 100.0, 70.0, x, 100.0),
    "breach_closed-s0": lambda p, x: breach_prob_closed(p, BarrierSet(lower=BarrierCurve.flat(70.0)), x),
    "breach_closed-barrier": lambda p, x: breach_prob_closed(p, BarrierSet(lower=BarrierCurve.flat(x)), 100.0),
    "barrier_curve-level": lambda p, x: BarrierCurve.exponential(x, 0.1),
    "option_spec-strike": lambda p, x: OptionSpec(payoff=Payoff.CALL, strike=x),
    "numeric_critical-barrier": lambda p, x: numeric_critical_price(
        p, 100.0, x, "lower", 1e-6, down_and_out_call_closed),
    "numeric_critical-strike": lambda p, x: numeric_critical_price(
        p, x, 70.0, "lower", 1e-6, down_and_out_call_closed),
    "breach_mc-s0": lambda p, x: breach_prob_mc(p, DKO, x, McConfig(paths=10)),
    "breach_pde-s0": lambda p, x: breach_prob_pde(p, DKO, x, p.T, default_grid(p, DKO, 100.0, p.T)),
    "breach_pde-T": lambda p, x: breach_prob_pde(p, DKO, 100.0, x, default_grid(p, DKO, 100.0, p.T)),
    "mc_price-s0": lambda p, x: mc_price(
        p, OptionSpec(payoff=Payoff.CALL, strike=100.0, barriers=DKO), x, McConfig(paths=10)
    ),
}


@pytest.mark.parametrize("entry", sorted(PRICE_LEVEL_ENTRIES))
@pytest.mark.parametrize("level", [math.nan, math.inf, -math.inf, 0.0, -5.0])
def test_non_finite_or_non_positive_price_level_rejected(entry, level):
    # a NaN slips past every `x <= 0` guard, so each entry point must
    # raise rather than return nan (or a silent 0.0), naming the level
    name = entry.rsplit("-", 1)[1]
    with pytest.raises(DomainError, match=rf"^(barrier )?{name}( level)? must be positive and finite"):
        PRICE_LEVEL_ENTRIES[entry](mk_params(), level)


# every entry point that takes a barrier growth rate, with that rate as `g`
GROWTH_ENTRIES = {
    "down_and_out": lambda p, g: down_and_out_call_closed(p, 100.0, 70.0, 100.0, g),
    "up_and_out": lambda p, g: up_and_out_call_closed(p, 100.0, 130.0, 100.0, g),
    "double_knockout-lower": lambda p, g: double_knockout_closed(p, 100.0, 70.0, 130.0, 100.0, (g, 0.0)),
    "double_knockout-upper": lambda p, g: double_knockout_closed(p, 100.0, 70.0, 130.0, 100.0, (0.0, g)),
    "barrier_curve": lambda p, g: BarrierCurve.exponential(70.0, g),
}


@pytest.mark.parametrize("entry", sorted(GROWTH_ENTRIES))
@pytest.mark.parametrize("growth", [math.nan, math.inf, -math.inf])
def test_non_finite_growth_rejected(entry, growth):
    # a NaN growth once priced to nan (down-and-out) or 0 (up-and-out), an
    # infinite one to the vanilla, and the double failed converting nan to int
    with pytest.raises(DomainError, match="^barrier growth must be finite$"):
        GROWTH_ENTRIES[entry](mk_params(), growth)


class TestGrowthPastDoublePrecision:
    """At T = 50 a growth of 20 takes 70*e^{20t} past 1e308."""

    def test_barrier_level_is_a_numerics_error(self):
        lower = BarrierCurve.exponential(70.0, 20.0)
        assert lower.value_at(35.0, 50.0) == 70.0 * math.exp(700.0)
        with pytest.raises(NumericsError, match="leaves double precision"):
            lower.value_at(50.0, 50.0)
        with pytest.raises(NumericsError, match="leaves double precision"):
            BarrierSet(lower=lower, upper=BarrierCurve.flat(1e300)).check_ordering(50.0)
        with pytest.raises(NumericsError, match="leaves double precision"):
            BarrierCurve.exponential(70.0, -20.0).value_at(50.0, 50.0)  # 70*e^-1000 underflows

    def test_double_compares_its_barriers_in_log_space(self):
        # L_T and U_T are e^1004 and e^1505: the corridor stays open, and a
        # floor rising at 20 a year knocks out every path
        p = mk_params(T=50.0)
        value = double_knockout_closed(p, 100.0, 70.0, 130.0, 100.0, (20.0, 30.0)).value
        assert 0.0 <= value < 1e-300
        with pytest.raises(DomainError, match="barriers cross before expiry"):
            double_knockout_closed(p, 100.0, 70.0, 130.0, 100.0, (30.0, 20.0))
