"""Domain type construction, validation, and barrier-curve evaluation."""

import math

import pytest

from barrierkit.classify import classify_double, classify_down_and_out, classify_up_and_out
from barrierkit.model import (
    BarrierCurve,
    BarrierOrderError,
    BarrierSet,
    Classification,
    DomainError,
    KnotOrderError,
    MarketParams,
    OptionSpec,
    Payoff,
    PriceEstimate,
)
from barrierkit.critical import critical_prices
from barrierkit.passage import breach_prob_mc, breach_prob_pde, default_grid
from barrierkit.pricing.closed import (breach_prob_closed, double_knockout_closed,
                                       down_and_out_call_closed)
from barrierkit.pricing.engine import path_moments
from barrierkit.pricing.mc import McConfig, mc_price


def mk_params(sigma=0.3, T=0.25, r=0.10):
    return MarketParams(mu=r, sigma=sigma, r=r, T=T)


class TestMarketParams:
    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(DomainError):
            MarketParams(mu=0.1, sigma=0.0, r=0.1, T=0.25)
        with pytest.raises(DomainError):
            MarketParams(mu=0.1, sigma=-0.2, r=0.1, T=0.25)

    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(DomainError):
            MarketParams(mu=0.1, sigma=0.3, r=0.1, T=0.0)

    def test_rejects_nonfinite_fields(self):
        with pytest.raises(DomainError):
            MarketParams(mu=math.nan, sigma=0.3, r=0.1, T=0.25)
        with pytest.raises(DomainError):
            MarketParams(mu=0.1, sigma=0.3, r=math.inf, T=0.25)


class TestBarrierCurve:
    def test_flat_evaluation(self):
        c = BarrierCurve.flat(70.0)
        assert c.value_at(0.2, 1.0) == 70.0
        assert c.value_at(0.0, 1.0) == 70.0

    def test_exponential_at_zero_is_level(self):
        c = BarrierCurve.exponential(70.0, 0.1)
        assert c.value_at(0.0, 1.0) == 70.0
        assert c.value_at(0.5, 1.0) == pytest.approx(70.0 * math.exp(0.05), rel=1e-15)

    def test_exponential_zero_growth_matches_flat_exactly(self):
        flat = BarrierCurve.flat(70.0)
        exp = BarrierCurve.exponential(70.0, 0.0)
        for i in range(101):
            t = i / 100.0
            assert exp.value_at(t, 1.0) == flat.value_at(t, 1.0)
        # a flat barrier is the line at growth 0, not a shape of its own
        assert flat == exp

    def test_direct_construction_is_a_table_exactly_when_it_has_knots(self):
        assert BarrierCurve(level=70.0) == BarrierCurve.flat(70.0)
        assert BarrierCurve(level=70.0, growth=0.1) == BarrierCurve.exponential(70.0, 0.1)
        knots = ((0.0, 70.0), (1.0, 80.0))
        assert BarrierCurve(knots=knots) == BarrierCurve.tabulated(knots)
        with pytest.raises(KnotOrderError):
            BarrierCurve(knots=((0.5, 70.0), (1.0, 80.0)))
        # one knot built directly is a table covering t = 0 alone, refused past it
        with pytest.raises(KnotOrderError):
            BarrierCurve(knots=((0.0, 70.0),)).value_at(0.1, 1.0)

    def test_tabulated_log_linear_midpoint(self):
        c = BarrierCurve.tabulated([(0.0, 70.0), (1.0, 77.0)])
        # 70 * (77/70)^0.5, frozen at high precision
        assert c.value_at(0.5, 1.0) == pytest.approx(73.4166193719106083, rel=1e-14)

    def test_tabulated_reproduces_exponential(self):
        delta = 0.08
        exp = BarrierCurve.exponential(70.0, delta)
        knots = [(i / 4.0, exp.value_at(i / 4.0, 1.0)) for i in range(5)]
        tab = BarrierCurve.tabulated(knots)
        for t, v in knots:
            assert tab.value_at(t, 1.0) == v  # knots exact
        fine = BarrierCurve.tabulated(
            [(i / 999.0, exp.value_at(i / 999.0, 1.0)) for i in range(1000)]
        )
        for i in range(997):
            t = (i + 0.5) / 999.0
            assert fine.value_at(t, 1.0) == pytest.approx(exp.value_at(t, 1.0), rel=1e-12)

    def test_tabulated_knot_validation(self):
        with pytest.raises(KnotOrderError):
            BarrierCurve.tabulated([(0.0, 70.0)])
        with pytest.raises(KnotOrderError):
            BarrierCurve.tabulated([(0.0, 70.0), (0.0, 71.0)])
        with pytest.raises(KnotOrderError):
            BarrierCurve.tabulated([(0.5, 70.0), (0.2, 71.0)])
        with pytest.raises(KnotOrderError):
            # first knot must anchor t = 0
            BarrierCurve.tabulated([(0.1, 70.0), (0.5, 71.0)])
        with pytest.raises(DomainError):
            BarrierCurve.tabulated([(0.0, 70.0), (0.5, -1.0)])
        # every comparison with NaN is false, so the order checks alone pass these
        for t0, t1 in ((math.nan, 1.0), (0.0, math.nan), (-math.inf, 1.0), (0.0, math.inf)):
            with pytest.raises(DomainError, match="finite"):
                BarrierCurve.tabulated([(t0, 70.0), (t1, 80.0)])

    def test_breakpoints_and_extremes(self):
        c = BarrierCurve.tabulated([(-0.5, 70.0), (0.2, 66.0), (0.6, 75.0), (2.0, 71.0)])
        assert c.breakpoints(1.0) == (0.0, 0.2, 0.6, 1.0)
        assert c.extremes(1.0) == (66.0, 75.0)
        e = BarrierCurve.exponential(70.0, -0.1)
        assert e.breakpoints(1.0) == (0.0, 1.0)
        assert e.extremes(1.0) == (e.value_at(1.0, 1.0), 70.0)

    def test_tabulated_coverage(self):
        c = BarrierCurve.tabulated([(0.0, 70.0), (0.5, 72.0)])
        assert c.value_at(0.5, 1.0) == 72.0
        with pytest.raises(KnotOrderError):
            c.value_at(0.7, 1.0)

    def test_time_outside_horizon_rejected(self):
        c = BarrierCurve.flat(70.0)
        with pytest.raises(DomainError):
            c.value_at(-0.1, 1.0)
        with pytest.raises(DomainError):
            c.value_at(1.5, 1.0)

    def test_nonpositive_level_rejected(self):
        with pytest.raises(DomainError):
            BarrierCurve.flat(0.0)
        with pytest.raises(DomainError):
            BarrierCurve.flat(-70.0)


class TestBarrierSet:
    def test_ordering_violation(self):
        bs = BarrierSet(lower=BarrierCurve.flat(120.0), upper=BarrierCurve.flat(110.0))
        with pytest.raises(BarrierOrderError):
            bs.check_ordering(0.25)

    def test_crossing_curves_caught_on_grid(self):
        # lower grows past the flat upper inside the horizon
        bs = BarrierSet(
            lower=BarrierCurve.exponential(90.0, 0.5),
            upper=BarrierCurve.flat(100.0),
        )
        with pytest.raises(BarrierOrderError):
            bs.check_ordering(1.0)

    def test_crossing_caught_at_the_other_curves_knot(self):
        # the upper curve steps up just after its knot at 0.1234, where the
        # lower curve, rising to its own knot, already lies above it
        bs = BarrierSet(
            lower=BarrierCurve.tabulated([(0.0, 90.0), (0.1234567, 101.0), (1.0, 90.0)]),
            upper=BarrierCurve.tabulated([(0.0, 100.0), (0.1234, 100.0), (0.1235, 102.0), (1.0, 102.0)]),
        )
        with pytest.raises(BarrierOrderError, match="t=0.1234"):
            bs.check_ordering(1.0)

    def test_ordering_is_decided_on_the_log_width(self):
        # below 130 in price, but ln 130 - ln 129.99999999999997 rounds to 0, the
        # width every image series divides by: every breach route refuses it
        bs = BarrierSet(lower=BarrierCurve.tabulated([(0.0, 70.0), (0.25, 129.99999999999997)]),
                        upper=BarrierCurve.flat(130.0))
        params = mk_params()
        with pytest.raises(BarrierOrderError, match="t=0.25"):
            bs.check_ordering(params.T)
        with pytest.raises(BarrierOrderError):
            breach_prob_mc(params, bs, 100.0, McConfig(paths=1000))
        with pytest.raises(BarrierOrderError):
            breach_prob_pde(params, bs, 100.0, params.T, default_grid(params, bs, 100.0, params.T))

    def test_single_side_always_ordered(self):
        BarrierSet(lower=BarrierCurve.flat(70.0)).check_ordering(0.25)
        BarrierSet(upper=BarrierCurve.flat(130.0)).check_ordering(0.25)
        BarrierSet().check_ordering(0.25)

    def test_breakpoints_are_both_curves_knots_in_order(self):
        # the union, each time once, 0 and T always, knots outside (0, T) left out
        bs = BarrierSet(
            lower=BarrierCurve.tabulated([(-0.5, 90.0), (0.1, 92.0), (1.0, 90.0)]),
            upper=BarrierCurve.tabulated([(0.0, 120.0), (0.1, 119.0), (0.2, 118.0), (0.3, 121.0),
                                          (0.8, 119.0)]),
        )
        assert bs.breakpoints(0.5) == (0.0, 0.1, 0.2, 0.3, 0.5)
        assert BarrierSet(lower=BarrierCurve.flat(70.0)).breakpoints(0.25) == (0.0, 0.25)
        assert BarrierSet().breakpoints(0.25) == (0.0, 0.25)

    def test_any_present(self):
        assert not BarrierSet().any_present
        assert BarrierSet(lower=BarrierCurve.flat(70.0)).any_present


class TestInception:
    """side_at_inception decides on the log gaps the path engine walks."""

    LOWER = BarrierSet(lower=BarrierCurve.flat(70.0))
    UPPER = BarrierSet(upper=BarrierCurve.flat(130.0))
    CORRIDOR = BarrierSet(lower=BarrierCurve.flat(70.0), upper=BarrierCurve.flat(130.0))

    # inside in price, on the line in log: log(nextafter(70)) == log(70), and in the
    # corridor log(s0) - log(70) rounds to the width log(130) - log(70)
    @pytest.mark.parametrize("barriers, s0, side", [
        (LOWER, 70.00000000000001, "lower"),
        (CORRIDOR, 70.00000000000001, "lower"),
        (CORRIDOR, 129.99999999999997, "upper"),
    ], ids=["lower", "corridor-lower", "corridor-upper"])
    def test_within_ulps_of_a_line_every_pricer_answers(self, barriers, s0, side):
        params = mk_params()
        assert barriers.side_at_inception(s0, params.T, past_ok=False) == side
        spec = OptionSpec(payoff=Payoff.CALL, strike=100.0, barriers=barriers)
        cfg = McConfig(paths=1000)
        assert mc_price(params, spec, s0, cfg).value == 0.0
        est = breach_prob_mc(params, barriers, s0, cfg)
        assert (est.p_lower, est.p_upper) == ((1.0, 0.0) if side == "lower" else (0.0, 1.0))
        grid = default_grid(params, barriers, s0, params.T)
        assert breach_prob_pde(params, barriers, s0, params.T, grid) == 1.0
        assert breach_prob_closed(params, barriers, s0) == 1.0
        # the closed knock-out and the classifier read the same rule
        if barriers.upper is None:
            assert down_and_out_call_closed(params, 60.0, 70.0, s0).value == 0.0
        else:
            assert double_knockout_closed(params, 100.0, 70.0, 130.0, s0).value == 0.0
        ko = Classification.KNOCKED_OUT_AT_INCEPTION
        assert classify_double(s0, *barriers.levels_at(0.0, params.T), 99.0, 88.0) is ko
        single = (classify_down_and_out(s0, 70.0, 99.0) if side == "lower"
                  else classify_up_and_out(s0, 130.0, 88.0))
        assert single is ko

    @pytest.mark.parametrize("barriers", [
        LOWER, UPPER, CORRIDOR,
        BarrierSet(lower=BarrierCurve.exponential(70.0, 0.3),
                   upper=BarrierCurve.tabulated([(0.0, 130.0), (0.25, 120.0)])),
    ], ids=["lower", "upper", "corridor", "curved-corridor"])
    def test_the_engine_refuses_exactly_where_inception_says(self, barriers):
        params, cfg = mk_params(), McConfig(paths=8, steps_per_year=12)
        levels = [c.value_at(0.0, params.T) for c in (barriers.lower, barriers.upper) if c]
        seen = set()
        for level in levels:
            s0 = level
            for _ in range(4):
                s0 = math.nextafter(s0, 0.0)
            for _ in range(9):
                side = barriers.side_at_inception(s0, params.T)
                seen.add(side)
                if side is None:
                    path_moments(params, barriers, s0, cfg, lambda x_T, w, m_l, m_u: (w,))
                else:
                    with pytest.raises(DomainError, match="on or past a barrier"):
                        path_moments(params, barriers, s0, cfg, lambda x_T, w, m_l, m_u: (w,))
                s0 = math.nextafter(s0, math.inf)
        assert None in seen and len(seen) == 1 + len(levels)


class TestOptionSpec:
    def test_payoff_accepts_string_forms(self):
        assert OptionSpec(payoff="call", strike=100.0).payoff is Payoff.CALL
        assert OptionSpec(payoff="put", strike=100.0).payoff is Payoff.PUT
        with pytest.raises(DomainError, match="^payoff must be 'call' or 'put', got 'straddle'$"):
            OptionSpec(payoff="straddle", strike=100.0)

    def test_strike_domain(self):
        with pytest.raises(DomainError):
            OptionSpec(payoff=Payoff.CALL, strike=0.0)

    def test_ordering_checked_through_check_ordering(self):
        spec = OptionSpec(
            payoff=Payoff.CALL,
            strike=100.0,
            barriers=BarrierSet(
                lower=BarrierCurve.flat(120.0), upper=BarrierCurve.flat(110.0)
            ),
        )
        with pytest.raises(BarrierOrderError):
            spec.barriers.check_ordering(mk_params().T)

    def test_knot_coverage_checked_by_the_pricers(self):
        # knots ending before T: the first level asked for past 0.1 refuses
        spec = OptionSpec(
            payoff=Payoff.CALL,
            strike=100.0,
            barriers=BarrierSet(lower=BarrierCurve.tabulated([(0.0, 70.0), (0.1, 71.0)])),
        )
        p = mk_params(T=0.25)
        with pytest.raises(KnotOrderError):
            mc_price(p, spec, 100.0, McConfig(paths=1000, seed=1))
        with pytest.raises(KnotOrderError):
            critical_prices(p, spec.barriers, 3.0)


class TestMcConfig:
    def test_defined_once_beside_the_market(self):
        # the engine, the pricers and the CLI read one type; the package
        # exports it without loading NumPy, and pricing.mc re-exports it
        import barrierkit
        from barrierkit import model

        assert McConfig is model.McConfig is barrierkit.McConfig
        assert McConfig.__module__ == "barrierkit.model"
        assert "McConfig" not in barrierkit._LAZY


class TestPriceEstimate:
    def test_negative_std_error_rejected(self):
        with pytest.raises(DomainError):
            PriceEstimate(value=1.0, std_error=-0.1)
