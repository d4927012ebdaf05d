"""Monte Carlo pricer: agreement with closed forms and determinism.

Seeds are fixed, so the 3-standard-error checks are reproducible
regressions rather than flaky statistical gates.
"""

import pytest

from barrierkit.model import (
    BarrierCurve,
    BarrierSet,
    DomainError,
    MarketParams,
    OptionSpec,
    Payoff,
    PricingMethod,
)
from barrierkit.pricing import engine
from barrierkit.pricing.closed import (
    bs_vanilla,
    double_knockout_closed,
    down_and_out_call_closed,
)
from barrierkit.pricing.mc import McConfig, mc_price


def mk_params(sigma=0.30, T=0.25, r=0.10):
    return MarketParams(mu=r, sigma=sigma, r=r, T=T)


def spec_dko(strike=100.0, lower=70.0, upper=130.0, payoff=Payoff.CALL):
    return OptionSpec(
        payoff=payoff,
        strike=strike,
        barriers=BarrierSet(
            lower=BarrierCurve.flat(lower), upper=BarrierCurve.flat(upper)
        ),
    )


class TestAgainstClosed:
    def test_vanilla_call(self):
        p = mk_params()
        spec = OptionSpec(payoff=Payoff.CALL, strike=100.0)
        est = mc_price(p, spec, 100.0, McConfig(paths=100_000, steps_per_year=52, seed=3))
        ref = bs_vanilla(p, Payoff.CALL, 100.0, 100.0).value
        assert est.std_error > 0.0
        assert abs(est.value - ref) <= 3.0 * est.std_error

    def test_vanilla_put(self):
        p = mk_params()
        spec = OptionSpec(payoff=Payoff.PUT, strike=100.0)
        est = mc_price(p, spec, 100.0, McConfig(paths=100_000, steps_per_year=52, seed=3))
        ref = bs_vanilla(p, Payoff.PUT, 100.0, 100.0).value
        assert abs(est.value - ref) <= 3.0 * est.std_error

    def test_down_and_out(self):
        p = mk_params()
        spec = OptionSpec(
            payoff=Payoff.CALL,
            strike=100.0,
            barriers=BarrierSet(lower=BarrierCurve.flat(70.0)),
        )
        est = mc_price(p, spec, 100.0, McConfig(paths=100_000, steps_per_year=200, seed=7))
        ref = down_and_out_call_closed(p, 100.0, 70.0, 100.0).value
        assert abs(est.value - ref) <= 3.0 * est.std_error

    def test_double_knockout(self):
        p = mk_params()
        est = mc_price(p, spec_dko(), 100.0, McConfig(paths=100_000, steps_per_year=200, seed=7))
        ref = double_knockout_closed(p, 100.0, 70.0, 130.0, 100.0).value
        assert abs(est.value - ref) <= 3.0 * est.std_error

    def test_exponential_corridor(self):
        p = mk_params()
        spec = OptionSpec(
            payoff=Payoff.CALL,
            strike=100.0,
            barriers=BarrierSet(
                lower=BarrierCurve.exponential(70.0, -0.2),
                upper=BarrierCurve.exponential(130.0, 0.2),
            ),
        )
        est = mc_price(p, spec, 100.0, McConfig(paths=100_000, steps_per_year=400, seed=5))
        ref = double_knockout_closed(p, 100.0, 70.0, 130.0, 100.0, (-0.2, 0.2)).value
        assert abs(est.value - ref) <= 3.0 * est.std_error


class TestBridge:
    def test_coarse_steps_carry_no_bias(self):
        # ten steps over the horizon: the bridge weights monitor the flat
        # barriers continuously, so the price still meets the closed form
        p = mk_params()
        ref = double_knockout_closed(p, 100.0, 70.0, 130.0, 100.0).value
        est = mc_price(p, spec_dko(), 100.0, McConfig(paths=200_000, steps_per_year=40, seed=13))
        assert abs(est.value - ref) <= 3.0 * est.std_error


class TestDeterminism:
    def test_row_slice_invariance(self, monkeypatch):
        # a budget of 100 rows shared by the workers instead of whole
        # 4096-path blocks
        p = mk_params()
        cfg = McConfig(paths=30_000, steps_per_year=100, seed=2)
        a = mc_price(p, spec_dko(), 100.0, cfg)
        row = engine._Buffers.row_bytes(25, 25, 2)
        monkeypatch.setattr(engine, "_BLOCK_BYTES", 100 * row)
        b = mc_price(p, spec_dko(), 100.0, cfg)
        assert a.value == b.value
        assert a.std_error == b.std_error

    def test_worker_count_invariance(self, monkeypatch):
        p = mk_params()
        cfg = McConfig(paths=30_000, steps_per_year=100, seed=2)
        monkeypatch.setattr(engine, "_B", 1024)  # 30 blocks
        a = mc_price(p, spec_dko(), 100.0, cfg, workers=1)
        b = mc_price(p, spec_dko(), 100.0, cfg, workers=3)
        assert a.value == b.value

    def test_seed_changes_result(self):
        p = mk_params()
        a = mc_price(p, spec_dko(), 100.0, McConfig(paths=10_000, steps_per_year=100, seed=1))
        b = mc_price(p, spec_dko(), 100.0, McConfig(paths=10_000, steps_per_year=100, seed=2))
        assert a.value != b.value


class TestEdges:
    def test_knocked_out_at_inception_prices_zero(self):
        p = mk_params()
        for s0 in (65.0, 135.0):
            est = mc_price(p, spec_dko(), s0, McConfig(paths=100, steps_per_year=10, seed=0))
            assert (est.value, est.std_error) == (0.0, 0.0)

    def test_method_tag(self):
        p = mk_params()
        est = mc_price(p, spec_dko(), 100.0, McConfig(paths=1000, steps_per_year=20, seed=0))
        assert est.method is PricingMethod.MONTE_CARLO

    def test_domain(self):
        p = mk_params()
        with pytest.raises(DomainError):
            mc_price(p, spec_dko(), -5.0, McConfig(paths=100, steps_per_year=10, seed=0))
        with pytest.raises(DomainError):
            McConfig(paths=0)
        with pytest.raises(DomainError):
            McConfig(seed=2**64)
        with pytest.raises(DomainError):
            McConfig(steps_per_year=0)
