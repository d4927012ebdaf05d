"""Monte Carlo pricer: agreement with closed forms and determinism.

Seeds are fixed, so the 3-standard-error checks are reproducible
regressions rather than flaky statistical gates.
"""

import pytest

from barrierkit import McConfig
from barrierkit.model import (
    BarrierCurve,
    BarrierSet,
    DomainError,
    MarketParams,
    OptionSpec,
    Payoff,
    PricingMethod,
)
from barrierkit.pricing import engine, mc
from barrierkit.pricing.closed import (
    bs_vanilla,
    double_knockout_closed,
    down_and_out_call_closed,
)
from barrierkit.pricing.mc import mc_price


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


def _mc_pin_cases():
    """Inputs whose mc_price results are frozen bit for bit in MC_PINS."""
    p = mk_params()
    # 0.1037 and 0.0601 fall between the uniform time nodes k*T/25
    tab_lower = BarrierCurve.tabulated([(0.0, 70.0), (0.1037, 85.0), (0.25, 75.0)])
    tab_upper = BarrierCurve.tabulated([(0.0, 130.0), (0.0601, 118.0), (0.25, 125.0)])
    exp_pair = BarrierSet(lower=BarrierCurve.exponential(70.0, -0.2), upper=BarrierCurve.exponential(130.0, 0.2))
    lower, upper = BarrierSet(lower=BarrierCurve.flat(70.0)), BarrierSet(upper=BarrierCurve.flat(130.0))
    dko = spec_dko().barriers
    cases = {
        "down-and-out call": (Payoff.CALL, 100.0, lower),
        "down-and-out call, strike below the barrier": (Payoff.CALL, 60.0, lower),
        "up-and-out put": (Payoff.PUT, 100.0, upper),
        "double knock-out call": (Payoff.CALL, 100.0, dko),
        "double knock-out put": (Payoff.PUT, 95.0, dko),
        "exponential corridor call": (Payoff.CALL, 105.0, exp_pair),
        "exponential lower put": (Payoff.PUT, 100.0, BarrierSet(lower=BarrierCurve.exponential(80.0, 0.3))),
        "tabulated lower call off the nodes": (Payoff.CALL, 100.0, BarrierSet(lower=tab_lower)),
        "tabulated corridor put off the nodes": (Payoff.PUT, 100.0, BarrierSet(lower=tab_lower, upper=tab_upper)),
    }
    cfg = McConfig(paths=20_000, steps_per_year=100, seed=11)
    return {name: (p, OptionSpec(payoff=payoff, strike=k, barriers=bs), cfg)
            for name, (payoff, k, bs) in cases.items()}


# (value, std_error) as float.hex: a change to the engine that is meant to
# be exact keeps every bit
MC_PINS = {
    "down-and-out call": ("0x1.cd18bdbf1a7d3p+2", "0x1.2eeed2954e78ap-4"),
    "down-and-out call, strike below the barrier": ("0x1.49ef724b2f87cp+5", "0x1.c1d4e6bae4d29p-4"),
    "up-and-out put": ("0x1.34afd5a90c6ddp+2", "0x1.a13bcc2a74b3bp-5"),
    "double knock-out call": ("0x1.17644027cf008p+2", "0x1.77119ce30b64cp-5"),
    "double knock-out put": ("0x1.425b6daa3d54dp+1", "0x1.146055868323bp-5"),
    "exponential corridor call": ("0x1.aeb68b11b0f07p+1", "0x1.59b801fd02491p-5"),
    "exponential lower put": ("0x1.300cf53566fd7p+0", "0x1.247f3f4c1f22cp-6"),
    "tabulated lower call off the nodes": ("0x1.c83b801115eeep+2", "0x1.2a54c5c92abcep-4"),
    "tabulated corridor put off the nodes": ("0x1.5b0fc377f08cbp+1", "0x1.14986794c59cep-5"),
}


class TestPinnedBits:
    @pytest.mark.parametrize("name", sorted(MC_PINS))
    def test_pinned_bits(self, name):
        p, spec, cfg = _mc_pin_cases()[name]
        est = mc_price(p, spec, 100.0, cfg)
        assert (est.value.hex(), est.std_error.hex()) == MC_PINS[name]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name", sorted(MC_PINS))
    def test_bridge_runs_only_on_paths_that_pay(self, name, workers, monkeypatch):
        # the price's engine run, read again over every path: the same
        # moments bit for bit, from no more listed cells
        runs = []

        def spy(*args, **kw):
            runs.append((args, kw, engine.path_moments(*args, **kw)))
            return runs[-1][-1]

        monkeypatch.setattr(mc, "path_moments", spy)
        p, spec, cfg = _mc_pin_cases()[name]
        mc_price(p, spec, 100.0, cfg, workers)
        [(args, kw, paid)] = runs
        assert kw["reads"] is not None
        every = engine.path_moments(*args, **dict(kw, reads=None))
        assert (paid.mean.tobytes(), paid.m2.tobytes()) == (every.mean.tobytes(), every.m2.tobytes())
        assert paid.near_cells <= every.near_cells
