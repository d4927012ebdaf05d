"""Monte Carlo barrier pricing on exact lognormal path transitions.

The only discretization is barrier monitoring, and the bridge test
corrects most of that; path transitions themselves are sampled from the
exact terminal law of each step. Rebates are paid at expiry, so a single
discount factor applies to every outcome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..model import (
    DomainError,
    MarketParams,
    OptionSpec,
    Payoff,
    PriceEstimate,
    PricingMethod,
    require_price_level,
)
from .engine import STATUS_ALIVE, STATUS_LOWER, STATUS_UPPER, simulate_paths


@dataclass(frozen=True)
class McConfig:
    """Paths, steps and seed: all that a Monte Carlo result depends on."""

    paths: int = 100_000
    steps_per_year: int = 365
    seed: int = 0

    def __post_init__(self) -> None:
        if self.paths < 1:
            raise DomainError(f"paths must be >= 1, got {self.paths}")
        if self.steps_per_year < 1:
            raise DomainError(f"steps_per_year must be >= 1, got {self.steps_per_year}")
        if not 0 <= self.seed < 2**64:
            raise DomainError(f"seed must fit in 64 bits, got {self.seed}")


def _mean_se(y: np.ndarray) -> tuple[float, float]:
    n = y.size
    mean = float(np.sum(y) / n)
    if n < 2:
        return mean, 0.0
    var = float(np.sum((y - mean) ** 2)) / (n - 1)
    return mean, math.sqrt(max(var, 0.0) / n)


def mc_price(
    params: MarketParams,
    spec: OptionSpec,
    s0: float,
    cfg: McConfig,
    workers: int | None = None,
    bridge: bool = True,
) -> PriceEstimate:
    """Price spec by bridged Monte Carlo; deterministic in (seed, paths,
    steps_per_year), whatever the worker count. workers=None runs on
    every CPU this process may use.

    bridge=False downgrades to naive discrete monitoring on the same
    draws, for measuring what the bridge correction is worth.
    """
    require_price_level("s0", s0)
    disc = math.exp(-params.r * params.T)
    side = spec.barriers.side_at_inception(s0, params.T)
    if side is not None:
        rebate = spec.rebate_lower if side == "lower" else spec.rebate_upper
        return PriceEstimate(value=disc * rebate, std_error=0.0, method=PricingMethod.MONTE_CARLO)

    res = simulate_paths(
        params, spec.barriers, s0,
        paths=cfg.paths, steps_per_year=cfg.steps_per_year,
        seed=cfg.seed, workers=workers, bridge=bridge,
    )
    payoff = np.empty(cfg.paths, dtype=np.float64)
    alive = res.status == STATUS_ALIVE
    s_T = np.exp(res.x_final[alive])
    if spec.payoff is Payoff.CALL:
        payoff[alive] = np.maximum(s_T - spec.strike, 0.0)
    else:
        payoff[alive] = np.maximum(spec.strike - s_T, 0.0)
    payoff[res.status == STATUS_LOWER] = spec.rebate_lower
    payoff[res.status == STATUS_UPPER] = spec.rebate_upper
    mean, se = _mean_se(disc * payoff)
    return PriceEstimate(value=mean, std_error=se, method=PricingMethod.MONTE_CARLO)
