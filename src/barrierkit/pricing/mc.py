"""Monte Carlo barrier pricing: a thin integrand on the conditional path engine.

Path transitions are exact lognormal steps, and the engine's bridge
weights make monitoring continuous and exact: every barrier is log-linear
between its nodes, which include each knot, so each path pays
disc * (weight * payoff(S_T) + rebate_l * mass_l + rebate_u * mass_u).
Rebates are paid at expiry, so a single discount factor applies to
every outcome. The run itself (paths, steps a year, seed) is a
`model.McConfig`, which the engine reads whole; it is importable from
here too.
"""

from __future__ import annotations

import math

import numpy as np

from ..model import (MarketParams, McConfig, OptionSpec, Payoff, PriceEstimate, PricingMethod,
                     require_price_level)
from .engine import path_moments


def mc_price(
    params: MarketParams,
    spec: OptionSpec,
    s0: float,
    cfg: McConfig,
    workers: int | None = None,
) -> PriceEstimate:
    """Price spec by Monte Carlo, monitored continuously through the
    engine's bridge weights; deterministic in cfg, whatever the worker
    count. workers=None runs on every CPU this process may use.
    """
    require_price_level("s0", s0)
    disc = math.exp(-params.r * params.T)
    side = spec.barriers.side_at_inception(s0, params.T)
    if side is not None:
        rebate = spec.rebate_lower if side == "lower" else spec.rebate_upper
        return PriceEstimate(value=disc * rebate, std_error=0.0, method=PricingMethod.MONTE_CARLO)

    sign = 1.0 if spec.payoff is Payoff.CALL else -1.0

    def discounted_payoff(x_T, weight, mass_l, mass_u):
        payoff = np.maximum(sign * (np.exp(x_T) - spec.strike), 0.0)
        return (disc * (weight * payoff + spec.rebate_lower * mass_l + spec.rebate_upper * mass_u),)

    res = path_moments(params, spec.barriers, s0, cfg, discounted_payoff, workers)
    return PriceEstimate(value=float(res.mean[0]), std_error=float(res.std_error[0]),
                         method=PricingMethod.MONTE_CARLO)
