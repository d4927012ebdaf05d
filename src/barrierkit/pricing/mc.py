"""Monte Carlo barrier pricing: a thin integrand on the conditional path engine.

Path transitions are exact lognormal steps, and the engine's bridge
weights make monitoring continuous and exact: every barrier is log-linear
between its nodes, which include each knot, so each path pays
disc * weight * payoff(S_T): a knock-out pays nothing once knocked
out, the contract the closed forms price. The run itself (paths, steps
a year, seed) is a `model.McConfig`, which the engine reads whole.
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
    count. workers=None runs on every CPU this process may use. An s0 on
    or past a barrier at inception is knocked out: 0, with standard error 0,
    once check_ordering has passed the barriers.
    """
    require_price_level("s0", s0)
    spec.barriers.check_ordering(params.T)
    if spec.barriers.side_at_inception(s0, params.T) is not None:
        return PriceEstimate(value=0.0, std_error=0.0, method=PricingMethod.MONTE_CARLO)

    disc = math.exp(-params.r * params.T)
    sign = 1.0 if spec.payoff is Payoff.CALL else -1.0

    def discounted_payoff(x_T, weight, mass_l, mass_u):
        payoff = np.maximum(sign * (np.exp(x_T) - spec.strike), 0.0)
        return (disc * (weight * payoff),)

    res = path_moments(params, spec.barriers, s0, cfg, discounted_payoff, workers)
    return PriceEstimate(value=float(res.mean[0]), std_error=float(res.std_error[0]),
                         method=PricingMethod.MONTE_CARLO)
