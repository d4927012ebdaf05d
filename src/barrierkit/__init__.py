"""barrierkit: when does a barrier option degenerate into a simpler one?

Critical initial prices for knock-out options (flat and curved
barriers), classification of the effective option type at a given
accuracy, closed-form and Monte Carlo pricing to validate the
boundaries, first-passage probabilities, and the calibration loop that
measures where prices actually become indistinguishable.
"""

import importlib

from .calibrate import (
    FLOOR_THETA,
    CalibrationRow,
    implied_nu,
    numeric_critical_price,
    reproduce_table1,
)
from .classify import classify_double, classify_down_and_out, classify_up_and_out
from .critical import critical_curve, critical_prices
from .model import (
    BarrierCurve,
    BarrierOrderError,
    BarrierSet,
    Classification,
    CriticalPrices,
    DomainError,
    KnotOrderError,
    MarketParams,
    McConfig,
    NumericsError,
    OptionSpec,
    Payoff,
    PriceEstimate,
    PricingMethod,
    ValidationError,
)
from .numerics import nu_for_accuracy, std_normal_cdf
from .pricing import (
    breach_prob_closed,
    bs_vanilla,
    double_knockout_closed,
    down_and_out_call_closed,
    up_and_out_call_closed,
)

# The simulation and PDE routes need NumPy, and the PDE's solve SciPy,
# which it imports when it runs; these names load on first access
# (PEP 562), so the closed-form path imports neither.
_LAZY = {
    "BreachEstimate": "passage",
    "PdeGrid": "passage",
    "breach_prob_mc": "passage",
    "breach_prob_pde": "passage",
    "default_grid": "passage",
    "mc_price": "pricing.mc",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"

__all__ = [
    "BarrierCurve",
    "BarrierOrderError",
    "BarrierSet",
    "BreachEstimate",
    "CalibrationRow",
    "Classification",
    "CriticalPrices",
    "DomainError",
    "FLOOR_THETA",
    "KnotOrderError",
    "MarketParams",
    "McConfig",
    "NumericsError",
    "OptionSpec",
    "Payoff",
    "PdeGrid",
    "PriceEstimate",
    "PricingMethod",
    "ValidationError",
    "breach_prob_closed",
    "breach_prob_mc",
    "breach_prob_pde",
    "bs_vanilla",
    "classify_double",
    "classify_down_and_out",
    "classify_up_and_out",
    "critical_curve",
    "critical_prices",
    "default_grid",
    "double_knockout_closed",
    "down_and_out_call_closed",
    "implied_nu",
    "mc_price",
    "nu_for_accuracy",
    "numeric_critical_price",
    "reproduce_table1",
    "std_normal_cdf",
    "up_and_out_call_closed",
]
