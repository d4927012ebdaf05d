"""Pricing: the closed forms here, the conditional Monte Carlo pricer in `mc`.

Only the closed forms are re-exported, so importing this package loads
no NumPy or SciPy; `mc_price` comes from `pricing.mc`, the path engine
`path_moments` from `pricing.engine`, and the run it takes, `McConfig`,
from `model`.
"""

from .closed import (
    breach_prob_closed,
    bs_vanilla,
    double_knockout_closed,
    down_and_out_call_closed,
    up_and_out_call_closed,
)

__all__ = [
    "breach_prob_closed",
    "bs_vanilla",
    "double_knockout_closed",
    "down_and_out_call_closed",
    "up_and_out_call_closed",
]
