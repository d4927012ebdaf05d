"""Pricing: the closed forms here, the bridged Monte Carlo pricer in `mc`.

Only the closed forms are re-exported, so importing this package loads
no NumPy or SciPy; `McConfig` and `mc_price` come from `pricing.mc`,
`simulate_paths` from `pricing.engine`.
"""

from .closed import (
    breach_prob_closed_flat,
    bs_vanilla,
    double_knockout_closed,
    down_and_out_call_closed,
    up_and_out_call_closed,
)

__all__ = [
    "breach_prob_closed_flat",
    "bs_vanilla",
    "double_knockout_closed",
    "down_and_out_call_closed",
    "up_and_out_call_closed",
]
