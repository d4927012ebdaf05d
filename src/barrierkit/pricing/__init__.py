"""Pricing engines: closed forms plus the bridged Monte Carlo pricer."""

from .closed import (
    bs_vanilla,
    double_knockout_closed,
    down_and_out_call_closed,
    up_and_out_call_closed,
)
from .engine import simulate_paths
from .mc import McConfig, mc_price

__all__ = [
    "McConfig",
    "bs_vanilla",
    "double_knockout_closed",
    "down_and_out_call_closed",
    "mc_price",
    "simulate_paths",
    "up_and_out_call_closed",
]
