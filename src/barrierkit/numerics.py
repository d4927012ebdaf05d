"""Standard-normal distribution functions.

The cdf (from erfc) and the quantile (the standard library's
NormalDist) are accurate to well below 1e-12, which matters because the
whole package hinges on resolving normal tail masses like 1e-6 and far
smaller. Cheap polynomial cdf approximations with 1e-7 error would
poison every downstream cutoff.
"""

from __future__ import annotations

import math
from statistics import NormalDist

from .model import DomainError

_SQRT2 = math.sqrt(2.0)
_STD_NORMAL = NormalDist()


def std_normal_cdf(x: float) -> float:
    """Phi(x) via the complementary error function.

    Absolute error below 1e-15 across the working range and monotone in x;
    survival masses stay meaningful far beyond |x| = 8 because erfc does
    not lose the tail to cancellation.
    """
    return 0.5 * math.erfc(-x / _SQRT2)


def nu_for_accuracy(pi: float) -> float:
    """Smallest cutoff nu with Phi(nu) >= 1 - pi, i.e. upper-tail mass <= pi.

    Computed as -quantile(pi), which is identical to quantile(1 - pi) but
    does not lose pi to rounding when it is tiny. The quantile is the
    standard library's (Wichura's AS 241), within a few ulps of the exact
    root down to the smallest subnormal pi.
    """
    if not (0.0 < pi < 0.5):
        raise DomainError(f"pi must lie in (0, 0.5), got {pi}")
    return -_STD_NORMAL.inv_cdf(pi)
