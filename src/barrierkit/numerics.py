"""Standard-normal distribution functions and 1-D search primitives.

The cdf (from erfc) and the quantile (the standard library's
NormalDist) are accurate to well below 1e-12, which matters because the
whole package hinges on resolving normal tail masses like 1e-6 and far
smaller. Cheap polynomial cdf approximations with 1e-7 error would
poison every downstream cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


def std_normal_sf(x: float) -> float:
    """Survival function 1 - Phi(x), exact in the upper tail."""
    return 0.5 * math.erfc(x / _SQRT2)


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


@dataclass(frozen=True)
class IntervalResult:
    argument: float
    value: float
    iterations: int


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0

COARSE_SCAN_POINTS = 1001
DEFAULT_TOL_T = 1e-10


def maximize_on_interval(
    f,
    a: float,
    b: float,
    tol_t: float = DEFAULT_TOL_T,
    scan_points: int = COARSE_SCAN_POINTS,
) -> IntervalResult:
    """Maximum of a continuous f on [a, b]: coarse scan then golden section.

    The scan (1001 uniform samples by default) locates the best bracket,
    golden-section refinement narrows it to tol_t. Scan ties break toward
    the smaller argument so results are deterministic. Finds the global
    maximum provided f does not oscillate faster than the scan grid (a few
    hundred humps); the curves this package feeds in have at most one.
    """
    if not (a < b):
        raise ValueError(f"need a < b, got [{a}, {b}]")
    if not (tol_t > 0.0):
        raise ValueError(f"tolerance must be positive, got {tol_t}")
    if scan_points < 3:
        raise ValueError("scan needs at least 3 points")

    h = (b - a) / (scan_points - 1)
    last = scan_points - 1
    best_i = 0
    best_v = -math.inf
    for i in range(last):
        v = f(a + i * h)
        if v > best_v:  # strict: ties keep the earlier (smaller) argument
            best_v = v
            best_i = i
    # a + last*h can round one ulp past b; no earlier node can reach b.
    # The clamp stays out of the loop, where min() would double its cost.
    v = f(min(a + last * h, b))
    if v > best_v:
        best_v = v
        best_i = last
    lo = a + max(best_i - 1, 0) * h
    hi = min(a + min(best_i + 1, last) * h, b)

    # golden-section on [lo, hi]
    iters = scan_points
    x1 = lo + _INV_PHI2 * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    f1 = f(x1)
    f2 = f(x2)
    # a window at float resolution stops too: at large t one ulp exceeds tol_t
    while hi - lo > tol_t and lo < x1 < x2 < hi:
        if f1 >= f2:  # ties move the window left, toward smaller t
            hi = x2
            x2, f2 = x1, f1
            x1 = lo + _INV_PHI2 * (hi - lo)
            f1 = f(x1)
        else:
            lo = x1
            x1, f1 = x2, f2
            x2 = lo + _INV_PHI * (hi - lo)
            f2 = f(x2)
        iters += 1

    t_star = 0.5 * (lo + hi)
    v_star = f(t_star)
    # the scan's best sample can only be beaten, never lost
    if best_v > v_star:
        t_star, v_star = min(a + best_i * h, b), best_v
    return IntervalResult(argument=t_star, value=v_star, iterations=iters)
