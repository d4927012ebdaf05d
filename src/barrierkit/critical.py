"""Critical price curves and their extrema.

The central objects are two curves in the (t, price) plane. For a lower
barrier B_l(t), the lower critical curve S_l(t) is the initial price at
which the chance of sitting at or below the barrier at time t is exactly
the tail mass Phi(-nu); its maximum over [0, T] is s_ml, the smallest
initial price for which the barrier never matters at the stated accuracy.
The upper-barrier story is the mirror image and yields s_mu as a minimum.

Every barrier is log-linear between its breakpoints, so on each segment
the curve has the flat-barrier form with mu1 shifted by the segment's
log-slope, and a single interior stationary point (the turning point).
The extremum over [0, T] is the best of the segments' closed-form peaks.
"""

from __future__ import annotations

import math

from .model import (
    BarrierCurve,
    BarrierSet,
    BarrierShape,
    CriticalPrices,
    DomainError,
    MarketParams,
    NumericsError,
)
from .numerics import std_normal_cdf


def _require_nu(nu: float) -> None:
    """Reject a distance nu that is negative, infinite or NaN."""
    if not (0.0 <= nu < math.inf):
        raise DomainError(f"nu must be nonnegative and finite, got {nu}")


def _m1(params: MarketParams) -> float:
    return params.mu - 0.5 * params.sigma * params.sigma


def prob_above_lower(
    params: MarketParams, lower: BarrierCurve, s0: float, t: float
) -> float:
    """P(S_t > B_l(t)) for the lognormal price started at s0; needs t > 0."""
    if t <= 0.0:
        raise DomainError(f"pointwise probability needs t > 0, got {t}")
    b = lower.value_at(t, params.T)
    omega = (_m1(params) * t + math.log(s0 / b)) / (params.sigma * math.sqrt(t))
    return std_normal_cdf(omega)


def prob_below_upper(
    params: MarketParams, upper: BarrierCurve, s0: float, t: float
) -> float:
    """P(S_t < B_u(t)), the mirror of prob_above_lower."""
    if t <= 0.0:
        raise DomainError(f"pointwise probability needs t > 0, got {t}")
    b = upper.value_at(t, params.T)
    omega = (math.log(b / s0) - _m1(params) * t) / (params.sigma * math.sqrt(t))
    return std_normal_cdf(omega)


def _times_barrier(curve: BarrierCurve, x: float, t: float, T: float) -> float:
    """B(t) * exp(x); a line (flat or exponential) folds its growth into the exponent.

    L*exp(g*t + x) stays finite wherever the product is, even when
    exp(g*t) alone overflows. A t outside [0, T] goes to value_at, which
    rejects it. A product past double precision raises NumericsError.
    """
    if curve.shape is BarrierShape.EXPONENTIAL and 0.0 <= t <= T:
        level, x = curve.level, curve.growth * t + x
    else:
        level = curve.value_at(t, T)
    try:
        price = level * math.exp(x)
    except OverflowError:
        price = math.inf
    if price == math.inf:
        raise NumericsError(f"critical price {level}*exp({x}) at t={t} leaves double precision")
    return price


def lower_critical_curve(
    params: MarketParams, lower: BarrierCurve, nu: float, t: float
) -> float:
    """S_l(t) = B_l(t) * exp(nu*sigma*sqrt(t) - mu1*t); B_l(0) at t = 0."""
    if t == 0.0:
        return lower.value_at(t, params.T)
    return _times_barrier(lower, nu * params.sigma * math.sqrt(t) - _m1(params) * t, t, params.T)


def upper_critical_curve(
    params: MarketParams, upper: BarrierCurve, nu: float, t: float
) -> float:
    """S_u(t) = B_u(t) * exp(-(nu*sigma*sqrt(t) + mu1*t)); B_u(0) at t = 0."""
    if t == 0.0:
        return upper.value_at(t, params.T)
    return _times_barrier(upper, -(nu * params.sigma * math.sqrt(t) + _m1(params) * t), t, params.T)


def _log_slope(curve: BarrierCurve, a: float, b: float, T: float) -> float:
    """Slope of log B over [a, b], two consecutive breakpoints of the curve.

    A line returns its own growth (0 when flat), which the difference
    quotient would round; a table's segment takes that quotient.
    """
    if curve.shape is BarrierShape.EXPONENTIAL:
        return curve.growth
    return (math.log(curve.value_at(b, T)) - math.log(curve.value_at(a, T))) / (b - a)


def _peak_time(params: MarketParams, nu: float, m: float, a: float, b: float) -> float:
    """Time in [a, b] where h(t) = nu*sigma*sqrt(t) - m*t is largest.

    h is the log-distance of a critical curve from a barrier that is
    log-linear on [a, b]: m is mu1 - g on the lower side and g - mu1 on
    the upper side, g the barrier's log-slope, which mirrors one side
    onto the other. h is concave. With nonpositive m it rises through
    the segment, so it peaks at b; otherwise it peaks at the stationary
    time t_p = (nu*sigma / (2m))^2, clamped into [a, b].
    """
    if m > 0.0:
        half = nu * params.sigma / (2.0 * m)
        return min(max(half * half, a), b)
    return b


def _extremum(
    params: MarketParams, curve: BarrierCurve, nu: float, side: float
) -> tuple[float, float]:
    """s_ml (side = 1) or s_mu (side = -1) of one barrier, with its time.

    Walks the segments between the curve's breakpoints, evaluates the
    critical curve at each segment's peak and keeps the best; ties go to
    the earlier time.
    """
    _require_nu(nu)
    crit = lower_critical_curve if side > 0.0 else upper_critical_curve
    m1 = _m1(params)
    ts = curve.breakpoints(params.T)
    best = None
    for a, b in zip(ts, ts[1:]):
        m = side * (m1 - _log_slope(curve, a, b, params.T))
        t = _peak_time(params, nu, m, a, b)
        s = crit(params, curve, nu, t)
        if best is None or side * s > side * best[0]:
            best = (s, t)
    return best


def s_ml_flat(params: MarketParams, level: float, nu: float) -> tuple[float, float]:
    """Maximum of the flat lower critical curve over [0, T] with its time."""
    return _extremum(params, BarrierCurve.flat(level), nu, 1.0)


def s_mu_flat(params: MarketParams, level: float, nu: float) -> tuple[float, float]:
    """Minimum of the flat upper critical curve over [0, T] with its time."""
    return _extremum(params, BarrierCurve.flat(level), nu, -1.0)


def critical_prices(
    params: MarketParams, barriers: BarrierSet, nu: float
) -> CriticalPrices:
    """Extremal critical prices for every barrier present, exact for every shape."""
    if not barriers.any_present:
        raise DomainError("no barriers present, nothing to extremize")
    s_ml = t_max = s_mu = t_min = None
    if barriers.lower is not None:
        s_ml, t_max = _extremum(params, barriers.lower, nu, 1.0)
    if barriers.upper is not None:
        s_mu, t_min = _extremum(params, barriers.upper, nu, -1.0)
    return CriticalPrices(s_ml=s_ml, t_at_max=t_max, s_mu=s_mu, t_at_min=t_min)
