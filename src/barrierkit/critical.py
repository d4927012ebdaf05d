"""Critical price curves and their extrema.

The central objects are two curves in the (t, price) plane. For a lower
barrier B_l(t), the lower critical curve S_l(t) is the initial price at
which the chance of sitting at or below the barrier at time t is exactly
the tail mass Phi(-nu); its maximum over [0, T] is s_ml, the smallest
initial price for which the barrier never matters at the stated accuracy.
The upper-barrier story is the mirror image and yields s_mu as a minimum.
One signed path serves both: each function takes side = "lower" or
"upper", and the sign +1 or -1 mirrors the upper side onto the lower.

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
    require_price_level,
    side_sign,
)
from .numerics import std_normal_cdf


def _require_nu(nu: float) -> None:
    """Reject a distance nu that is negative, infinite or NaN."""
    if not (0.0 <= nu < math.inf):
        raise DomainError(f"nu must be nonnegative and finite, got {nu}")


def _m1(params: MarketParams) -> float:
    return params.mu - 0.5 * params.sigma * params.sigma


def prob_inside(
    params: MarketParams, curve: BarrierCurve, s0: float, t: float, side: str
) -> float:
    """P(S_t > B(t)) for a lower barrier, P(S_t < B(t)) for an upper one.

    The lognormal price starts at s0; side is "lower" or "upper", and t > 0.
    """
    sign = side_sign(side)
    require_price_level("s0", s0)
    if t <= 0.0:
        raise DomainError(f"pointwise probability needs t > 0, got {t}")
    b = curve.value_at(t, params.T)
    ratio = s0 / b if sign > 0.0 else b / s0
    omega = (math.log(ratio) + sign * _m1(params) * t) / (params.sigma * math.sqrt(t))
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


def critical_curve(
    params: MarketParams, curve: BarrierCurve, nu: float, t: float, side: str
) -> float:
    """The critical price at time t on one side; B(0) at t = 0.

    Lower: S_l(t) = B_l(t) * exp(nu*sigma*sqrt(t) - mu1*t).
    Upper: S_u(t) = B_u(t) * exp(-(nu*sigma*sqrt(t) + mu1*t)), the mirror.
    One expression serves both: negation is exact, so -a - b is -(a + b).
    """
    sign = side_sign(side)
    _require_nu(nu)
    if t == 0.0:
        return curve.value_at(t, params.T)
    x = sign * (nu * params.sigma * math.sqrt(t)) - _m1(params) * t
    return _times_barrier(curve, x, t, params.T)


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
    params: MarketParams, curve: BarrierCurve, nu: float, side: str
) -> tuple[float, float]:
    """s_ml (side "lower") or s_mu (side "upper") of one barrier, with its time.

    Walks the segments between the curve's breakpoints, evaluates the
    critical curve at each segment's peak and keeps the best (largest on
    the lower side, smallest on the upper); ties go to the earlier time.
    """
    _require_nu(nu)  # first, so a bad nu is reported before any barrier level is read
    sign = side_sign(side)
    m1 = _m1(params)
    ts = curve.breakpoints(params.T)
    best = None
    for a, b in zip(ts, ts[1:]):
        m = sign * (m1 - _log_slope(curve, a, b, params.T))
        t = _peak_time(params, nu, m, a, b)
        s = critical_curve(params, curve, nu, t, side)
        if best is None or sign * s > sign * best[0]:
            best = (s, t)
    return best


def critical_prices(
    params: MarketParams, barriers: BarrierSet, nu: float
) -> CriticalPrices:
    """Extremal critical prices for every barrier present, exact for every shape."""
    if not barriers.any_present:
        raise DomainError("no barriers present, nothing to extremize")
    s_ml = t_max = s_mu = t_min = None
    if barriers.lower is not None:
        s_ml, t_max = _extremum(params, barriers.lower, nu, "lower")
    if barriers.upper is not None:
        s_mu, t_min = _extremum(params, barriers.upper, nu, "upper")
    return CriticalPrices(s_ml=s_ml, t_at_max=t_max, s_mu=s_mu, t_at_min=t_min)
