"""Critical price curves and their extrema.

The central objects are two curves in the (t, price) plane. For a lower
barrier B_l(t), the lower critical curve S_l(t) is the initial price at
which the chance of sitting at or below the barrier at time t is exactly
the tail mass Phi(-nu); its maximum over [0, T] is s_ml, the smallest
initial price for which the barrier never matters at the stated accuracy.
The upper-barrier story is the mirror image and yields s_mu as a minimum.

Flat barriers admit closed forms with a single interior stationary point
(the turning point); every other shape goes through the generic interval
optimizer.
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
)
from .numerics import maximize_on_interval, std_normal_cdf


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


def lower_critical_curve(
    params: MarketParams, lower: BarrierCurve, nu: float, t: float
) -> float:
    """S_l(t) = B_l(t) * exp(nu*sigma*sqrt(t) - mu1*t); B_l(0) at t = 0."""
    b = lower.value_at(t, params.T)
    if t == 0.0:
        return b
    return b * math.exp(nu * params.sigma * math.sqrt(t) - _m1(params) * t)


def upper_critical_curve(
    params: MarketParams, upper: BarrierCurve, nu: float, t: float
) -> float:
    """S_u(t) = B_u(t) * exp(-(nu*sigma*sqrt(t) + mu1*t)); B_u(0) at t = 0."""
    b = upper.value_at(t, params.T)
    if t == 0.0:
        return b
    return b * math.exp(-(nu * params.sigma * math.sqrt(t) + _m1(params) * t))


def turning_point(params: MarketParams, nu: float) -> float | None:
    """Stationary time of the flat-barrier critical curves.

    t_p = (nu*sigma / (2*mu1))^2. When mu1 = 0 the curves are monotone in
    t and there is no stationary point; returns None in that case.
    """
    _require_nu(nu)
    m1 = _m1(params)
    if m1 == 0.0:
        return None
    half = nu * params.sigma / (2.0 * m1)
    return half * half


def _flat_log_distance(params: MarketParams, nu: float, m: float) -> tuple[float, float]:
    """Largest g(t) = nu*sigma*sqrt(t) - m*t over [0, T], with its time.

    g is the log-distance of a flat critical curve from its barrier: m is
    mu1 on the lower side and -mu1 on the upper side, which mirrors one
    side onto the other. With nonpositive m, g rises through the whole
    horizon, so the maximum sits at T; the same happens when the
    stationary time t_p = (nu*sigma / (2m))^2 lies at or beyond T.
    Otherwise t_p wins.
    """
    _require_nu(nu)
    t_star = params.T
    if m > 0.0:
        half = nu * params.sigma / (2.0 * m)
        t_star = min(half * half, t_star)
    return nu * params.sigma * math.sqrt(t_star) - m * t_star, t_star


def s_ml_flat(params: MarketParams, level: float, nu: float) -> tuple[float, float]:
    """Maximum of the flat lower critical curve over [0, T] with its time."""
    g, t_star = _flat_log_distance(params, nu, _m1(params))
    return level * math.exp(g), t_star


def s_mu_flat(params: MarketParams, level: float, nu: float) -> tuple[float, float]:
    """Minimum of the flat upper critical curve over [0, T] with its time."""
    g, t_star = _flat_log_distance(params, nu, -_m1(params))
    return level * math.exp(-g), t_star


def critical_prices(
    params: MarketParams, barriers: BarrierSet, nu: float
) -> CriticalPrices:
    """Extremal critical prices for every barrier present.

    Flat barriers use the closed forms above; any other shape runs the
    coarse-scan plus golden-section optimizer on the corresponding curve.
    """
    if not barriers.any_present:
        raise DomainError("no barriers present, nothing to extremize")
    _require_nu(nu)
    s_ml = t_max = s_mu = t_min = None
    if barriers.lower is not None:
        lo = barriers.lower
        if lo.shape is BarrierShape.FLAT:
            s_ml, t_max = s_ml_flat(params, lo.level, nu)
        else:
            res = maximize_on_interval(
                lambda t: lower_critical_curve(params, lo, nu, t), 0.0, params.T
            )
            s_ml, t_max = res.value, res.argument
    if barriers.upper is not None:
        up = barriers.upper
        if up.shape is BarrierShape.FLAT:
            s_mu, t_min = s_mu_flat(params, up.level, nu)
        else:
            res = maximize_on_interval(
                lambda t: -upper_critical_curve(params, up, nu, t), 0.0, params.T
            )
            s_mu, t_min = -res.value, res.argument
    return CriticalPrices(s_ml=s_ml, t_at_max=t_max, s_mu=s_mu, t_at_min=t_min)
