"""Numeric critical prices from the pricing engine and their implied nu.

The analytic critical price says where a barrier option should become
indistinguishable from its vanilla twin at a chosen accuracy theta.
This module measures where that actually happens for a given pricer:
scan s0 outward from the barrier until |barrier price - vanilla price|
stays below 0.5*theta, then invert the analytic formula to find which
nu reproduces the measured onset.

Precision floor: the two closed forms are IEEE doubles, so their
difference is quantized to ulps of the price. Once theta drops below
roughly 1e-16 times the price, the 0.5*theta test degenerates into
exact float equality of the two prices; no smaller theta can change the
answer. FLOOR_THETA is a canonical theta (still a power of ten) deep
inside that regime, used to probe the floor itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .critical import critical_prices
from .model import (
    BarrierCurve,
    BarrierSet,
    DomainError,
    MarketParams,
    NumericsError,
    require_price_level,
    side_sign,
)
from .pricing.closed import _vanilla, down_and_out_call_closed

BISECT_TOL_S = 1e-6
SWEEP_POINTS = 64
NU_MAX = 20.0
FLOOR_THETA = 1e-30

TABLE1_STRIKE = 100.0
TABLE1_BARRIER = 70.0
TABLE1_RATE = 0.10
TABLE1_ROWS = ((0.25, 0.15), (0.25, 0.30), (0.50, 0.15), (0.50, 0.30))


def _check_theta(theta: float) -> None:
    if not (0.0 < theta < math.inf):
        raise DomainError(f"theta must be positive and finite, got {theta}")
    m = -math.log10(theta)
    if abs(m - round(m)) > 1e-9:
        raise DomainError(f"theta must be a power of ten, got {theta}")


def _sweep_grid(start: float, stop: float) -> list[float]:
    """SWEEP_POINTS evenly spaced points from start to stop, both ends exact.

    The same points, bit for bit, as numpy.linspace(start, stop,
    SWEEP_POINTS): start + k*step for the inner points, stop itself last.
    """
    step = (stop - start) / (SWEEP_POINTS - 1)
    return [start + k * step for k in range(SWEEP_POINTS - 1)] + [stop]


def numeric_critical_price(
    params: MarketParams,
    strike: float,
    barrier: float,
    side: str,
    theta: float,
    pricer: Callable,
) -> float:
    """Measured onset of indistinguishability from the vanilla price.

    Lower side: smallest s0 (within 1e-6) such that
    |pricer(s0) - vanilla(s0)| < 0.5*theta holds there and at every
    point of a 64-point verification sweep up to the bracket end.
    Upper side: mirrored (largest s0, sweep runs downward). Bisection
    runs on the indicator between barrier*(1 +- 1e-9) and barrier times
    e^(+-10 sigma sqrt(T)); if even the far end is distinguishable the
    accuracy is unreachable and the search fails. The sweep guards
    against non-monotone onsets: any violation restarts the bisection
    beyond it.
    """
    _check_theta(theta)
    side_sign(side)
    require_price_level("barrier", barrier)
    require_price_level("strike", strike)
    half = 0.5 * theta

    def close(s: float) -> bool:
        return abs(pricer(params, strike, barrier, s).value - _vanilla(params, strike, s)) < half

    span = math.exp(10.0 * params.sigma * math.sqrt(params.T))
    if side == "lower":
        near, far = barrier * (1.0 + 1e-9), barrier * span
    else:
        near, far = barrier * (1.0 - 1e-9), barrier / span

    if not close(far):
        raise NumericsError(
            f"accuracy theta={theta} unreachable within the search bracket"
        )
    if close(near):
        return near

    def bisect(bad: float, good: float) -> float:
        # invariant: close(good) holds, close(bad) does not
        while abs(good - bad) > BISECT_TOL_S:
            mid = 0.5 * (bad + good)
            if mid == bad or mid == good:  # at large s one ulp exceeds BISECT_TOL_S
                break
            if close(mid):
                good = mid
            else:
                bad = mid
        return good

    s_star = bisect(near, far)
    for _ in range(SWEEP_POINTS):
        violations = [s for s in _sweep_grid(s_star, far) if not close(s)]
        if not violations:
            return s_star
        # worst violation is the one deepest into the supposed-close zone
        worst = max(violations) if side == "lower" else min(violations)
        s_star = bisect(worst, far)
    raise NumericsError("verification sweep never stabilized")


def implied_nu(params: MarketParams, barrier: float, side: str, s_crit: float) -> float:
    """The nu in (0, 20] whose flat analytic critical price equals the measured one.

    The exact inverse of critical_prices on a flat barrier: s_ml on the
    lower side, s_mu on the upper. Mirrored as they are, a
    critical price sits x = ln(s_crit/barrier) from a lower barrier, or
    x = ln(barrier/s_crit) from an upper one, with m = mu1 or -mu1. When
    m > 0 and x < m*T the maximum lies at the interior turning point,
    where x = (nu*sigma)^2/(4m); otherwise it lies at T, where
    x = nu*sigma*sqrt(T) - m*T.
    """
    sign = side_sign(side)
    require_price_level("barrier", barrier)
    require_price_level("s_crit", s_crit)
    sigma, T = params.sigma, params.T
    x = math.log(s_crit / barrier if sign > 0.0 else barrier / s_crit)
    m = sign * (params.mu - 0.5 * sigma * sigma)
    if m > 0.0 and x < m * T:
        nu = 2.0 * math.sqrt(m * x) / sigma if x > 0.0 else 0.0
    else:
        nu = (x + m * T) / (sigma * math.sqrt(T))
    if not (0.0 < nu <= NU_MAX):
        raise NumericsError(
            f"s_crit={s_crit} outside the attainable range for nu in (0, {NU_MAX}]"
        )
    return nu


@dataclass(frozen=True)
class CalibrationRow:
    """One (T, sigma) experiment: analytic vs measured critical price."""

    T: float
    sigma: float
    analytic_s_ml: float
    numeric_s_ml: float
    implied_nu: float

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.T, self.sigma, self.analytic_s_ml, self.numeric_s_ml, self.implied_nu)


def reproduce_table1(reference_nu: float = 4.9, theta: float = FLOOR_THETA):
    """Run the four-row calibration: K=100, lower barrier 70, r=0.10.

    Each row reports the analytic critical price at reference_nu, the
    measured onset for the down-and-out call at the requested theta,
    and the nu implied by that measurement.
    """
    rows = []
    barriers = BarrierSet(lower=BarrierCurve.flat(TABLE1_BARRIER))
    for T, sigma in TABLE1_ROWS:
        params = MarketParams(mu=TABLE1_RATE, sigma=sigma, r=TABLE1_RATE, T=T)
        analytic = critical_prices(params, barriers, reference_nu).s_ml
        numeric = numeric_critical_price(
            params, TABLE1_STRIKE, TABLE1_BARRIER, "lower", theta, down_and_out_call_closed
        )
        if numeric <= TABLE1_BARRIER:
            raise NumericsError("measured critical price fell at or below the barrier")
        nu = implied_nu(params, TABLE1_BARRIER, "lower", numeric)
        rows.append(
            CalibrationRow(
                T=T, sigma=sigma, analytic_s_ml=analytic, numeric_s_ml=numeric, implied_nu=nu
            )
        )
    return rows
