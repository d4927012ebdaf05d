"""Barrier breach probabilities by simulation and by the backward equation.

The conditional Monte Carlo engine (any supported barrier; each path's
exact bridge chance of breaching each side first, averaged) and a
finite-difference solve of the backward equation for the breach
indicator's expectation, on a grid whose end nodes follow the barriers.
The closed form for flat and exponential barriers, one side or a
corridor, lives with the knock-outs in `pricing.closed`; the three routes
validate each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import (BarrierCurve, BarrierSet, DomainError, MarketParams, McConfig,
                    NumericsError, require_price_level)
from .numerics import std_normal_cdf
from .pricing.closed import breach_prob_closed
from .pricing.engine import path_moments

_OUT_OF_REACH = math.erfc(6.0 / math.sqrt(2.0))  # 2*Phi(-6): a breach this unlikely is left out


@dataclass(frozen=True)
class BreachEstimate:
    """Per-side first-breach probabilities and standard errors; se_total is
    p_total's, taken path by path, since the two sides' masses covary."""

    p_lower: float
    se_lower: float
    p_upper: float
    se_upper: float
    se_total: float

    @property
    def p_total(self) -> float:
        return self.p_lower + self.p_upper


def breach_prob_mc(
    params: MarketParams, barriers: BarrierSet, s0: float, cfg: McConfig
) -> BreachEstimate:
    """Estimate P(lower first) and P(upper first) as the mean of each path's
    first-exit mass per side; the masses and the survival weight share one
    unit, so the two sum to at most 1. An s0 on a barrier at t = 0 has
    breached it: 1, exactly, once check_ordering has passed the barriers.
    """
    require_price_level("s0", s0)
    if not barriers.any_present:
        raise DomainError("need at least one barrier")
    barriers.check_ordering(params.T)
    side = barriers.side_at_inception(s0, params.T, past_ok=False)
    if side is not None:
        hit_l = float(side == "lower")
        return BreachEstimate(hit_l, 0.0, 1.0 - hit_l, 0.0, 0.0)
    res = path_moments(params, barriers, s0, cfg,
                       lambda x_T, weight, mass_l, mass_u: (mass_l, mass_u, mass_l + mass_u))
    (p_l, p_u, _), (se_l, se_u, se_t) = res.mean.tolist(), res.std_error.tolist()
    return BreachEstimate(p_lower=p_l, se_lower=se_l, p_upper=p_u, se_upper=se_u, se_total=se_t)


@dataclass(frozen=True)
class PdeGrid:
    """Node counts for the backward-equation solver, and its far edges.

    The solver spreads n_space nodes uniformly in log-price between the
    barriers at every time; s_min or s_max closes a side without one.
    """

    s_min: float
    s_max: float
    n_space: int = 400
    n_time: int = 400

    # centered differences in space, trapezoidal in time; fixed scheme
    def __post_init__(self) -> None:
        if not 0.0 < self.s_min < self.s_max:
            raise DomainError(f"need 0 < s_min < s_max, got ({self.s_min}, {self.s_max})")
        if self.n_space < 16 or self.n_time < 16:
            raise DomainError("grid too coarse: n_space and n_time must be >= 16")


def _reachable(params: MarketParams, barriers: BarrierSet, s0: float, T: float) -> BarrierSet:
    """The barriers less those s0 breaches over [0, T] with probability below 2*Phi(-6).

    That is about 2e-9, the margin the default grid's far edges accept. A
    barrier more than 6*sigma*sqrt(T) from s0 in log-price, plus mu1*T when
    the drift mu1 heads its way, is left out. So is every barrier when the
    drift heads away from each one left and the closed form for a flat
    barrier at its nearest level over [0, T], a bound for any curve on that
    side whose reflection weight is then at most 1, is below 2*Phi(-6). A
    negligible side next to a live one stays: a corridor between two
    barriers resolves better than one stretched to a far edge.
    """
    reach, m = 6.0 * params.sigma * math.sqrt(T), (params.mu - 0.5 * params.sigma**2) * T
    kept, negligible, over_t = {}, True, replace(params, T=T)
    for side, curve, up in (("lower", barriers.lower, False), ("upper", barriers.upper, True)):
        if curve is not None:
            near = curve.extremes(T)[0 if up else 1]
            gap, toward = (math.log(near / s0), m) if up else (math.log(s0 / near), -m)
            if gap <= reach + max(0.0, toward):
                kept[side] = curve
                negligible = negligible and toward < 0.0 < gap and (
                    breach_prob_closed(over_t, BarrierSet(**{side: BarrierCurve.flat(near)}), s0)
                    < _OUT_OF_REACH)
    return BarrierSet() if negligible else BarrierSet(**kept)


def default_grid(
    params: MarketParams, barriers: BarrierSet, s0: float, T: float,
    n_space: int = 400, n_time: int = 400,
) -> PdeGrid:
    """Desk grid: s0 and every reachable barrier level inside, 6 sigma*sqrt(T) of room outside.

    Edges that round to 0, inf or together (e^{6 sigma*sqrt(T)} = 1) raise NumericsError.
    """
    try:
        span = math.exp(6.0 * params.sigma * math.sqrt(T))
    except OverflowError:
        span = math.inf
    reachable = _reachable(params, barriers, s0, T)
    curves = [c for c in (reachable.lower, reachable.upper) if c is not None]
    levels = [s0, *(v for c in curves for v in c.extremes(T))]
    s_min, s_max = min(levels) / span, max(levels) * span
    if not (0.0 < s_min < s_max < math.inf):
        raise NumericsError(f"grid edges ({s_min:.6g}, {s_max:.6g}), 6*sigma*sqrt(T) out in "
                            "log-price, leave double precision")
    return PdeGrid(s_min=s_min, s_max=s_max, n_space=n_space, n_time=n_time)


def _fitted_rows(adv: np.ndarray, dif: float, w: float, sub: np.ndarray, sup: np.ndarray) -> float:
    """Sub- and super-diagonal of the operator in xi at corridor width w,
    written into sub and sup; returns the main diagonal, one value for all rows."""
    d = dif / (w * w)
    np.divide(adv, w, out=sup)
    np.subtract(d, sup, out=sub)
    np.add(d, sup, out=sup)
    return -2.0 * d


def breach_prob_pde(
    params: MarketParams, barriers: BarrierSet, s0: float, T: float, grid: PdeGrid | None = None
) -> float:
    """Total breach probability from the backward equation on a barrier-fitted grid.

    The breach indicator's conditional expectation Q(x, t), x = ln S,
    satisfies Q_t + mu1*Q_x + (sigma^2/2)*Q_xx = 0 with Q(x, T) = 0 and
    Q = 1 on the barriers, mu1 = mu - sigma^2/2. The solve runs in
    xi = (x - lo(t)) / w(t) on [0, 1], w = hi - lo, where lo and hi are
    the log levels of the barriers; an absent side takes the log of
    grid.s_min or grid.s_max, fixed in x, and Q = 0 there. The barriers
    then sit on the end nodes at every time, and the operator becomes
    Q_t + ((mu1 - lo' - xi*w')/w)*Q_xi + (sigma^2/(2*w^2))*Q_xixi = 0.
    The time nodes are the n_time uniform ones plus every barrier
    breakpoint, so lo' and w' are exact step by step on log-linear
    segments. The march is trapezoidal with centered differences, after
    two fully implicit steps that damp the terminal corner jump. Returns
    Q at (s0, 0) by linear interpolation in xi, or 1 for s0 on a barrier
    or where P(S_T past a side's farthest level over [0, T]), a lower bound
    for the breach of any curve on that side, passes 1 - 2*Phi(-6);
    a barrier out of reach (_reachable) is left out, and with none left
    the answer is 0. grid=None solves on default_grid of the barriers in
    reach, built only once those answers are ruled out. A node spacing
    h = w/(n-1) over sigma*sqrt(T), or a drift against the nodes at either
    end of the corridor over sigma^2/h, which turns an off-diagonal of the
    operator negative, leaves the solution unresolved and raises
    NumericsError, as does a sigma*sqrt(T) that underflows to 0.
    """
    require_price_level("s0", s0)
    if not barriers.any_present:
        raise DomainError("need at least one barrier")
    if not 0.0 < T < math.inf:
        raise DomainError(f"T must be positive and finite, got {T}")
    barriers.check_ordering(T)
    if barriers.side_at_inception(s0, T, past_ok=False) is not None:
        return 1.0
    c1, sig_rt = params.mu - 0.5 * params.sigma**2, params.sigma * math.sqrt(T)
    if sig_rt == 0.0:
        raise NumericsError(f"sigma*sqrt(T) underflows to 0 at variance sigma^2*T = {params.sigma**2 * T:.6g}")
    for curve, sign in ((barriers.lower, 1.0), (barriers.upper, -1.0)):
        far = None if curve is None else curve.extremes(T)[sign < 0]
        if far and std_normal_cdf(sign * (math.log(far) - math.log(s0) - c1 * T) / sig_rt) > 1.0 - _OUT_OF_REACH:
            return 1.0
    barriers = _reachable(params, barriers, s0, T)
    if not barriers.any_present:
        return 0.0
    if grid is None:
        grid = default_grid(params, barriers, s0, T)

    n = grid.n_time
    times = sorted({k * T / n for k in range(n)}.union(barriers.breakpoints(T)))

    def edge(curve, far: float) -> np.ndarray:
        if curve is None:
            return np.full(len(times), math.log(far))
        return np.log([curve.value_at(t, T) for t in times])

    lo = edge(barriers.lower, grid.s_min)
    width = edge(barriers.upper, grid.s_max) - lo
    if not np.all(width > 0.0) or not 0.0 < (math.log(s0) - lo[0]) / width[0] < 1.0:
        raise DomainError("s0 or a barrier outside the solver domain")
    N = grid.n_space
    dt = np.diff(times)
    dlo, dw = np.diff(lo) / dt, np.diff(width) / dt  # lo' and w', exact over each step
    h_x = np.maximum(width[:-1], width[1:]) / (N - 1)  # node spacing over each step
    drift = np.maximum(np.abs(c1 - dlo), np.abs(c1 - dlo - dw))  # against the nodes at xi = 0, 1
    excess = np.maximum(h_x / sig_rt, drift * h_x / params.sigma**2)
    j = int(np.argmax(excess))
    if excess[j] > 1.0:
        sides = (("lower", barriers.lower), ("upper", barriers.upper))
        levels = ", ".join("{} barrier over [{:.6g}, {:.6g}]".format(side, *curve.extremes(T))
                           for side, curve in sides if curve is not None)
        raise NumericsError(
            f"grid too coarse: node spacing {h_x[j]:.6g} and drift {drift[j]:.6g} over t in "
            f"[{times[j]:.6g}, {times[j + 1]:.6g}] need spacing <= sigma*sqrt(T) = {sig_rt:.6g} "
            f"and drift*spacing <= sigma^2 ({levels})"
        )

    from scipy.linalg.lapack import dgtsv  # SciPy loads for the PDE alone

    h = 1.0 / (N - 1)
    xi = np.linspace(0.0, 1.0, N)
    dif = 0.5 * params.sigma**2 / (h * h)
    q = np.zeros(N)
    q[0] = 1.0 if barriers.lower is not None else 0.0
    q[-1] = 1.0 if barriers.upper is not None else 0.0
    rhs = q[1:-1]  # each step's right side, solved for in place
    adv, sub, sup, expl, tmp, dd = np.empty((6, N - 2))
    dl, du = np.empty((2, N - 3))
    for k in range(len(times) - 2, -1, -1):
        np.multiply(xi[1:-1], dw[k], out=adv)
        np.subtract(c1 - dlo[k], adv, out=adv)
        np.divide(adv, 2.0 * h, out=adv)  # the xi drift's numerator over 2h
        theta = 1.0 if k >= len(times) - 3 else 0.5
        if theta < 1.0:  # the explicit half at the step's late end, from q before it changes
            diag = _fitted_rows(adv, dif, width[k + 1], sub, sup)
            np.multiply(sub, q[:-2], out=expl)
            np.multiply(diag, q[1:-1], out=tmp)
            np.add(expl, tmp, out=expl)
            np.multiply(sup, q[2:], out=tmp)
            np.add(expl, tmp, out=expl)
            np.multiply((1.0 - theta) * dt[k], expl, out=expl)
        diag = _fitted_rows(adv, dif, width[k], sub, sup)  # (I - theta*dt*L) at the early end
        np.multiply(-theta * dt[k], sub[1:], out=dl)
        dd.fill(1.0 - theta * dt[k] * diag)
        np.multiply(-theta * dt[k], sup[:-1], out=du)
        rhs[0] += theta * dt[k] * sub[0] * q[0]
        rhs[-1] += theta * dt[k] * sup[-1] * q[-1]
        if theta < 1.0:
            rhs += expl
        # overwrite flags on: LAPACK factors the rows in place and leaves x in rhs, q's interior
        info = dgtsv(dl, dd, du, rhs, True, True, True, True)[4]
        if info != 0 or not np.isfinite(rhs).all():
            raise NumericsError(f"tridiagonal solve failed over t in [{times[k]:.6g}, {times[k + 1]:.6g}]"
                                f" (LAPACK info {info})")
    val = float(np.interp((math.log(s0) - lo[0]) / width[0], xi, q))
    return min(max(val, 0.0), 1.0)
