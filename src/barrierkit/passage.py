"""Barrier breach probabilities by simulation and by the backward equation.

The bridged Monte Carlo engine (any supported barrier, per-side
first-breach-wins probabilities) and a finite-difference solve of the
backward equation for the breach indicator's expectation. The closed
reflection form for flat barriers lives with the other closed forms in
`pricing.closed`; the three routes validate each other and agree within
their stated tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .model import BarrierSet, DomainError, MarketParams, NumericsError, require_price_level
from .pricing.engine import STATUS_LOWER, STATUS_UPPER, simulate_paths
from .pricing.mc import McConfig


@dataclass(frozen=True)
class BreachEstimate:
    """Per-side first-breach probabilities with standard errors."""

    p_lower: float
    se_lower: float
    p_upper: float
    se_upper: float

    @property
    def p_total(self) -> float:
        return self.p_lower + self.p_upper


def breach_prob_mc(
    params: MarketParams, barriers: BarrierSet, s0: float, cfg: McConfig
) -> BreachEstimate:
    """Estimate P(lower first) and P(upper first) on bridged paths.

    The events are exclusive by construction (a path knocks at most one
    side, ties resolved by the engine), so the probabilities sum to at
    most 1.
    """
    require_price_level("s0", s0)
    if not barriers.any_present:
        raise DomainError("need at least one barrier")
    if barriers.lower is not None and s0 <= barriers.lower.value_at(0.0, params.T):
        raise DomainError("s0 at or below the lower barrier at inception")
    if barriers.upper is not None and s0 >= barriers.upper.value_at(0.0, params.T):
        raise DomainError("s0 at or above the upper barrier at inception")
    res = simulate_paths(
        params, barriers, s0,
        paths=cfg.paths, steps_per_year=cfg.steps_per_year,
        seed=cfg.seed, chunk=cfg.chunk,
    )
    n = cfg.paths

    def side(code: int) -> tuple[float, float]:
        hits = res.status == code
        p = float(np.sum(hits)) / n
        se = math.sqrt(p * (1.0 - p) / n) if n > 1 else 0.0
        return p, se

    p_l, se_l = side(STATUS_LOWER)
    p_u, se_u = side(STATUS_UPPER)
    return BreachEstimate(p_lower=p_l, se_lower=se_l, p_upper=p_u, se_upper=se_u)


@dataclass(frozen=True)
class PdeGrid:
    """Uniform-in-log-space grid for the backward-equation solver."""

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


def default_grid(
    params: MarketParams, barriers: BarrierSet, s0: float, T: float,
    n_space: int = 400, n_time: int = 400,
) -> PdeGrid:
    """Desk grid: barriers inside, 6 standard deviations of room outside."""
    span = math.exp(6.0 * params.sigma * math.sqrt(T))
    low = s0
    high = s0
    if barriers.lower is not None:
        low = min(low, barriers.lower.extremes(T)[0])
    if barriers.upper is not None:
        high = max(high, barriers.upper.extremes(T)[1])
    return PdeGrid(s_min=low / span, s_max=high * span, n_space=n_space, n_time=n_time)


def breach_prob_pde(
    params: MarketParams, barriers: BarrierSet, s0: float, T: float, grid: PdeGrid
) -> float:
    """Total breach probability from the backward equation.

    The breach indicator's conditional expectation Q(S, t) satisfies
    dQ/dt + mu*S*dQ/dS + (sigma^2/2)*S^2*d2Q/dS2 = 0 with Q(S, T) = 0
    and Q = 1 on the barriers. In log-space the operator has constant
    coefficients; the march is trapezoidal with centered differences.
    Barrier nodes sit exactly on flat barriers; curved barriers are
    enforced by pinning every node at or beyond the current level each
    time step. One-sided problems close the far end with a vanishing
    second derivative. Returns Q at (s0, 0) by linear interpolation in
    log-space.
    """
    require_price_level("s0", s0)
    if not barriers.any_present:
        raise DomainError("need at least one barrier")
    if T <= 0.0:
        raise DomainError(f"T must be positive, got {T}")
    has_l = barriers.lower is not None
    has_u = barriers.upper is not None
    if has_l and s0 <= barriers.lower.value_at(0.0, T):
        raise DomainError("s0 at or below the lower barrier at inception")
    if has_u and s0 >= barriers.upper.value_at(0.0, T):
        raise DomainError("s0 at or above the upper barrier at inception")

    x_min = math.log(barriers.lower.extremes(T)[0] if has_l else grid.s_min)
    x_max = math.log(barriers.upper.extremes(T)[1] if has_u else grid.s_max)
    if not x_min < math.log(s0) < x_max:
        raise DomainError("s0 outside the solver domain")

    N = grid.n_space
    x = np.linspace(x_min, x_max, N)
    h = x[1] - x[0]
    dt_ = T / grid.n_time
    c1 = params.mu - 0.5 * params.sigma**2
    c2 = 0.5 * params.sigma**2
    adv = c1 / (2.0 * h)
    dif = c2 / (h * h)
    lo_c, mid_c, hi_c = dif - adv, -2.0 * dif, dif + adv

    def lo_bound(t: float) -> int:
        """Index of the highest node pinned to 1 by the lower barrier."""
        lvl = math.log(barriers.lower.value_at(t, T))
        return max(int(np.searchsorted(x, lvl + 1e-12, side="right") - 1), 0)

    def hi_bound(t: float) -> int:
        lvl = math.log(barriers.upper.value_at(t, T))
        return min(int(np.searchsorted(x, lvl - 1e-12, side="left")), N - 1)

    q = np.zeros(N)
    cache: tuple[int, int, float] | None = None
    ab = None  # banded (I - w dt L) factor input
    for k in range(grid.n_time - 1, -1, -1):
        t_new = k * dt_
        # two fully implicit startup steps damp the barrier/terminal
        # corner jump; trapezoidal weighting thereafter
        w = 1.0 if k >= grid.n_time - 2 else 0.5
        jlo = lo_bound(t_new) if has_l else -1
        jhi = hi_bound(t_new) if has_u else N
        ja = jlo + 1 if has_l else 1
        jb = jhi - 1 if has_u else N - 2
        m = jb - ja + 1
        if m < 16:
            levels = ", ".join(
                "{} barrier over [{:.6g}, {:.6g}]".format(side, *curve.extremes(T))
                for side, curve in (("lower", barriers.lower), ("upper", barriers.upper))
                if curve is not None
            )
            raise NumericsError(
                f"grid too coarse: fewer than 16 of {N} nodes between barriers "
                f"at t={t_new:.6g} ({levels})"
            )
        if cache != (ja, jb, w):
            cache = (ja, jb, w)
            sub = np.full(m, lo_c)
            diag = np.full(m, mid_c)
            sup = np.full(m, hi_c)
            if not has_l:
                # far-field: second derivative vanishes at the edge node
                sub[0] = 0.0
                diag[0] = -c1 / h
                sup[0] = c1 / h
            if not has_u:
                sup[m - 1] = 0.0
                diag[m - 1] = c1 / h
                sub[m - 1] = -c1 / h
            ab = np.zeros((3, m))
            ab[0, 1:] = -w * dt_ * sup[:-1]
            ab[1, :] = 1.0 - w * dt_ * diag
            ab[2, :-1] = -w * dt_ * sub[1:]
        qw = q[ja : jb + 1]
        rhs = qw.copy()
        if w < 1.0:
            left = q[ja - 1] if ja > 0 else 0.0
            right = q[jb + 1] if jb < N - 1 else 0.0
            ln_q = diag * qw
            ln_q[1:] += sub[1:] * qw[:-1]
            ln_q[0] += sub[0] * left
            ln_q[:-1] += sup[:-1] * qw[1:]
            ln_q[m - 1] += sup[m - 1] * right
            rhs += (1.0 - w) * dt_ * ln_q
        if has_l:
            rhs[0] += w * dt_ * sub[0] * 1.0  # new-level boundary value
        if has_u:
            rhs[m - 1] += w * dt_ * sup[m - 1] * 1.0
        sol = solve_banded((1, 1), ab, rhs)
        q[ja : jb + 1] = sol
        if has_l:
            q[: ja] = 1.0
        else:
            q[0] = 2.0 * q[1] - q[2]
        if has_u:
            q[jb + 1 :] = 1.0
        else:
            q[N - 1] = 2.0 * q[N - 2] - q[N - 3]
    val = float(np.interp(math.log(s0), x, q))
    return min(max(val, 0.0), 1.0)
