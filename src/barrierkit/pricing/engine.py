"""Deterministic bridged path engine shared by pricing and breach estimation.

Reproducibility design: every path owns a fixed, pre-sized block of
words in a single counter-based random stream (Philox keyed by the
seed). A path's block holds its normal increments, one bridge uniform
per step and barrier side, and a small reserve used only if both sides
fire within one step. Any run of paths maps to a counter offset, so the
draws a path sees depend only on (seed, path index, layout), never on
block size or worker count; per-path outputs land at fixed offsets of
preallocated arrays and are reduced once at the end. Re-blocking or
adding workers therefore cannot change a single bit of the result.

Scheduling: the paths are cut into blocks of
ceil(min(_PATHS_IN_FLIGHT, paths) / workers) rows, fewer if one block's
buffers would pass _BLOCK_BYTES, and each worker takes the next block
from one shared list until none is left. A path too long for the byte
budget on its own is rejected. Every worker owns one set of block
buffers (_BlockBuffers.layout), allocated once per call in the calling
thread and reused for each block it scans; a short last block uses
their leading rows. Peak memory is therefore the buffers of about
_PATHS_IN_FLIGHT paths whatever the worker count, and the pool threads
allocate nothing of size (paths, steps).

The scan is vectorised per block. The normal transform and the bridge
thresholds are computed in place in the word matrix's own columns.
Log-paths are one row-wise `np.add.accumulate` over `drift + vol*z`;
the accumulate runs along the row in order, so each node rounds exactly
like a per-step `x + t` loop. Each barrier side then yields a boolean
(paths, steps) hit mask: a step fires when its far endpoint is at or
past the barrier, or when the product of its two endpoint
log-distances falls below the step's bridge threshold. A path's first
hit is the argmax over the union of the sides' masks; it freezes the
path at the start of that step. A step that fires on both sides is a
tie, which the path's reserve words resolve to one side; those words
are read from the block's word matrix before the buffer is reused.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from ..model import BarrierSet, DomainError, MarketParams

RESERVE_WORDS = 8
_U_SHIFT = 2.0**-54
_U_MAX = 1.0 - 2.0**-53
_WORD_BUDGET = 2**48
_BLOCK_BYTES = 2**28  # one worker's block buffers
_PATHS_IN_FLIGHT = 16_384  # across all workers

STATUS_ALIVE = 0
STATUS_LOWER = 1
STATUS_UPPER = 2


def n_steps_for(steps_per_year: int, T: float) -> int:
    return max(1, math.ceil(steps_per_year * T - 1e-12))


def words_per_path(n_steps: int, has_l: bool, has_u: bool) -> int:
    w = n_steps * (1 + int(has_l) + int(has_u)) + RESERVE_WORDS
    return ((w + 3) // 4) * 4  # counter advances 4 words at a time


@dataclass
class PathResult:
    """Terminal state of every simulated path."""

    status: np.ndarray  # uint8, codes above (ties already resolved)
    x_final: np.ndarray  # log-price at expiry, valid where alive
    n_steps: int
    dt: float


def _barrier_logs(curve, n: int, dt: float, T: float) -> np.ndarray:
    # the last node is T itself: n*dt can round one ulp past it
    return np.array([math.log(curve.value_at(t, T)) for t in [i * dt for i in range(n)] + [T]])


def _resolve_tie(
    r: np.ndarray,
    xa: float,
    xb: float,
    sigma: float,
    dt: float,
    bl: np.ndarray | None,
    bu: np.ndarray | None,
    step: int,
) -> int:
    """Order two same-step crossings by subdividing the step once.

    The step is split at its Brownian-bridge midpoint (reserve word 0);
    each half is then tested per side with its own reserve bridge word,
    in time order. Whichever side fires in the earlier half wins; a tie
    inside one half (or a refinement that fires in neither) falls back
    to the lower side, deterministically.
    """
    vol = sigma * math.sqrt(dt)
    xm = 0.5 * (xa + xb) + 0.5 * vol * ndtri(min(r[0] + _U_SHIFT, _U_MAX))
    quarter_var = 0.25 * sigma * sigma * dt

    def half_hits(x_lo: float, x_hi: float, frac0: float, frac1: float, wl: float, wu: float):
        hl = hu = False
        if bl is not None:
            b0 = (1.0 - frac0) * bl[step] + frac0 * bl[step + 1]
            b1 = (1.0 - frac1) * bl[step] + frac1 * bl[step + 1]
            w = -quarter_var * math.log(wl + _U_SHIFT)
            hl = (x_hi <= b1) or ((x_lo - b0) * (x_hi - b1) < w)
        if bu is not None:
            b0 = (1.0 - frac0) * bu[step] + frac0 * bu[step + 1]
            b1 = (1.0 - frac1) * bu[step] + frac1 * bu[step + 1]
            w = -quarter_var * math.log(wu + _U_SHIFT)
            hu = (x_hi >= b1) or ((b0 - x_lo) * (b1 - x_hi) < w)
        return hl, hu

    hl1, hu1 = half_hits(xa, xm, 0.0, 0.5, r[1], r[2])
    hl2, hu2 = half_hits(xm, xb, 0.5, 1.0, r[3], r[4])
    first_l = 1 if hl1 else (2 if hl2 else 3)
    first_u = 1 if hu1 else (2 if hu2 else 3)
    return STATUS_LOWER if first_l <= first_u else STATUS_UPPER


class _BlockBuffers:
    """One worker's block arrays, reused for every block it scans."""

    @staticmethod
    def layout(wpp: int, n: int, has_l: bool, has_u: bool) -> dict[str, tuple[int, type]]:
        """Columns and dtype of each array, by name: the words (transformed
        in place), the log-paths and, with a barrier, distances, products,
        a scratch mask and one hit mask per side."""
        arrays = {"u": (wpp, np.float64), "x": (n + 1, np.float64)}
        if has_l or has_u:
            arrays.update(dist=(n + 1, np.float64), prod=(n, np.float64), scratch=(n, np.bool_))
        arrays.update({h: (n, np.bool_) for h, on in (("hit_l", has_l), ("hit_u", has_u)) if on})
        return arrays

    @staticmethod
    def row_bytes(wpp: int, n: int, has_l: bool, has_u: bool) -> int:
        """Bytes one path takes across the block's arrays."""
        layout = _BlockBuffers.layout(wpp, n, has_l, has_u).values()
        return sum(cols * np.dtype(dtype).itemsize for cols, dtype in layout)

    def __init__(self, rows: int, wpp: int, n: int, has_l: bool, has_u: bool) -> None:
        for name, (cols, dtype) in self.layout(wpp, n, has_l, has_u).items():
            setattr(self, name, np.empty((rows, cols), dtype=dtype))


def simulate_paths(
    params: MarketParams,
    barriers: BarrierSet,
    s0: float,
    paths: int,
    steps_per_year: int,
    seed: int,
    workers: int | None = None,
    bridge: bool = True,
) -> PathResult:
    """Scan `paths` exact-lognormal paths against the barrier set.

    Monitoring is discrete on the step grid with a Brownian-bridge
    crossing test between nodes (disabled when bridge=False, which
    leaves the draw layout untouched so runs stay pairwise comparable).
    The paths run in blocks on `workers` threads; workers=None uses
    every CPU this process may run on (its affinity mask, so `taskset`
    limits it). Neither the blocks nor the workers change a bit of the
    result. Assumes s0 is strictly inside the barriers at t=0; callers
    handle knocked-at-inception states (BarrierSet.side_at_inception) before simulating.
    """
    if paths < 1:
        raise DomainError(f"paths must be >= 1, got {paths}")
    if workers is None:
        workers = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    n = n_steps_for(steps_per_year, params.T)
    has_l = barriers.lower is not None
    has_u = barriers.upper is not None
    wpp = words_per_path(n, has_l, has_u)
    if paths * wpp > _WORD_BUDGET:
        raise DomainError(f"paths*steps budget exceeded: {paths} x {wpp} words per path")
    row = _BlockBuffers.row_bytes(wpp, n, has_l, has_u)
    if row > _BLOCK_BYTES:
        raise DomainError(f"one path's {n} steps need {row} bytes, over the "
                          f"{_BLOCK_BYTES}-byte block budget")
    dt = params.T / n
    drift = (params.mu - 0.5 * params.sigma**2) * dt
    vol = params.sigma * math.sqrt(dt)
    x0 = math.log(s0)
    bl = _barrier_logs(barriers.lower, n, dt, params.T) if has_l else None
    bu = _barrier_logs(barriers.upper, n, dt, params.T) if has_u else None
    half_var_dt = 0.5 * params.sigma**2 * dt
    reserve_base = n * (1 + int(has_l) + int(has_u))
    status = np.zeros(paths, dtype=np.uint8)
    x_final = np.empty(paths, dtype=np.float64)

    def side_hits(buf: _BlockBuffers, m: int, b: np.ndarray, upper: bool, col: int) -> np.ndarray:
        X, D, fired = buf.x[:m], buf.dist[:m], buf.scratch[:m]
        hit = (buf.hit_u if upper else buf.hit_l)[:m]
        # one distance matrix serves both ends: step i starts where step i-1 ends
        if upper:
            np.subtract(b, X, out=D)
        else:
            np.subtract(X, b, out=D)
        np.less_equal(D[:, 1:], 0.0, out=hit)
        prod = np.multiply(D[:, :-1], D[:, 1:], out=buf.prod[:m])
        if bridge:
            w = buf.u[:m, col : col + n]
            w += _U_SHIFT
            np.log(w, out=w)
            w *= -half_var_dt
        else:
            w = 0.0
        hit |= np.less(prod, w, out=fired)
        return hit

    def run_block(buf: _BlockBuffers, lo: int, hi: int) -> None:
        m = hi - lo
        u, X = buf.u[:m], buf.x[:m]
        gen = np.random.Generator(np.random.Philox(key=seed, counter=(lo * wpp) // 4))
        gen.random(out=u)
        z = u[:, :n]
        z += _U_SHIFT
        np.minimum(z, _U_MAX, out=z)
        ndtri(z, out=z)
        X[:, 0] = x0
        np.multiply(z, vol, out=X[:, 1:])
        X[:, 1:] += drift
        np.add.accumulate(X, axis=1, out=X)
        x_final[lo:hi] = X[:, n]
        if not (has_l or has_u):
            return

        hl = side_hits(buf, m, bl, False, n) if has_l else None
        hu = side_hits(buf, m, bu, True, n * (1 + int(has_l))) if has_u else None
        if hl is None or hu is None:
            hit = hu if hl is None else hl
        else:
            hit = np.logical_or(hl, hu, out=buf.scratch[:m])
        first = hit.argmax(axis=1)
        knocked = np.flatnonzero(hit[np.arange(m), first])
        step = first[knocked]
        # a knocked path freezes at the start of its first firing step
        x_final[lo + knocked] = X[knocked, step]
        neither = np.zeros(knocked.size, dtype=bool)
        on_l = neither if hl is None else hl[knocked, step]
        on_u = neither if hu is None else hu[knocked, step]
        ties = np.flatnonzero(on_l & on_u)
        reserve = u[knocked[ties], reserve_base : reserve_base + RESERVE_WORDS]
        status[lo + knocked] = np.where(on_l, STATUS_LOWER, STATUS_UPPER)
        for k, r in zip(ties, reserve):
            p, i = int(knocked[k]), int(step[k])
            status[lo + p] = _resolve_tie(
                r, X[p, i], X[p, i + 1], params.sigma, dt, bl, bu, i
            )

    block = min(-(-min(_PATHS_IN_FLIGHT, paths) // workers), _BLOCK_BYTES // row)
    blocks = iter([(lo, min(lo + block, paths)) for lo in range(0, paths, block)])
    lock = threading.Lock()

    def work(buf: _BlockBuffers) -> None:
        while True:
            with lock:
                b = next(blocks, None)
            if b is None:
                return
            run_block(buf, *b)

    n_workers = min(workers, -(-paths // block))
    bufs = [_BlockBuffers(block, wpp, n, has_l, has_u) for _ in range(n_workers)]
    if len(bufs) == 1:
        work(bufs[0])
    else:
        with ThreadPoolExecutor(max_workers=len(bufs)) as pool:
            list(pool.map(work, bufs))

    return PathResult(status=status, x_final=x_final, n_steps=n, dt=dt)
