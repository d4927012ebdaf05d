"""Conditional Monte Carlo path engine shared by pricing and breach estimation.

Between two nodes the log-price is a Brownian bridge and each barrier a
line in log space (exact for flat and exponential barriers, and for
tabulated ones with knots on nodes), so a step's chance of survival and
of first exit through each side is an exact image series (`step_exits`).
A path carries these chances instead of a knock-out test: its weight is
the product of its steps' survival chances and its mass per side the sum
of each step's exit chance times the weight before it, so monitoring is
continuous (conditional Monte Carlo on the bridge: Glasserman, Monte
Carlo Methods in Financial Engineering, 2004, 6.4). A cell counts only
where 2*d0*d1/(sigma^2*dt) < 54*ln 2 for some side (only paths with such
a cell run the series); elsewhere 1 - p rounds to 1.0, an exact skip.

Reproducibility: block b of _B paths draws its normals from
PCG64(SeedSequence((seed, b))) through NumPy's ziggurat, row-major, one
row of n_steps per path (one normal per path without a barrier, where
only the end matters). A path's draws depend only on (seed, path index),
so a shorter run is a prefix of a longer one by whole rows, and neither
the worker count nor the row slices a block is scanned in change a bit.
Each block reduces the integrand's outputs to (count, mean, M2), merged
in block order: no per-path array outlives its block. Workers take the
next block from one shared list, each on one set of buffers
(_Buffers.layout), and their slices share _BLOCK_BYTES, so peak memory
grows neither with the paths nor with the workers.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..model import BarrierSet, DomainError, MarketParams
from .closed import _CUTOFF, series_terms

_B = 4096  # paths per block; each block draws from its own stream
_BLOCK_BYTES = 2**26  # the row slices of all workers together (_Buffers.row_bytes)
# float64 columns per step the step kernel holds at once on a row near a line,
# by sides (two sides add the image terms' copies of the cells near both)
_KERNEL_COLS = (0, 7, 17)


def n_steps_for(steps_per_year: int, T: float) -> int:
    return max(1, math.ceil(steps_per_year * T - 1e-12))


def _images(a0, a1, w0, w1, k: float, terms: int):
    """sum_{n=1..N} (R_n - D_n): image terms of first exit through the line a0, a1 gap."""
    p = np.zeros_like(a0)
    for n in range(1, terms + 1):
        p += np.exp(k * (n * w0 + a0) * (n * w1 + a1))
        p -= np.exp(k * n * (n * w0 * w1 - w1 * a0 + w0 * a1))
    return p


def step_exits(d0, d1, c: float, w0=None, w1=None, terms: int = 1):
    """Survival S and first-exit masses P_l, P_u of one bridged step.

    d0, d1 are the log gaps above the lower line at the step's two ends,
    w0, w1 the corridor widths (None without an upper line, which leaves
    one side's exp(-2*d0*d1/c)), c = sigma^2*dt, and `terms` the image
    pairs kept (series_terms). With both lines,
    P_l = sum_{n>=0} e^{-2(n*w0+d0)(n*w1+d1)/c} - sum_{n>=1} e^{-2n(n*w0*w1-w1*d0+w0*d1)/c},
    P_u is the same in the upper gaps w - d, and S = 1 - P_l - P_u; where
    one line is past the cutoff, only the other's n = 0 term is kept. An end
    at or past a line survives with 0, and its mass goes to that side less
    the other side's first exit, which the series still gives there. A
    start past a line (a path whose weight is already 0) stays finite.
    """
    k = -2.0 / c
    if w0 is None:
        p = np.exp(k * np.maximum(d0, 0.0) * np.maximum(d1, 0.0))
        return 1.0 - p, p, np.zeros_like(p)
    d0 = np.minimum(np.maximum(d0, 0.0), w0)
    u0, u1 = w0 - d0, w1 - d1
    e1, f1 = np.maximum(d1, 0.0), np.maximum(u1, 0.0)
    p_l, p_u = np.exp(k * d0 * e1), np.exp(k * u0 * f1)
    # the images matter only where both lines are near: past the cutoff on
    # one side, that side's terms and every image term are below 2^-54
    both = (p_l > math.exp(-_CUTOFF)) & (p_u > math.exp(-_CUTOFF))
    if both.any():
        v0, v1 = np.broadcast_to(w0, both.shape)[both], np.broadcast_to(w1, both.shape)[both]
        p_l[both] += _images(d0[both], e1[both], v0, v1, k, terms)
        p_u[both] += _images(u0[both], f1[both], v0, v1, k, terms)
    past_l, past_u = d1 <= 0.0, u1 <= 0.0
    np.subtract(1.0, p_u, out=p_l, where=past_l)
    np.subtract(1.0, p_l, out=p_u, where=past_u)
    s = np.maximum(1.0 - p_l - p_u, 0.0)
    s[past_l | past_u] = 0.0
    return s, p_l, p_u


@dataclass(frozen=True)
class PathMoments:
    """Count, mean and sum of squared deviations (M2) of each integrand
    output over every path, and the step grid they were taken on."""

    count: int
    mean: np.ndarray
    m2: np.ndarray
    n_steps: int

    @property
    def std_error(self) -> np.ndarray:
        return np.sqrt(self.m2 / max(self.count - 1, 1) / self.count)


def _barrier_logs(curve, n: int, dt: float, T: float) -> np.ndarray:
    # the last node is T itself: n*dt can round one ulp past it
    return np.array([math.log(curve.value_at(t, T)) for t in [i * dt for i in range(n)] + [T]])


class _Buffers:
    """One worker's slice arrays, reused for every slice it scans."""

    @staticmethod
    def layout(n_draw: int, n: int, sides: int) -> dict[str, tuple[int, type]]:
        """Columns and dtype of each array, by name: the normals (turned in
        place into cumulative log-returns) and, with barriers, the gaps to
        each line, their products, the near-barrier masks and the weights."""
        arrays = {"z": (n_draw, np.float64)}
        if sides:
            arrays.update(gap=(n + 1, np.float64), prod=(n, np.float64),
                          near=(n, np.bool_), survive=(n + 1, np.float64))
        if sides == 2:
            arrays.update(gap_u=(n + 1, np.float64), near_u=(n, np.bool_))
        return arrays

    @staticmethod
    def row_bytes(n_draw: int, n: int, sides: int) -> int:
        """Bytes one path takes at most: the slice arrays, and the step
        kernel's working arrays if the row comes near a line."""
        held = sum(cols * np.dtype(dt).itemsize for cols, dt in _Buffers.layout(n_draw, n, sides).values())
        return held + _KERNEL_COLS[sides] * n * 8

    def __init__(self, rows: int, n_draw: int, n: int, sides: int) -> None:
        for name, (cols, dtype) in self.layout(n_draw, n, sides).items():
            setattr(self, name, np.empty((rows, cols), dtype=dtype))


def path_moments(
    params: MarketParams,
    barriers: BarrierSet,
    s0: float,
    paths: int,
    steps_per_year: int,
    seed: int,
    integrand: Callable[..., tuple],
    workers: int | None = None,
) -> PathMoments:
    """Moments of integrand(x_T, weight, mass_l, mass_u) over `paths` paths.

    Per path: the log-price at expiry, the chance of never touching a
    barrier, and the chances of touching the lower or upper one first, all
    from the bridge between nodes, so monitoring is continuous; the
    integrand returns a tuple of per-path arrays. workers=None uses every
    CPU in this process's affinity mask; neither the workers nor the blocks
    change a bit. Assumes s0 strictly inside the barriers at t=0 (callers
    apply BarrierSet.side_at_inception first).
    """
    if paths < 1:
        raise DomainError(f"paths must be >= 1, got {paths}")
    if workers is None:
        workers = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    T, sigma = params.T, params.sigma
    barriers.check_ordering(T)  # the corridor series needs a positive width
    n = n_steps_for(steps_per_year, T)
    dt = T / n
    has_l, has_u = barriers.lower is not None, barriers.upper is not None
    sides = int(has_l) + int(has_u)
    n_draw = n if sides else 1  # without a barrier only the end matters
    row = _Buffers.row_bytes(n_draw, n, sides)
    if row > _BLOCK_BYTES:
        raise DomainError(f"one path's {n} steps need {row} bytes, over the {_BLOCK_BYTES}-byte block budget")
    n_blocks = -(-paths // _B)
    n_bufs = min(workers, n_blocks, _BLOCK_BYTES // row)
    rows = min(_B, _BLOCK_BYTES // (row * n_bufs))
    h = T / n_draw
    drift, vol = (params.mu - 0.5 * sigma**2) * h, sigma * math.sqrt(h)
    x0, c = math.log(s0), sigma**2 * dt
    # gaps to the first line the scan measures: the lower one, else the upper
    line = _barrier_logs(barriers.lower or barriers.upper, n, dt, T) if sides else None
    x0_gap = (x0 - line) if has_l else (line - x0) if sides else None
    width = _barrier_logs(barriers.upper, n, dt, T) - line if sides == 2 else None
    corridor = ((width[:-1], width[1:], series_terms(float(np.min(width[:-1] * width[1:])), c))
                if sides == 2 else ())

    def scan(buf: _Buffers, gen: np.random.Generator, m: int):
        """(x_T, weight, mass_l, mass_u) for the next m rows of gen."""
        z = buf.z[:m]
        gen.standard_normal(out=z)
        z *= vol
        z += drift
        np.add.accumulate(z, axis=1, out=z)  # log-return at each node after t=0
        x_T = x0 + z[:, -1]
        weight, mass_l, mass_u = np.ones(m), np.zeros(m), np.zeros(m)
        if not sides:
            return x_T, weight, mass_l, mass_u
        gap, near = buf.gap[:m], buf.near[:m]
        gap[:, 0] = x0_gap[0]
        if has_l:
            np.add(z, x0_gap[1:], out=gap[:, 1:])
        else:
            np.subtract(x0_gap[1:], z, out=gap[:, 1:])
        lines = [(gap, near)]
        if sides == 2:
            lines.append((np.subtract(width, gap, out=buf.gap_u[:m]), buf.near_u[:m]))
        for g, g_near in lines:  # 2*d0*d1/c below the cutoff: the series counts
            np.less(np.multiply(g[:, :-1], g[:, 1:], out=buf.prod[:m]), 0.5 * _CUTOFF * c, out=g_near)
        if sides == 2:
            near |= buf.near_u[:m]
        hit = np.flatnonzero(near.any(axis=1))
        if hit.size == 0:
            return x_T, weight, mass_l, mass_u
        g, on = gap[hit], near[hit]  # the rows with a cell near a line
        s, p_l, p_u = step_exits(g[:, :-1], g[:, 1:], c, *corridor)
        if not has_l:
            p_l, p_u = p_u, p_l
        w = buf.survive[: hit.size]
        w.fill(1.0)
        np.copyto(w[:, 1:], s, where=on)  # a cell away from every line keeps 1 and adds 0
        np.multiply.accumulate(w, axis=1, out=w)  # weight before each step, and at T
        weight[hit] = w[:, -1]
        for mass, p in ((mass_l, p_l), (mass_u, p_u)):
            mass[hit] = np.add.accumulate(np.where(on, w[:, :-1] * p, 0.0), axis=1)[:, -1]
        return x_T, weight, mass_l, mass_u

    block_stats: list = [None] * n_blocks

    def run_block(buf: _Buffers, b: int) -> None:
        m = min(_B, paths - b * _B)
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, b))))
        parts = [integrand(*scan(buf, gen, min(rows, m - lo))) for lo in range(0, m, rows)]
        ys = [np.concatenate(col) if len(col) > 1 else col[0] for col in zip(*parts)]
        means = np.array([np.sum(y) / m for y in ys])
        m2 = np.array([np.sum((y - mu) ** 2) for y, mu in zip(ys, means)])
        block_stats[b] = (m, means, m2)

    blocks = iter(range(n_blocks))
    lock = threading.Lock()

    def work(buf: _Buffers) -> None:
        while True:
            with lock:
                b = next(blocks, None)
            if b is None:
                return
            run_block(buf, b)

    bufs = [_Buffers(rows, n_draw, n, sides) for _ in range(n_bufs)]
    with ThreadPoolExecutor(max_workers=len(bufs)) as pool:
        list(pool.map(work, bufs))

    count, mean, m2 = block_stats[0]
    for m, mean_b, m2_b in block_stats[1:]:  # Chan et al.'s update, in block order
        delta, total = mean_b - mean, count + m
        mean, m2 = mean + delta * (m / total), m2 + m2_b + delta * delta * (count * m / total)
        count = total
    return PathMoments(count=count, mean=mean, m2=m2, n_steps=n)
