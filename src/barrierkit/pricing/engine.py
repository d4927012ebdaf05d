"""Conditional Monte Carlo path engine shared by pricing and breach estimation.

The nodes are the uniform i*T/n of McConfig.steps_per_year and every
barrier breakpoint more than 1e-9 of a step from them, so between two
nodes the log-price is a Brownian bridge and each barrier a line in log
space, and a step's chances of survival and of first exit through each
side are an exact image series (`step_exits`), one line alone being the
corridor with its far line at infinity. A whole step lasts T/n; a step
cut at a knot has its own length, drift, volatility and c.
A path carries these chances instead of a knock-out test: its weight is
the product of its steps' survival chances and its mass per side the sum
of each step's exit chance times the weight before it, so monitoring is
continuous (conditional Monte Carlo on the bridge: Glasserman, Monte
Carlo Methods in Financial Engineering, 2004, 6.4). A cell (path, step)
counts only where 2*d0*d1/c < 54*ln 2 for some side, since
elsewhere 1 - p rounds to 1.0, and only while its step starts strictly
inside the lines: the step that reaches a line survives with 0, so a
step that starts there follows a weight of 0 and adds 0. Both skips are
exact. The series runs on the list of these live near cells alone, and
only on the paths the integrand reads (`reads`): a price reads only the
paths that pay, since one that ends out of the money adds
disc*(weight*0.0) = 0.0 whatever its weight. Every other path keeps
weight 1 and masses 0, as a path far from every line does.

Layout: the normals are drawn row-major (below); everything after the
draw is node-major, node (or step) j of every path in a slice one
contiguous row, so each operation runs on long vectors: the walk is a
sweep that adds step j's row to node j's, the near tests multiply whole
rows, and a path's weight is a product and its masses sums down its
column (np.multiply.accumulate and np.add.reduce over the rows), each
taken one step at a time in step order. Cells off the list hold 1 in the
product and 0 in the sums, so every product and sum is the one a path's
own row of steps would give.

Reproducibility: block b of _B paths draws its normals from
PCG64(SeedSequence((seed, b))) through NumPy's ziggurat, row-major, one
row of n_steps per path (one normal per path without a barrier, where
only the end matters). A path's draws depend only on (seed, path index),
so a shorter run is a prefix of a longer one by whole rows, and neither
the worker count nor the row slices a block is scanned in change a bit.
Each block reduces the integrand's outputs to (count, mean, M2), merged
in block order: no per-path array outlives its block. Workers take the
next block from one shared list, each on one set of buffers
(_Buffers.layout) that holds every array a slice works in, the step
kernel's included, so a slice allocates only vectors of one value per
path and its near-cell lists (np.flatnonzero's indices, 8 bytes a listed
cell). The workers' buffers share _BLOCK_BYTES, so peak memory grows
neither with the paths nor with the workers.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..model import BarrierSet, DomainError, MarketParams, McConfig
from .closed import _CUTOFF, series_terms

_B = 4096  # paths per block; each block draws from its own stream
_BLOCK_BYTES = 2**26  # the row slices of all workers together (_Buffers.row_bytes)


def n_steps_for(per_year: int, T: float) -> int:
    return max(1, math.ceil(per_year * T - 1e-12))


def _images(a0, a1, w0, w1, k, terms: int, p, t, u):
    """sum_{n=1..N} (R_n - D_n) into p: image terms of first exit through the line a0, a1 gap.

    k is one per cell; t and u are scratch. Each product is
    taken in the order of the formulas, so a cell's value does not depend
    on the arrays it sits in.
    """
    p.fill(0.0)
    for n in range(1, terms + 1):
        np.multiply(w0, n, out=t)  # R_n = exp(k*(n*w0 + a0)*(n*w1 + a1))
        t += a0
        t *= k
        t *= np.add(np.multiply(w1, n, out=u), a1, out=u)
        p += np.exp(t, out=t)
        np.multiply(w0, n, out=t)  # D_n = exp(k*n*(n*w0*w1 - w1*a0 + w0*a1))
        t *= w1
        t -= np.multiply(w1, a0, out=u)
        t += np.multiply(w0, a1, out=u)
        t *= np.multiply(k, n, out=u)
        p -= np.exp(t, out=t)
    return p


def step_exits(d0, d1, c, w0=math.inf, w1=math.inf, terms: int = 1, buf=None):
    """Survival S and first-exit masses P_l, P_u of bridged steps, one per cell.

    d0, d1 are the log gaps above the lower line at the steps' two ends,
    w0, w1 the corridor widths (1-D arrays of d0's length, or inf for a
    single line), c = sigma^2*dt one number or one per cell (buf's z may
    hold it; k takes its place there), and `terms` the image pairs kept
    (series_terms, the most any cell needs).
    P_l = sum_{n>=0} e^{-2(n*w0+d0)(n*w1+d1)/c} - sum_{n>=1} e^{-2n(n*w0*w1-w1*d0+w0*d1)/c},
    P_u is the same in the upper gaps w - d, and S = 1 - P_l - P_u; where
    one line is past the cutoff, only the other's n = 0 term is kept, so a
    single line has P_l = exp(-2*d0*d1/c) and P_u = 0. An end at or past a
    line survives with 0, and its mass goes to that side less the other
    side's first exit, which the series still gives there; this also
    overwrites the NaN (0*inf) of a c that underflows to 0. A start on or
    past a line, which the engine never passes, is finite for c > 0. The
    results are views into buf's kernel arrays, made here when buf is None.
    """
    size = d0.size
    buf = _Buffers(size, 1, 1, 2) if buf is None else buf
    s, p_l, p_u, a0, u0, e1, f1, past_l, past_u = (buf.flat(name, size) for name in (
        "s", "p_l", "p_u", "a0", "u0", "e1", "f1", "past_l", "past_u"))
    np.minimum(np.maximum(d0, 0.0, out=a0), w0, out=a0)
    np.subtract(w0, a0, out=u0)
    np.subtract(w1, d1, out=f1)  # the upper gap at the end
    np.less_equal(d1, 0.0, out=past_l)
    np.less_equal(f1, 0.0, out=past_u)
    np.maximum(d1, 0.0, out=e1)
    np.maximum(f1, 0.0, out=f1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        k = np.divide(-2.0, c, out=buf.flat("z", size))
        for p, g0, g1 in ((p_l, a0, e1), (p_u, u0, f1)):
            np.multiply(g0, k, out=p)
            p *= g1
            np.exp(p, out=p)
    # the images matter only where both lines are near: past the cutoff on
    # one side, that side's terms and every image term are below 2^-54; a
    # single line keeps no image pairs (terms 0) and no cell is near both
    if terms > 0:
        both = np.greater(np.minimum(p_l, p_u, out=s), math.exp(-_CUTOFF), out=buf.flat("both", size))
        if both.any():
            idx = np.flatnonzero(both)
            m = idx.size
            v0, v1, x0, x1 = (buf.flat(name, m) for name in ("v0", "v1", "x0", "x1"))
            np.take(w0, idx, out=v0, mode="clip")
            np.take(w1, idx, out=v1, mode="clip")
            # s is free until the end: it holds k at the listed cells
            k_both = np.take(k, idx, out=buf.flat("s", m), mode="clip")
            for p, g0, g1 in ((p_l, a0, e1), (p_u, u0, f1)):
                np.take(g0, idx, out=x0, mode="clip")
                np.take(g1, idx, out=x1, mode="clip")
                img = _images(x0, x1, v0, v1, k_both, terms, *(buf.flat(name, m) for name in ("img", "t", "u")))
                p[idx] = np.add(np.take(p, idx, out=x0, mode="clip"), img, out=x0)
    np.subtract(1.0, p_u, out=p_l, where=past_l)
    np.subtract(1.0, p_l, out=p_u, where=past_u)
    np.subtract(1.0, p_l, out=s)
    s -= p_u
    np.maximum(s, 0.0, out=s)
    np.copyto(s, 0.0, where=np.logical_or(past_l, past_u, out=past_l))
    return s, p_l, p_u


@dataclass(frozen=True)
class PathMoments:
    """Count, mean and sum of squared deviations (M2) of each integrand
    output over every path, and the step grid they were taken on: n_steps
    counts the uniform steps and those cut at a knot.
    near_cells counts the cells (path, step) the bridge series ran on:
    those near a line whose step starts strictly inside the lines, on the
    paths the integrand reads (for a price, only the paths that pay).
    terms is the series' image pairs per step (0 without a corridor)."""

    count: int
    mean: np.ndarray
    m2: np.ndarray
    n_steps: int
    near_cells: int
    terms: int

    @property
    def std_error(self) -> np.ndarray:
        return np.sqrt(self.m2 / max(self.count - 1, 1) / self.count)


class _Buffers:
    """One worker's slice arrays, reused for every slice it scans."""

    @staticmethod
    def layout(n_draw: int, n: int, sides: int) -> dict[str, tuple[int, type]]:
        """Values per path and dtype of each flat array, by name; a slice of
        m paths views the front of each. z holds the normals, one row of
        n_draw per path, then in turn the gaps' products, each listed cell's
        c and k, and each step's exit mass. With barriers: each node's gap
        to the first line, the near-line masks, the paths with a near cell
        (their mask, and their gaps, then weights, at each node), the
        near cells' steps and gaps and the step kernel's n = 0 arrays
        (step_exits), which one line runs as the corridor with its far line
        at infinity. A corridor adds the upper gaps and masks, each listed
        cell's widths, the near-both mask and the image series' arrays over
        the cells it lists. The lists of cells themselves are not held:
        np.flatnonzero allocates them, 8 bytes a listed cell."""
        f8, i8, b1 = np.float64, np.intp, np.bool_
        arrays = {"z": (n_draw, f8)}
        if sides:
            arrays.update(gap=(n + 1, f8), near=(n, b1), on=(n, b1), nodes=(n + 1, f8), step=(n, i8),
                          d0=(n, f8), d1=(n, f8), s=(n, f8), p_l=(n, f8), p_u=(n, f8),
                          a0=(n, f8), u0=(n, f8), e1=(n, f8), f1=(n, f8),
                          past_l=(n, b1), past_u=(n, b1))
        if sides == 2:
            arrays.update(gap_u=(n + 1, f8), near_u=(n, b1), w0=(n, f8), w1=(n, f8), both=(n, b1),
                          v0=(n, f8), v1=(n, f8), x0=(n, f8), x1=(n, f8), img=(n, f8), t=(n, f8), u=(n, f8))
        return arrays

    @staticmethod
    def row_bytes(n_draw: int, n: int, sides: int) -> int:
        """Bytes the buffers hold per path: all that a slice uses."""
        layout = _Buffers.layout(n_draw, n, sides).values()
        return sum(cols * np.dtype(dt).itemsize for cols, dt in layout)

    def __init__(self, rows: int, n_draw: int, n: int, sides: int) -> None:
        for name, (cols, dtype) in self.layout(n_draw, n, sides).items():
            setattr(self, name, np.empty(rows * cols, dtype=dtype))

    def flat(self, name: str, size: int) -> np.ndarray:
        """The first `size` cells of array `name`."""
        return getattr(self, name)[:size]

    def grid(self, name: str, rows: int, cols: int) -> np.ndarray:
        """The first rows*cols cells of array `name`, as rows of cols."""
        return getattr(self, name)[: rows * cols].reshape(rows, cols)


def path_moments(
    params: MarketParams,
    barriers: BarrierSet,
    s0: float,
    cfg: McConfig,
    integrand: Callable[..., tuple],
    workers: int | None = None,
    reads: Callable[[np.ndarray], np.ndarray] | None = None,
) -> PathMoments:
    """Moments of integrand(x_T, weight, mass_l, mass_u) over cfg.paths paths.

    Per path: the log-price at expiry, the chance of never touching a
    barrier, and the chances of touching the lower or upper one first, all
    from the bridge between nodes, so monitoring is continuous; the
    integrand returns a tuple of per-path arrays. workers=None uses every
    CPU in this process's affinity mask; neither the workers nor the blocks
    change a bit. s0 must be strictly inside the barriers at t=0, else
    DomainError: callers apply BarrierSet.side_at_inception first.
    reads(x_T), when given, marks the paths whose chances the integrand
    reads; the bridge runs on no other path, which keeps weight 1 and
    masses 0 (a price reads only the paths that pay). None reads every path.
    """
    if workers is None:
        workers = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    T, sigma = params.T, params.sigma
    barriers.check_ordering(T)  # the corridor series needs a positive width
    paths, seed, n_grid = cfg.paths, cfg.seed, n_steps_for(cfg.steps_per_year, T)
    grid_dt = T / n_grid
    # the uniform nodes, the last T itself (n_grid*grid_dt can round one ulp
    # past it), and every breakpoint more than 1e-9 of a step from them
    cuts = {t for t in barriers.breakpoints(T) if abs(t / grid_dt - round(t / grid_dt)) > 1e-9}
    times = sorted([i * grid_dt for i in range(n_grid)] + [T, *cuts])
    n = len(times) - 1
    # a whole step keeps the length T/n_grid; only a step cut at a knot takes
    # its own, and only then are dt, drift, vol and c one value per step
    dt = grid_dt if not cuts else np.array(
        [b - a if a in cuts or b in cuts else grid_dt for a, b in zip(times, times[1:])])
    has_l, has_u = barriers.lower is not None, barriers.upper is not None
    sides = int(has_l) + int(has_u)
    n_draw = n if sides else 1  # without a barrier only the end matters
    row = _Buffers.row_bytes(n_draw, n, sides)
    if row > _BLOCK_BYTES:
        raise DomainError(f"one path's {n} steps need {row} bytes, over the {_BLOCK_BYTES}-byte block budget")
    n_blocks = -(-paths // _B)
    n_bufs = min(workers, n_blocks, _BLOCK_BYTES // row)
    rows = min(_B, _BLOCK_BYTES // (row * n_bufs))
    span = dt if sides else T  # each draw's time span
    drift, vol = (params.mu - 0.5 * sigma**2) * span, sigma * np.sqrt(span)
    x0, c = math.log(s0), sigma**2 * dt
    near_c = np.reshape(0.5 * _CUTOFF * c, (-1, 1))  # a (1, 1) array compares as fast as a number
    logs = [np.array([math.log(curve.value_at(t, T)) for t in times])
            for curve in (barriers.lower, barriers.upper) if curve is not None]
    # gaps to the first line the scan measures: the lower one, else the upper
    line = logs[0] if sides else None
    x0_gap = (x0 - line) if has_l else (line - x0) if sides else None
    width = logs[1] - line if sides == 2 else None
    # the scan lists a step only while its start is inside, so node 0 must be
    if barriers.side_at_inception(s0, T) is not None:
        raise DomainError(f"s0={s0} is on or past a barrier at t=0: "
                          "resolve it with BarrierSet.side_at_inception first")
    c_step = np.broadcast_to(c, (n,))  # each step's c, which the kernel reads per cell
    # the pairs of the neediest step (largest c/ww), which no other step's count passes
    terms = 0 if sides < 2 else series_terms(*max(
        zip((width[:-1] * width[1:]).tolist(), c_step.tolist()), key=lambda s: s[1] / s[0]))

    def scan(buf: _Buffers, gen: np.random.Generator, m: int):
        """(x_T, weight, mass_l, mass_u) for the next m rows of gen, and the
        count of cells the series ran on."""
        z = buf.grid("z", m, n_draw)
        gen.standard_normal(out=z)
        z *= vol
        z += drift
        weight, mass_l, mass_u = np.ones(m), np.zeros(m), np.zeros(m)
        if not sides:
            return (x0 + z[:, 0], weight, mass_l, mass_u), 0
        gap = buf.grid("gap", n + 1, m)  # row j: node j of every path
        gap[1] = z[:, 0]
        for j in range(1, n):  # the log-return at each node after t=0, added in step order
            np.add(gap[j], z[:, j], out=gap[j + 1])
        x_T = x0 + gap[n]
        gap[0] = x0_gap[0]
        if has_l:
            gap[1:] += x0_gap[1:, None]
        else:
            np.subtract(x0_gap[1:, None], gap[1:], out=gap[1:])
        near = buf.grid("near", n, m)  # 2*d0*d1/c below the cutoff: the series counts (z is spent)
        np.less(np.multiply(gap[:-1], gap[1:], out=buf.grid("z", n, m)), near_c, out=near)
        if sides == 2:  # or the same to the upper line
            g = np.subtract(width[:, None], gap, out=buf.grid("gap_u", n + 1, m))
            near |= np.less(np.multiply(g[:-1], g[1:], out=buf.grid("z", n, m)), near_c,
                            out=buf.grid("near_u", n, m))
        live = near.any(axis=0)
        if reads is not None:  # a path the integrand does not read keeps weight 1 and masses 0
            live &= reads(x_T)
        hit = np.flatnonzero(live)
        if hit.size == 0:
            return (x_T, weight, mass_l, mass_u), 0
        h = hit.size  # the paths with a cell near a line: (n, h) cells and (n + 1, h) nodes
        on = np.take(near, hit, axis=1, out=buf.grid("on", n, h), mode="clip")
        nodes = np.take(gap, hit, axis=1, out=buf.grid("nodes", n + 1, h), mode="clip")
        # a step that starts on or past a line follows a weight of 0: it adds
        # nothing, so only live cells are listed (near is free once on is taken)
        on &= np.greater(nodes[:-1], 0.0, out=buf.grid("near", n, h))
        if sides == 2:  # w - d > 0 exactly where d < w
            on &= np.less(nodes[:-1], width[:-1, None], out=buf.grid("near", n, h))
        cell = np.flatnonzero(on)
        cells = cell.size  # cell j*h + r is step j of hit path r: node j in nodes, node j + 1 in nodes[1:]
        j = np.floor_divide(cell, h, out=buf.flat("step", cells))  # each cell's step
        # each cell's c, which step_exits turns into its k in place (z is spent)
        c_cell = np.take(c_step, j, out=buf.flat("z", cells), mode="clip")
        w0 = w1 = math.inf  # one line: the corridor with its far line at infinity
        if sides == 2:  # the corridor's widths at each step's two nodes
            w0 = np.take(width, j, out=buf.flat("w0", cells), mode="clip")
            j += 1
            w1 = np.take(width, j, out=buf.flat("w1", cells), mode="clip")
        d0 = np.take(nodes.reshape(-1), cell, out=buf.flat("d0", cells), mode="clip")
        d1 = np.take(nodes[1:].reshape(-1), cell, out=buf.flat("d1", cells), mode="clip")
        s, p_l, p_u = step_exits(d0, d1, c_cell, w0, w1, terms, buf=buf)
        w = nodes  # the gaps are read: now the weight at each node
        w.fill(1.0)  # a cell away from every line keeps 1 and adds 0
        w[1:].reshape(-1)[cell] = s
        np.multiply.accumulate(w, axis=0, out=w)
        weight[hit] = w[-1]
        before = np.take(w.reshape(-1), cell, out=d0, mode="clip")  # the weight before each step
        exits = ((mass_l, p_l), (mass_u, p_u)) if sides == 2 else ((mass_l if has_l else mass_u, p_l),)
        steps = buf.grid("z", n, h)  # each step's exit mass; only the listed cells are ever written
        steps.fill(0.0)
        for mass, p in exits:  # summed over the steps in order, as a row sum
            steps.reshape(-1)[cell] = np.multiply(before, p, out=d1)
            mass[hit] = np.add.reduce(steps, axis=0)
        return (x_T, weight, mass_l, mass_u), cells

    block_stats: list = [None] * n_blocks

    def run_block(buf: _Buffers, b: int) -> None:
        m = min(_B, paths - b * _B)
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, b))))
        parts, cells = [], 0
        for lo in range(0, m, rows):
            state, k = scan(buf, gen, min(rows, m - lo))
            parts.append(integrand(*state))
            cells += k
        ys = [np.concatenate(col) if len(col) > 1 else col[0] for col in zip(*parts)]
        means = np.array([np.sum(y) / m for y in ys])
        m2 = np.array([np.sum((y - mu) ** 2) for y, mu in zip(ys, means)])
        block_stats[b] = (m, means, m2, cells)

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

    count, mean, m2, near_cells = block_stats[0]
    for m, mean_b, m2_b, cells in block_stats[1:]:  # Chan et al.'s update, in block order
        delta, total = mean_b - mean, count + m
        mean, m2 = mean + delta * (m / total), m2 + m2_b + delta * delta * (count * m / total)
        count = total
        near_cells += cells
    return PathMoments(count=count, mean=mean, m2=m2, n_steps=n, near_cells=near_cells, terms=terms)
