"""Path engine: the bridge step kernel, the scan against a scalar reference,
determinism, memory, and step accounting."""

import math
import re
import sys
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from barrierkit.model import (
    BarrierCurve, BarrierOrderError, BarrierSet, DomainError, MarketParams, NumericsError,
    OptionSpec, Payoff,
)
from barrierkit.passage import breach_prob_mc, breach_prob_pde, default_grid
from barrierkit.pricing import closed, engine
from barrierkit.pricing.closed import series_terms
from barrierkit.pricing.engine import n_steps_for, path_moments, step_exits
from barrierkit.pricing.mc import McConfig, mc_price


def mk_params(sigma=0.30, T=0.25, r=0.10):
    return MarketParams(mu=r, sigma=sigma, r=r, T=T)


DKO = BarrierSet(lower=BarrierCurve.flat(70.0), upper=BarrierCurve.flat(130.0))
NEAR_DKO = BarrierSet(lower=BarrierCurve.flat(85.0), upper=BarrierCurve.flat(115.0))
# three steps in a narrowing corridor: many steps near both sides at once
CORRIDOR = BarrierSet(
    lower=BarrierCurve.exponential(88.0, 0.2), upper=BarrierCurve.exponential(112.0, -0.2)
)


# a peak at t = 0.1: between the uniform nodes 0 and 0.25 at 4 steps a
# year, on the node 0.1 at 10; with sigma 0.3 and r 0.1 the quadrature
# gives 0.4852477 from s0 = 100 over T = 0.5
KNOTTED = BarrierSet(lower=BarrierCurve.tabulated(((0.0, 70.0), (0.1, 95.0), (0.5, 70.0))))
# a corridor with a knot off the nodes of 12 steps a year on each side
KNOTTED_CORRIDOR = BarrierSet(
    lower=BarrierCurve.tabulated(((0.0, 85.0), (0.1, 90.0), (0.25, 84.0))),
    upper=BarrierCurve.tabulated(((0.0, 118.0), (0.17, 110.0), (0.25, 119.0))),
)


def kernel(d0, d1, c, w0=None, w1=None):
    """step_exits on scalars, with the image pairs the engine would keep."""
    args = (np.array([d0]), np.array([d1]), c)
    if w0 is not None:
        args += (np.array([w0]), np.array([w1]), series_terms(w0 * w1, c))
    return tuple(float(v[0]) for v in step_exits(*args))


def series_mp(d0, d1, w0, w1, c, images=40):
    """(S, P_l, P_u) from the same sums at 30 digits, 2*images+1 images each."""
    with mp.workdps(30):
        d0, d1, w0, w1, c = (mp.mpf(v) for v in (d0, d1, w0, w1, c))

        def exit_first(a0, a1):
            direct = sum(mp.exp(-2 * n * (n * w0 * w1 - w1 * a0 + w0 * a1) / c)
                         for n in range(1, images + 1))
            return sum(mp.exp(-2 * (n * w0 + a0) * (n * w1 + a1) / c)
                       for n in range(images + 1)) - direct

        s = sum(mp.exp(-2 * n * (n * w0 * w1 - w1 * d0 + w0 * d1) / c)
                - mp.exp(-2 * (n * w0 + d0) * (n * w1 + d1) / c)
                for n in range(-images, images + 1))
        return s, exit_first(d0, d1), exit_first(w0 - d0, w1 - d1)


def subdivided_bridges(d0, d1, w0, w1, c, bridges=20_000, sub=400, seed=0):
    """(S, P_l, P_u) estimated on bridges cut into `sub` pieces, with
    standard errors. Lower line 0 -> l1, upper w0 -> l1 + w1 over unit time,
    variance c; each piece carries its own one-line bridge chance per side,
    which is exact up to touching both lines within one piece."""
    l1 = 0.2 * (w0 - w1)  # the lower line's move; the upper moves l1 + w1 - w0
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 1.0, sub + 1)
    walk = np.zeros((bridges, sub + 1))
    walk[:, 1:] = np.cumsum(rng.standard_normal((bridges, sub)) * math.sqrt(c / sub), axis=1)
    x = d0 + walk - t * (walk[:, -1:] - (l1 + d1 - d0))
    lo = x - t * l1
    up = (w0 + t * (l1 + w1 - w0)) - x
    h = c / sub
    p_l = np.exp(-2.0 * np.maximum(lo[:, :-1], 0.0) * np.maximum(lo[:, 1:], 0.0) / h)
    p_u = np.exp(-2.0 * np.maximum(up[:, :-1], 0.0) * np.maximum(up[:, 1:], 0.0) / h)
    s = np.maximum(1.0 - p_l - p_u, 0.0)
    before = np.cumprod(np.hstack([np.ones((bridges, 1)), s]), axis=1)
    outs = (before[:, -1], (before[:, :-1] * p_l).sum(axis=1), (before[:, :-1] * p_u).sum(axis=1))
    return [(float(y.mean()), float(y.std() / math.sqrt(bridges))) for y in outs]


class TestStepKernel:
    # (d0, d1, w0, w1, c): flat, equal-growth and unequal-growth corridors,
    # a wide step (many images), a narrow one and a near-crossing
    GEOMETRIES = [
        (0.15, 0.20, 0.40, 0.40, 0.04),
        (0.10, 0.32, 0.40, 0.40, 0.04),
        (0.15, 0.20, 0.40, 0.30, 0.04),
        (0.05, 0.25, 0.30, 0.40, 0.09),
        (0.20, 0.01, 0.30, 0.35, 0.50),
        (0.30, 0.05, 0.40, 0.40, 1.00),
        (0.39, 0.01, 0.40, 0.38, 0.01),
        (0.01, 0.02, 0.62, 0.62, 4.5e-4),
    ]

    @pytest.mark.parametrize("d0, d1, w0, w1, c", GEOMETRIES)
    def test_against_mpmath(self, d0, d1, w0, w1, c):
        # S = 1 - P_l - P_u is a difference of terms near 1: a few ulps of 1
        got = kernel(d0, d1, c, w0, w1)
        for g, want in zip(got, series_mp(d0, d1, w0, w1, c)):
            assert g == pytest.approx(float(want), rel=1e-13, abs=1e-15)

    @pytest.mark.parametrize("d0, d1, w0, w1", [
        (0.15, 0.20, 0.40, 0.40),  # flat
        (0.12, 0.23, 0.40, 0.40),  # equal growth: a parallel corridor
        (0.15, 0.20, 0.40, 0.30),  # growth +0.2 / -0.2 over a quarter year
    ], ids=["flat", "equal-growth", "unequal-growth"])
    def test_against_subdivided_bridges(self, d0, d1, w0, w1):
        # sigma = 0.4 over dt = 0.25; the split between the sides of a
        # narrowing corridor follows only from the time change
        c = 0.04
        got = kernel(d0, d1, c, w0, w1)
        assert min(got) > 0.05  # every outcome has real mass
        for g, (est, se) in zip(got, subdivided_bridges(d0, d1, w0, w1, c)):
            assert abs(g - est) <= 4.0 * se + 1e-3

    @pytest.mark.parametrize("d0, d1, w0, w1, c", GEOMETRIES)
    def test_identities(self, d0, d1, w0, w1, c):
        s, p_l, p_u = kernel(d0, d1, c, w0, w1)
        assert s + p_l + p_u == pytest.approx(1.0, abs=4e-16)
        # mirror: the same corridor seen from the upper line
        m_s, m_l, m_u = kernel(w0 - d0, w1 - d1, c, w0, w1)
        # (to a few ulps: the mirrored gaps w - d are rounded)
        assert (m_s, m_l, m_u) == pytest.approx((s, p_u, p_l), abs=4e-15)
        # one line alone, and a far upper one, leave the series' n = 0 term,
        # exp(d0*k*d1) with k = -2/c, bit for bit (NumPy's exp, as the kernel's)
        one = float(np.exp(np.array([d0 * (-2.0 / c) * d1]))[0])
        assert kernel(d0, d1, c, 40.0, 40.0)[1] == one
        assert kernel(d0, d1, c) == (1.0 - one, one, 0.0)

    def test_cutoff_skips_only_what_rounds_away(self):
        c = 0.01
        past = 54.0 * math.log(2.0) * (1.0 + 1e-9)  # 2*d0*d1/c just past the cutoff
        d0 = d1 = math.sqrt(0.5 * past * c)
        s, p, _ = kernel(d0, d1, c)
        assert 0.0 < p and 1.0 - p == 1.0 and s == 1.0
        d1 *= 0.99  # just inside it 1 - p is below 1.0
        assert kernel(d0, d1, c)[0] < 1.0

    @pytest.mark.parametrize("d1", [0.0, -0.05, -0.4])
    def test_end_on_or_past_a_line(self, d1):
        # survival 0; the mass goes to the line crossed less the other
        # line's first exit, from the same series
        d0, w0, w1, c = 0.3, 0.4, 0.35, 0.04
        s, p_l, p_u = kernel(d0, d1, c, w0, w1)
        _, _, want_u = series_mp(d0, d1, w0, w1, c)
        assert s == 0.0
        assert p_u == pytest.approx(float(want_u), rel=1e-13, abs=2e-16)
        assert p_l == 1.0 - p_u
        # the mirror case: an end past the upper line
        s, m_l, m_u = kernel(w0 - d0, w1 - d1, c, w0, w1)
        assert (s, m_l, m_u) == (0.0, p_u, p_l)
        assert kernel(d0, d1, c) == (0.0, 1.0, 0.0)

    def test_start_past_a_line_stays_finite(self):
        # the engine lists no step of a path already knocked out, but a
        # direct caller may pass one: it must not be NaN
        out = step_exits(np.array([-0.5, -0.5, 0.9]), np.array([0.1, -0.2, 0.1]), 0.04,
                         np.array([0.4] * 3), np.array([0.4] * 3), 2)
        assert all(np.all(np.isfinite(v)) for v in out)

    def test_c_per_cell_matches_one_c_per_call(self):
        # unequal steps pass c one per cell: each cell gets every bit it gets
        # alone, with the image pairs of the step that needs the most
        d0, d1, w0, w1, c = (np.array(col) for col in zip(*self.GEOMETRIES))
        terms = max(series_terms(a * b, cj) for a, b, cj in zip(w0, w1, c))
        for corridor in ((), (w0, w1, terms)):
            got = step_exits(d0, d1, c, *corridor)
            for i in range(c.size):
                one = step_exits(d0[i:i + 1], d1[i:i + 1], float(c[i]),
                                 *(v[i:i + 1] for v in corridor[:2]), *corridor[2:])
                assert [float(v[i]) for v in got] == [float(v[0]) for v in one]

    def test_series_terms_bound_the_first_image_left_out(self):
        ww = 0.3 * 0.25  # the least product of widths 0.3, 0.25, 0.4 at adjacent nodes
        for c in (1e-4, 0.04, 1.0, 10.0, 0.3, 7.77, 123.4, 4010.0):
            n = series_terms(ww, c)
            assert 2.0 * n * (n + 1) * ww / c >= 54.0 * math.log(2.0)
            assert n == 1 or 2.0 * (n - 1) * n * ww / c < 54.0 * math.log(2.0)
        assert series_terms(ww, 4010.0) == closed._MAX_TERMS
        with pytest.raises(NumericsError, match="1e\\+03 image pairs"):
            series_terms(ww, 4020.0)

    def test_a_narrowing_corridor_is_refused_with_its_neediest_step(self):
        # the width falls from 2e-9 to 1e-9 over 13 steps: the last needs the
        # most image pairs, and the refusal quotes that count
        lower, upper = BarrierCurve.exponential(99.9999999, 0.0), BarrierCurve.exponential(100.0000001, -4e-9)
        barriers = BarrierSet(lower, upper)
        w0, w1 = (math.log(upper.value_at(t, 0.25) / lower.value_at(t, 0.25)) for t in (0.25 * 12 / 13, 0.25))
        need = closed._CUTOFF * 0.3**2 * (0.25 / 13) / (2.0 * w0 * w1)
        params = mk_params(sigma=0.3, T=0.25)
        with pytest.raises(NumericsError, match=re.escape(f"about {math.sqrt(need):.3g} image pairs")):
            path_moments(params, barriers, 100.0, McConfig(100, 52, 0), lambda *s: (s[1],), workers=1)


def reference_scan(params, barriers, s0, paths, steps_per_year, seed, bridge=True):
    """One path at a time, one step at a time, on normals re-derived from the
    documented layout: path p is row p % B of block p // B, and block b
    draws (rows, n) normals from PCG64(SeedSequence((seed, b))). The nodes
    are the documented ones: i*T/u for the u uniform steps, T, and each knot
    inside (0, T) more than 1e-9 of a step from them; a whole step has the
    length T/u, a step cut at a knot its own. Each step whose gaps to a line
    satisfy 2*d0*d1/c < 54*ln 2, c = sigma^2 times its length, takes its
    survival and exit masses from step_exits. bridge=False is naive node
    monitoring, which the engine does not offer: a step ending on or past a
    line moves the whole weight to that side. Returns per-path (x_T,
    weight, mass_l, mass_u)."""
    T = params.T
    u = n_steps_for(steps_per_year, T)
    curves = [curve for curve in (barriers.lower, barriers.upper) if curve is not None]
    cuts = {t for curve in curves for t, _ in curve.knots
            if 0.0 < t < T and abs(t * u / T - round(t * u / T)) > 1e-9}
    nodes = sorted([i * (T / u) for i in range(u)] + [T, *cuts])  # u*(T/u) can round past T
    n = len(nodes) - 1
    has_l, has_u = barriers.lower is not None, barriers.upper is not None
    n_draw = n if curves else 1
    lengths = ([b - a if a in cuts or b in cuts else T / u for a, b in zip(nodes, nodes[1:])]
               if curves else [T])
    mu1 = params.mu - 0.5 * params.sigma**2
    drift = [mu1 * h for h in lengths]
    vol = [params.sigma * math.sqrt(h) for h in lengths]
    c = [params.sigma**2 * h for h in lengths]
    logs = {side: np.array([math.log(curve.value_at(t, T)) for t in nodes])
            for side, curve in (("l", barriers.lower), ("u", barriers.upper)) if curve is not None}
    width = logs["u"] - logs["l"] if has_l and has_u else None
    x0 = math.log(s0)
    out = np.empty((paths, 4))
    B = engine._B
    for p in range(paths):
        b, row = divmod(p, B)
        rows = min(B, paths - b * B)
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, b))))
        z = gen.standard_normal((rows, n_draw))[row]
        cum, w, m_l, m_u = 0.0, 1.0, 0.0, 0.0
        for i in range(n_draw):
            prev, cum = cum, cum + (z[i] * vol[i] + drift[i])
            if not curves:
                continue
            # gaps to each line at the step's two nodes; node 0 has cum 0.0
            gaps = {}
            if has_l:
                gaps["l"] = ((x0 - logs["l"][i]) + prev, (x0 - logs["l"][i + 1]) + cum)
            elif has_u:
                gaps["u"] = ((logs["u"][i] - x0) - prev, (logs["u"][i + 1] - x0) - cum)
            if width is not None:
                gaps["u"] = (width[i] - gaps["l"][0], width[i + 1] - gaps["l"][1])
            near = 0.5 * 54.0 * math.log(2.0) * c[i]
            fired = any((g0 * g1 < near) if bridge else (g1 <= 0.0) for g0, g1 in gaps.values())
            if not fired:
                continue
            if not bridge:
                p_l = float(has_l and gaps["l"][1] <= 0.0)
                p_u = float(has_u and gaps["u"][1] <= 0.0)
                s = 1.0 - p_l - p_u
            elif width is not None:
                s, p_l, p_u = kernel(*gaps["l"], c[i], width[i], width[i + 1])
            else:
                s, p_one, _ = kernel(*gaps["l" if has_l else "u"], c[i])
                p_l, p_u = (p_one, 0.0) if has_l else (0.0, p_one)
            m_l += w * p_l
            m_u += w * p_u
            w *= s
        out[p] = (x0 + cum, w, m_l, m_u)
    return out


def full_row_reference(params, barriers, s0, paths, steps_per_year, seed):
    """Per-path (x_T, weight, mass_l, mass_u), the count of near cells and
    the count of those whose step starts strictly inside every line,
    vectorised over whole rows: step_exits on every cell of each row that
    has a cell near a line, then the weights and masses accumulated along
    the row with every cell that is not near masked out. A near cell that
    starts on or past a line stays in: it must add nothing."""
    n = n_steps_for(steps_per_year, params.T)
    has_l = barriers.lower is not None
    nodes = [i * params.T / n for i in range(n)] + [params.T]
    logs = [np.array([math.log(curve.value_at(t, params.T)) for t in nodes])
            for curve in (barriers.lower, barriers.upper) if curve is not None]
    n_draw, c, x0 = (n if logs else 1), params.sigma**2 * params.T / n, math.log(s0)
    out, near_cells, live_cells = [], 0, 0
    for b in range(-(-paths // engine._B)):
        m = min(engine._B, paths - b * engine._B)
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, b))))
        z = gen.standard_normal((m, n_draw))
        z *= params.sigma * math.sqrt(params.T / n_draw)
        z += (params.mu - 0.5 * params.sigma**2) * (params.T / n_draw)
        np.add.accumulate(z, axis=1, out=z)
        out.append(np.column_stack([x0 + z[:, -1], np.ones(m), np.zeros(m), np.zeros(m)]))
        if not logs:
            continue
        x0_gap = x0 - logs[0] if has_l else logs[0] - x0
        gap = np.column_stack([np.full(m, x0_gap[0]), z + x0_gap[1:] if has_l else x0_gap[1:] - z])
        width = logs[1] - logs[0] if len(logs) == 2 else None
        gaps = [gap] if width is None else [gap, width - gap]
        near = np.logical_or.reduce([g[:, :-1] * g[:, 1:] < 0.5 * closed._CUTOFF * c for g in gaps])
        hit = near.any(axis=1)
        g, on = gap[hit], near[hit]
        corridor = () if width is None else (
            np.broadcast_to(width[:-1], on.shape).ravel(), np.broadcast_to(width[1:], on.shape).ravel(),
            series_terms(float(np.min(width[:-1] * width[1:])), c))
        exits = step_exits(g[:, :-1].ravel(), g[:, 1:].ravel(), c, *corridor)
        s, p_l, p_u = (v.reshape(on.shape) for v in exits)
        w = np.ones((on.shape[0], n + 1))
        np.copyto(w[:, 1:], s, where=on)
        np.multiply.accumulate(w, axis=1, out=w)
        out[-1][hit, 1] = w[:, -1]
        for col, p in zip((2, 3) if has_l else (3, 2), (p_l, p_u)):
            out[-1][hit, col] = np.add.accumulate(np.where(on, w[:, :-1] * p, 0.0), axis=1)[:, -1]
        near_cells += int(on.sum())
        inside = np.logical_and.reduce([g[:, :-1] > 0.0 for g in gaps])[hit]
        live_cells += int((on & inside).sum())
    return np.vstack(out), near_cells, live_cells


def engine_paths(params, barriers, s0, paths, steps_per_year, seed):
    """Per-path (x_T, weight, mass_l, mass_u) as the engine hands them to its
    integrand; one worker scans the blocks and their slices in order."""
    seen = []
    res = path_moments(params, barriers, s0, McConfig(paths, steps_per_year, seed),
                       lambda *state: seen.append(np.column_stack(state)) or (state[1],),
                       workers=1)
    return np.vstack(seen), res


def slice_bytes(rows, barriers, steps):
    sides = (barriers.lower is not None) + (barriers.upper is not None)
    return rows * engine._Buffers.row_bytes(steps if sides else 1, steps, sides)


class TestScalarReference:
    @pytest.mark.parametrize(
        "barriers, steps, sigma, T",
        [
            (BarrierSet(lower=BarrierCurve.flat(90.0)), 100, 0.30, 0.25),
            (BarrierSet(upper=BarrierCurve.flat(110.0)), 100, 0.30, 0.25),
            (NEAR_DKO, 100, 0.30, 0.25),
            (CORRIDOR, 12, 0.40, 0.25),
            (BarrierSet(), 100, 0.30, 0.25),
            # one step: the walk has no step to add after the first
            (NEAR_DKO, 4, 0.30, 0.25),
            # 335 steps, and 335 * (T / 335) rounds one ulp past T
            (BarrierSet(lower=BarrierCurve.exponential(80.0, 0.1)), 365, 0.30, 0.9169050509759932),
            # knots off the uniform nodes: steps of unequal length
            (KNOTTED, 4, 0.30, 0.5),
            (KNOTTED_CORRIDOR, 12, 0.40, 0.25),
        ],
        ids=["single-lower", "single-upper", "flat-double", "corridor", "no-barrier", "one-step-corridor",
             "last-node-at-T", "knotted", "knotted-corridor"],
    )
    def test_matches_scalar_scan(self, barriers, steps, sigma, T, monkeypatch):
        # 1500 paths in blocks of 512, scanned in slices of 200 rows
        p = mk_params(sigma=sigma, T=T)
        monkeypatch.setattr(engine, "_B", 512)
        want = reference_scan(p, barriers, 100.0, 1500, steps, 41)
        n = n_steps_for(steps, T)
        monkeypatch.setattr(engine, "_BLOCK_BYTES", slice_bytes(200, barriers, n))
        got, _ = engine_paths(p, barriers, 100.0, 1500, steps, 41)
        assert np.array_equal(got[:, 0], want[:, 0])  # the walk: additions only
        assert np.allclose(got[:, 1:], want[:, 1:], rtol=0.0, atol=1e-15)
        # every outcome shows up: survivors, knock-outs on each side, and
        # paths partly knocked out
        w, m_l, m_u = want[:, 1], want[:, 2], want[:, 3]
        assert np.any(w > 0.0)
        assert np.any(m_l > 0.0) == (barriers.lower is not None)
        assert np.any(m_u > 0.0) == (barriers.upper is not None)
        if barriers.any_present:
            assert np.any((w > 0.0) & (w < 1.0))


class TestFullRowReference:
    @pytest.mark.parametrize(
        "params, barriers, steps",
        [
            (mk_params(T=0.5), DKO, 200),
            (MarketParams(mu=0.05, sigma=0.4, r=0.05, T=1.0),
             BarrierSet(lower=BarrierCurve.exponential(60.0, 0.05),
                        upper=BarrierCurve.exponential(160.0, -0.05)), 12),
            (mk_params(), BarrierSet(lower=BarrierCurve.flat(90.0)), 200),
            (mk_params(), BarrierSet(upper=BarrierCurve.flat(110.0)), 200),
            # knots on the nodes of 13 steps
            (mk_params(sigma=1.0), BarrierSet(
                lower=BarrierCurve.tabulated(((0.0, 85.0), (1.5 / 13, 87.55), (0.25, 84.15))),
                upper=BarrierCurve.tabulated(((0.0, 118.0), (1.5 / 13, 115.64), (0.25, 119.18)))), 52),
            (mk_params(sigma=0.05), DKO, 200),
            # a tie-heavy corridor: most paths leave within a few of its 13 steps
            (MarketParams(mu=0.05, sigma=2.0, r=0.05, T=0.25),
             BarrierSet(lower=BarrierCurve.flat(80.0), upper=BarrierCurve.flat(125.0)), 52),
            # short rows: one step, where the walk adds nothing after the
            # first, and three tie-heavy steps
            (mk_params(), DKO, 4),
            (mk_params(), BarrierSet(upper=BarrierCurve.flat(110.0)), 4),
            (MarketParams(mu=0.05, sigma=2.0, r=0.05, T=0.25),
             BarrierSet(lower=BarrierCurve.flat(80.0), upper=BarrierCurve.flat(125.0)), 12),
        ],
        ids=["sparse-flat-double", "dense-corridor", "single-lower", "single-upper", "tabulated",
             "no-near-cell", "tie-heavy-corridor", "one-step-corridor", "one-step-upper",
             "three-step-tie-heavy-corridor"],
    )
    def test_near_cells_only_move_no_bit(self, params, barriers, steps, monkeypatch):
        # the series on the live near cells alone, with each path's weight
        # and masses carried over them in step order, gives every bit of the
        # whole-row computation over every near cell; 6000 paths are a block
        # and a part block
        starts_inside = []

        def spy(d0, d1, c, *corridor, **kw):
            inside = np.all(d0 > 0.0) and (not corridor or np.all(corridor[0] - d0 > 0.0))
            starts_inside.append(bool(inside))
            return step_exits(d0, d1, c, *corridor, **kw)

        monkeypatch.setattr(engine, "step_exits", spy)
        got, res = engine_paths(params, barriers, 100.0, 6_000, steps, 19)
        want, near_cells, live_cells = full_row_reference(params, barriers, 100.0, 6_000, steps, 19)
        assert np.array_equal(got, want)
        assert res.near_cells == live_cells
        assert (near_cells == 0) == (params.sigma == 0.05)
        # the engine hands the kernel no step that starts on or past a line
        assert all(starts_inside) and bool(starts_inside) == (live_cells > 0)
        if params.sigma == 2.0:  # there, most near cells follow a knock-out
            assert live_cells < 0.5 * near_cells


class TestWeights:
    def test_weight_and_masses_share_one_unit(self):
        for barriers, steps, sigma in ((DKO, 80, 0.30), (CORRIDOR, 12, 0.40)):
            got, _ = engine_paths(mk_params(sigma=sigma), barriers, 100.0, 5_000, steps, 17)
            # sums of products: a mass may round one ulp past 1
            assert np.all((got[:, 1:] >= 0.0) & (got[:, 1:] <= 1.0 + 4e-16))
            # a mass below 2^-54 per step is skipped, nothing more
            assert np.allclose(got[:, 1:].sum(axis=1), 1.0, rtol=0.0, atol=1e-14)

    def test_one_sided_never_reports_other_side(self):
        p = mk_params()
        lo, _ = engine_paths(p, BarrierSet(lower=BarrierCurve.flat(95.0)), 100.0, 20_000, 50, 2)
        assert np.all(lo[:, 3] == 0.0) and np.any(lo[:, 2] > 0.5)
        up, _ = engine_paths(p, BarrierSet(upper=BarrierCurve.flat(105.0)), 100.0, 20_000, 50, 2)
        assert np.all(up[:, 2] == 0.0) and np.any(up[:, 3] > 0.5)

    def test_bridge_only_lowers_weights(self, monkeypatch):
        # naive monitoring (the reference's node test) never knocks out a
        # path the bridge keeps whole: on the same walks every bridged
        # weight is at most the 0/1 node survival, and some are lower
        p = mk_params()
        monkeypatch.setattr(engine, "_B", 512)
        bridged, _ = engine_paths(p, DKO, 100.0, 3_000, 40, 23)
        naive = reference_scan(p, DKO, 100.0, 3_000, 40, 23, bridge=False)
        assert np.array_equal(bridged[:, 0], naive[:, 0])  # the same walks
        assert set(np.unique(naive[:, 1:])) <= {0.0, 1.0}
        assert np.all(bridged[:, 1] <= naive[:, 1])
        assert np.any(bridged[:, 1] < naive[:, 1])


class TestDeterminism:
    def test_slice_and_worker_invariance(self, monkeypatch):
        for barriers, steps, sigma, T in ((DKO, 80, 0.30, 0.25), (CORRIDOR, 12, 0.40, 0.25),
                                          (BarrierSet(), 80, 0.3, 0.25), (KNOTTED, 4, 0.30, 0.5)):
            p = mk_params(sigma=sigma, T=T)
            kw = dict(cfg=McConfig(paths=15_000, steps_per_year=steps, seed=9),
                      integrand=lambda x, w, m_l, m_u: (w * x, m_l, m_u))
            base = path_moments(p, barriers, 100.0, workers=1, **kw)
            n = n_steps_for(steps, p.T)
            # budgets of 100 rows on one worker, 1000 on two, 4096 on four
            for rows, workers in ((100, 1), (1000, 2), (4096, 4)):
                monkeypatch.setattr(engine, "_BLOCK_BYTES", slice_bytes(rows, barriers, n))
                other = path_moments(p, barriers, 100.0, workers=workers, **kw)
                assert other.count == base.count
                assert np.array_equal(base.mean, other.mean)
                assert np.array_equal(base.m2, other.m2)
                assert (other.near_cells, other.terms) == (base.near_cells, base.terms)
            # the image pairs a step of each corridor keeps, 0 without one
            assert base.terms == (3 if barriers is CORRIDOR else 1 if barriers is DKO else 0)
            assert (base.near_cells > 0) == barriers.any_present

    @pytest.mark.parametrize(
        "barriers, sigma, paths, block, budget_rows, workers",
        [
            # 9 paths in blocks of 2: five blocks for six workers, a row each
            (CORRIDOR, 0.40, 9, 2, 6, 6),
            # a budget of three rows runs three of the six workers
            (CORRIDOR, 0.40, 9, 2, 3, 6),
            # a budget of 300 rows on three workers: slices of 100, each
            # block of 512 cut in six, the last short
            (CORRIDOR, 0.40, 1500, 512, 300, 3),
            (NEAR_DKO, 0.30, 3, 512, 512, 8),
            (CORRIDOR, 0.40, 1500, 512, 512, None),
        ],
        ids=["workers-outnumber-blocks", "budget-below-workers", "slices-cut-blocks", "paths-below-workers",
             "default-workers"],
    )
    def test_block_schedule_matches_scalar_scan(
        self, barriers, sigma, paths, block, budget_rows, workers, monkeypatch
    ):
        # however the blocks are sliced and spread over workers, the moments
        # equal those of the one-at-a-time reference, merged block by block
        p = mk_params(sigma=sigma)
        steps = 12 if barriers is CORRIDOR else 100
        monkeypatch.setattr(engine, "_B", block)
        want = reference_scan(p, barriers, 100.0, paths, steps, 7)
        one, _ = engine_paths(p, barriers, 100.0, paths, steps, 7)
        assert np.allclose(one, want, rtol=0.0, atol=1e-15)
        kw = dict(integrand=lambda x, w, m_l, m_u: (w, m_l))
        whole = path_moments(p, barriers, 100.0, McConfig(paths, steps, 7), workers=1, **kw)
        n = n_steps_for(steps, p.T)
        monkeypatch.setattr(engine, "_BLOCK_BYTES", slice_bytes(budget_rows, barriers, n))
        got = path_moments(p, barriers, 100.0, McConfig(paths, steps, 7), workers=workers, **kw)
        assert np.array_equal(got.mean, whole.mean)
        assert np.array_equal(got.m2, whole.m2)
        y = want[:, 1:3]
        assert got.mean == pytest.approx(y.mean(axis=0), rel=1e-13, abs=1e-16)
        assert got.m2 == pytest.approx(((y - y.mean(axis=0)) ** 2).sum(axis=0), rel=1e-10, abs=1e-14)

    def test_many_workers_share_the_block_list(self, monkeypatch):
        # more workers than CPUs race for 63 tiny blocks under a short
        # switch interval: a block taken twice or skipped shows up
        p = mk_params(sigma=0.40)
        monkeypatch.setattr(engine, "_B", 64)
        kw = dict(cfg=McConfig(paths=4_000, steps_per_year=12, seed=5),
                  integrand=lambda x, w, m_l, m_u: (w, m_l))
        one = path_moments(p, CORRIDOR, 100.0, workers=1, **kw)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            many = path_moments(p, CORRIDOR, 100.0, workers=8, **kw)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(one.mean, many.mean)
        assert np.array_equal(one.m2, many.m2)

    def test_paths_are_a_prefix_stream_by_whole_rows(self, monkeypatch):
        # path i is a pure function of (seed, i): fewer paths reproduce a
        # prefix of the longer run, even inside a block cut short
        p = mk_params()
        monkeypatch.setattr(engine, "_B", 1024)
        big, _ = engine_paths(p, DKO, 100.0, 8_000, 80, 14)
        small, _ = engine_paths(p, DKO, 100.0, 3_000, 80, 14)
        assert np.array_equal(big[:3000], small)

    def test_blocks_draw_from_their_own_streams(self):
        # block 1 of a run is block 1 whatever came before it: the first
        # rows of a (k, n) draw are the rows of any longer draw
        gen = lambda: np.random.Generator(np.random.PCG64(np.random.SeedSequence((3, 1))))
        assert np.array_equal(gen().standard_normal((1024, 50))[:7], gen().standard_normal((7, 50)))


class TestMemory:
    def test_peak_does_not_grow_with_paths(self):
        # every per-path array lives and dies inside its block; one worker,
        # since two workers' per-block results may or may not peak together
        p = mk_params(T=1.0)
        spec = OptionSpec(payoff=Payoff.CALL, strike=100.0, barriers=DKO)
        peaks = {}
        for blocks in (4, 64):
            cfg = McConfig(paths=blocks * engine._B, steps_per_year=12, seed=3)
            tracemalloc.start()
            try:
                mc_price(p, spec, 100.0, cfg, workers=1)
                peaks[blocks] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[64] <= 1.05 * peaks[4]

    @pytest.mark.parametrize("barriers", [
        DKO,
        BarrierSet(lower=BarrierCurve.flat(99.0), upper=BarrierCurve.flat(101.0)),
        BarrierSet(lower=BarrierCurve.flat(99.5)),
    ], ids=["far-double", "every-row-near-double", "every-row-near-lower"])
    def test_peak_is_one_budget_whatever_the_workers(self, barriers, monkeypatch):
        # _BLOCK_BYTES counts the slices of all workers together, with the
        # step kernel's temporaries on the rows that come near a line
        p = mk_params()
        kw = dict(cfg=McConfig(paths=20_000, steps_per_year=400, seed=3),
                  integrand=lambda x, w, m_l, m_u: (w,))
        budget = slice_bytes(2048, barriers, 100)
        monkeypatch.setattr(engine, "_BLOCK_BYTES", budget)
        peaks = {}
        for workers in (1, 4):
            tracemalloc.start()
            try:
                path_moments(p, barriers, 100.0, workers=workers, **kw)
                peaks[workers] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[4] <= 1.05 * peaks[1]
        assert peaks[1] <= 1.05 * budget

    def test_kernel_works_in_the_worker_buffers(self, monkeypatch):
        # a corridor whose cells are mostly near a line and still live, on
        # one worker: the step kernel allocates only its near-cell lists
        # per slice, here within the slack, so the peak is the worker's
        # buffers, eight doubles a path (the slice's outputs and the
        # block's reduction) and NumPy's fixed-size ufunc buffers
        p = mk_params()
        barriers = BarrierSet(lower=BarrierCurve.flat(88.0), upper=BarrierCurve.flat(113.0))
        n = n_steps_for(100, p.T)
        monkeypatch.setattr(engine, "_B", 512)
        monkeypatch.setattr(engine, "_BLOCK_BYTES", slice_bytes(512, barriers, n))
        held = sum(a.nbytes for a in vars(engine._Buffers(512, n, n, 2)).values())
        kw = dict(integrand=lambda x, w, m_l, m_u: (w, m_l), workers=1)
        # first-call allocations of the interpreter
        path_moments(p, barriers, 100.0, McConfig(10, 100, 3), **kw)
        tracemalloc.start()
        try:
            res = path_moments(p, barriers, 100.0, McConfig(2048, 100, 3), **kw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= held + 8 * 8 * 512 + 2**18
        assert res.near_cells > 0.7 * 2048 * n

    def test_near_cell_lists_stay_within_two_indices_a_cell(self):
        # the shape of breach_ties' pooled op, whose cells are ~90% listed:
        # over the buffers a slice allocates eight doubles a path and its
        # lists, the live near cells and the near-both cells, 8 bytes each
        p = MarketParams(mu=0.05, sigma=0.4, r=0.05, T=1.0)
        barriers = BarrierSet(lower=BarrierCurve.exponential(60.0, 0.05),
                              upper=BarrierCurve.exponential(160.0, -0.05))
        n, rows = n_steps_for(12, p.T), engine._B
        held = sum(a.nbytes for a in vars(engine._Buffers(rows, n, n, 2)).values())
        kw = dict(integrand=lambda x, w, m_l, m_u: (w, m_l), workers=1)
        # first-call allocations of the interpreter
        path_moments(p, barriers, 100.0, McConfig(10, 12, 3), **kw)
        tracemalloc.start()
        try:
            res = path_moments(p, barriers, 100.0, McConfig(2 * rows, 12, 3), **kw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= held + 8 * 8 * rows + 16 * rows * n + 2**18
        assert res.near_cells > 0.85 * 2 * rows * n


class TestTerminalLaw:
    def test_moments_without_barriers(self):
        p = mk_params()
        res = path_moments(p, BarrierSet(), 100.0, McConfig(200_000, 8, 31), lambda x, w, m_l, m_u: (x,))
        m1 = (0.10 - 0.5 * 0.09) * 0.25
        want_sd = 0.30 * math.sqrt(0.25)
        assert res.mean[0] == pytest.approx(math.log(100.0) + m1, abs=4.0 * want_sd / math.sqrt(200_000))
        assert math.sqrt(res.m2[0] / res.count) == pytest.approx(want_sd, rel=0.01)

    def test_steps_cover_horizon(self):
        p = mk_params(T=0.25)
        res = path_moments(p, DKO, 100.0, McConfig(10, 200, 0), lambda x, w, m_l, m_u: (w,))
        assert res.n_steps == 50


class TestBudget:
    @pytest.mark.parametrize("barriers", [BarrierSet(), BarrierSet(upper=BarrierCurve.flat(130.0)), DKO],
                             ids=["none", "one-side", "two-sides"])
    def test_row_bytes_counts_every_slice_buffer(self, barriers):
        sides = (barriers.lower is not None) + (barriers.upper is not None)
        n_draw = 37 if sides else 1
        buf = engine._Buffers(5, n_draw, 37, sides)
        held = sum(a.nbytes for a in vars(buf).values())
        assert held == 5 * engine._Buffers.row_bytes(n_draw, 37, sides)

    def test_slice_budget_cuts_blocks_without_changing_a_bit(self, monkeypatch):
        # a budget of 10.5 paths shared by two workers cuts each 4096-path
        # block into slices of 5, so a worker's buffers shrink from 13.9 MB
        # to 17 kB
        p = mk_params(sigma=0.40)
        kw = dict(cfg=McConfig(paths=6_000, steps_per_year=320, seed=11), workers=2,
                  integrand=lambda x, w, m_l, m_u: (w, m_l, m_u))
        monkeypatch.setattr(engine, "_BLOCK_BYTES", 2**30)
        whole = path_moments(p, CORRIDOR, 100.0, **kw)
        monkeypatch.setattr(engine, "_BLOCK_BYTES", slice_bytes(10, CORRIDOR, 80) + 100)
        tracemalloc.start()
        try:
            cut = path_moments(p, CORRIDOR, 100.0, **kw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert np.array_equal(whole.mean, cut.mean)
        assert np.array_equal(whole.m2, cut.m2)

    def test_path_over_block_byte_budget_rejected(self, monkeypatch):
        # one path of 80 double-barrier steps needs more than 3000 bytes;
        # the check runs before any buffer is allocated
        monkeypatch.setattr(engine, "_BLOCK_BYTES", 3000)
        with pytest.raises(DomainError, match="block budget"):
            path_moments(mk_params(), DKO, 100.0, McConfig(10, 320, 0), lambda x, w, m_l, m_u: (w,))

    def test_crossing_barriers_rejected(self):
        # the corridor series needs a positive width at every node
        crossing = BarrierSet(lower=BarrierCurve.exponential(70.0, 0.4),
                              upper=BarrierCurve.exponential(130.0, -0.3))
        with pytest.raises(BarrierOrderError):
            path_moments(mk_params(T=1.0), crossing, 100.0, McConfig(10, 12, 0),
                         lambda x, w, m_l, m_u: (w,))

    def test_paths_positive(self):
        # the engine reads a McConfig, which refuses the run before it starts
        with pytest.raises(DomainError, match="paths must be >= 1"):
            path_moments(mk_params(), DKO, 100.0, McConfig(0, 10, 0), lambda x, w, m_l, m_u: (w,))

    @pytest.mark.parametrize("barriers, s0", [
        (BarrierSet(lower=BarrierCurve.flat(90.0)), 90.0),
        (BarrierSet(lower=BarrierCurve.flat(90.0)), 80.0),
        (BarrierSet(upper=BarrierCurve.flat(110.0)), 110.0),
        (BarrierSet(upper=BarrierCurve.flat(110.0)), 120.0),
        (CORRIDOR, 88.0),
        (CORRIDOR, 112.0),
        (DKO, 60.0),
        (DKO, 140.0),
    ], ids=["on-lower", "past-lower", "on-upper", "past-upper", "corridor-on-lower",
            "corridor-on-upper", "corridor-past-lower", "corridor-past-upper"])
    def test_s0_on_or_past_a_line_rejected(self, barriers, s0):
        # the scan lists a step only while it starts inside the lines, so
        # node 0 must be inside: the callers resolve inception first
        with pytest.raises(DomainError, match="on or past a barrier at t=0"):
            path_moments(mk_params(), barriers, s0, McConfig(10, 12, 0), lambda x, w, m_l, m_u: (w,))

    @pytest.mark.parametrize("workers", [0, -1], ids=["workers-0", "workers-negative"])
    def test_workers_positive(self, workers):
        with pytest.raises(DomainError):
            path_moments(mk_params(), DKO, 100.0, McConfig(10, 10, 0), lambda x, w, m_l, m_u: (w,),
                         workers=workers)


class TestKnotNodes:
    # the knotted set's breach chance, from the backward equation on a
    # 1600 x 1600 grid (0.48522; second order, 2.5e-5 below the quadrature)
    @pytest.fixture(scope="class")
    def pde(self):
        p = mk_params(T=0.5)
        return breach_prob_pde(p, KNOTTED, 100.0, 0.5, default_grid(p, KNOTTED, 100.0, 0.5, 1600, 1600))

    @pytest.mark.parametrize("steps", [1, 4, 10, 365])
    def test_knotted_set_matches_the_pde(self, pde, steps):
        # a node on the knot at 0.1 makes the bridge exact whatever the
        # uniform grid; without it 1 and 4 steps a year read 0.074 and 0.228
        est = breach_prob_mc(mk_params(T=0.5), KNOTTED, 100.0, McConfig(200_000, steps, 0))
        assert abs(est.p_lower - pde) <= 4.0 * est.se_lower + 1e-4
        assert est.p_upper == 0.0

    @pytest.mark.parametrize("params, barriers, steps, cut", [
        # on the grid: every node is a uniform one
        (mk_params(T=0.5), KNOTTED, 10, 0),
        # 1.5/13 and the benchmark's (n//2)*T/n sit on their grids up to
        # rounding: 19*1.5/39 is 18.999999999999996 steps of 1.5/39
        (mk_params(), BarrierSet(
            lower=BarrierCurve.tabulated(((0.0, 85.0), (1.5 / 13, 87.55), (0.25, 84.15))),
            upper=BarrierCurve.tabulated(((0.0, 118.0), (1.5 / 13, 115.64), (0.25, 119.18)))), 52, 0),
        (mk_params(T=1.5), BarrierSet(lower=BarrierCurve.tabulated(
            ((0.0, 85.0), (19 * 1.5 / 39, 87.0), (1.5, 84.0)))), 26, 0),
        (mk_params(), BarrierSet(lower=BarrierCurve.flat(70.0)), 3, 0),
        (mk_params(), BarrierSet(upper=BarrierCurve.exponential(130.0, 0.3)), 3, 0),
        (mk_params(), DKO, 200, 0),
        (mk_params(), CORRIDOR, 12, 0),
        (mk_params(), BarrierSet(), 200, 0),
        # off the grid: a node for each knot, one for a time both curves share
        (mk_params(T=0.5), KNOTTED, 4, 1),
        (mk_params(T=0.5), KNOTTED, 365, 1),
        (mk_params(), KNOTTED_CORRIDOR, 12, 2),
        (mk_params(), BarrierSet(lower=BarrierCurve.tabulated(((0.0, 85.0), (0.1, 90.0), (0.25, 84.0))),
                                 upper=BarrierCurve.tabulated(((0.0, 118.0), (0.1, 110.0), (0.25, 119.0)))),
         12, 1),
    ], ids=["knot-on-a-node", "thirteenths", "benchmark-midpoint", "flat", "exponential",
            "flat-corridor", "exponential-corridor", "vanilla", "knot-off-4", "knot-off-365",
            "two-knots-off", "shared-knot-off"])
    def test_a_node_for_each_knot_off_the_grid(self, params, barriers, steps, cut):
        res = engine_paths(params, barriers, 100.0, 1000, steps, 0)[1]
        assert res.n_steps == n_steps_for(steps, params.T) + cut


class TestStepAccounting:
    def test_n_steps(self):
        assert n_steps_for(200, 0.25) == 50
        assert n_steps_for(365, 1.0 / 365.0) == 1
        assert n_steps_for(4, 0.25) == 1
        assert n_steps_for(3, 0.5) == 2
        assert n_steps_for(1, 0.01) == 1  # never below one step
