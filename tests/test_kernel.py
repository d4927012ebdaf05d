"""Path engine: scan against a scalar reference, determinism, memory, and step accounting."""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtri

from barrierkit.model import BarrierCurve, BarrierSet, DomainError, MarketParams
from barrierkit.pricing import engine
from barrierkit.pricing.engine import (
    RESERVE_WORDS,
    STATUS_ALIVE,
    STATUS_LOWER,
    STATUS_UPPER,
    _resolve_tie,
    n_steps_for,
    simulate_paths,
    words_per_path,
)


def mk_params(sigma=0.30, T=0.25, r=0.10):
    return MarketParams(mu=r, sigma=sigma, r=r, T=T)


DKO = BarrierSet(lower=BarrierCurve.flat(70.0), upper=BarrierCurve.flat(130.0))


def reference_scan(params, barriers, s0, paths, steps_per_year, seed, bridge=True):
    """One path at a time, one step at a time, on draws re-derived from the
    documented layout: path p reads words [p*wpp, (p+1)*wpp) of the Philox
    stream keyed by the seed, as n normals, n bridge uniforms per side and
    the tie reserve. Returns (status, x_final, number of ties)."""
    n = n_steps_for(steps_per_year, params.T)
    has_l, has_u = barriers.lower is not None, barriers.upper is not None
    wpp = words_per_path(n, has_l, has_u)
    dt = params.T / n
    drift = (params.mu - 0.5 * params.sigma**2) * dt
    vol = params.sigma * math.sqrt(dt)
    h = 0.5 * params.sigma**2 * dt
    sides = [c for c in (barriers.lower, barriers.upper) if c is not None]
    nodes = [i * dt for i in range(n)] + [params.T]  # n*dt can round past T
    logs = [np.array([math.log(c.value_at(t, params.T)) for t in nodes]) for c in sides]
    bl = logs[0] if has_l else None
    bu = logs[-1] if has_u else None
    status = np.zeros(paths, dtype=np.uint8)
    x_final = np.empty(paths)
    ties = 0
    for p in range(paths):
        u = np.random.Generator(np.random.Philox(key=seed, counter=p * wpp // 4)).random(wpp)
        z = ndtri(np.minimum(u[:n] + 2.0**-54, 1.0 - 2.0**-53))
        ws = [-h * np.log(u[k * n : (k + 1) * n] + 2.0**-54) if bridge else np.zeros(n)
              for k in range(1, 1 + len(sides))]
        wl = ws[0] if has_l else None
        wu = ws[-1] if has_u else None
        x, st = math.log(s0), STATUS_ALIVE
        for i in range(n):
            x1 = x + (drift + vol * z[i])
            hl = has_l and (x1 - bl[i + 1] <= 0.0 or (x - bl[i]) * (x1 - bl[i + 1]) < wl[i])
            hu = has_u and (bu[i + 1] - x1 <= 0.0 or (bu[i] - x) * (bu[i + 1] - x1) < wu[i])
            if hl and hu:
                reserve = u[n * (1 + len(sides)) :][:RESERVE_WORDS]
                st = _resolve_tie(reserve, x, x1, params.sigma, dt, bl, bu, i)
                ties += 1
            elif hl or hu:
                st = STATUS_LOWER if hl else STATUS_UPPER
            if hl or hu:
                break
            x = x1
        status[p], x_final[p] = st, x
    return status, x_final, ties


class TestStepAccounting:
    def test_n_steps(self):
        assert n_steps_for(200, 0.25) == 50
        assert n_steps_for(365, 1.0 / 365.0) == 1
        assert n_steps_for(4, 0.25) == 1
        assert n_steps_for(3, 0.5) == 2
        assert n_steps_for(1, 0.01) == 1  # never below one step

    def test_words_per_path_multiple_of_four(self):
        for n in (1, 7, 50, 365):
            for hl in (False, True):
                for hu in (False, True):
                    w = words_per_path(n, hl, hu)
                    assert w % 4 == 0
                    assert w >= n * (1 + hl + hu) + 8


NEAR_DKO = BarrierSet(lower=BarrierCurve.flat(85.0), upper=BarrierCurve.flat(115.0))
# three steps in a narrowing corridor: many steps fire on both sides
CORRIDOR = BarrierSet(
    lower=BarrierCurve.exponential(88.0, 0.2), upper=BarrierCurve.exponential(112.0, -0.2)
)


class TestScalarReference:
    @pytest.mark.parametrize(
        "barriers, steps, sigma, bridge, T",
        [
            (BarrierSet(lower=BarrierCurve.flat(90.0)), 100, 0.30, True, 0.25),
            (BarrierSet(upper=BarrierCurve.flat(110.0)), 100, 0.30, True, 0.25),
            (NEAR_DKO, 100, 0.30, True, 0.25),
            (CORRIDOR, 12, 0.40, True, 0.25),
            (NEAR_DKO, 100, 0.30, False, 0.25),
            # 335 steps, and 335 * (T / 335) rounds one ulp past T
            (BarrierSet(lower=BarrierCurve.exponential(80.0, 0.1)), 365, 0.30, True,
             0.9169050509759932),
        ],
        ids=["single-lower", "single-upper", "flat-double", "tie-corridor", "bridge-off",
             "last-node-at-T"],
    )
    def test_bit_identical_to_scalar_scan(self, barriers, steps, sigma, bridge, T, monkeypatch):
        p = mk_params(sigma=sigma, T=T)
        want_status, want_x, ties = reference_scan(p, barriers, 100.0, 1500, steps, 41, bridge)
        monkeypatch.setattr(engine, "_PATHS_IN_FLIGHT", 512)
        got = simulate_paths(
            p, barriers, 100.0, paths=1500, steps_per_year=steps, seed=41, bridge=bridge
        )
        assert np.array_equal(got.status, want_status)
        assert np.array_equal(got.x_final, want_x)
        # every outcome the scan can produce shows up
        assert STATUS_ALIVE in want_status
        if barriers.lower is not None:
            assert STATUS_LOWER in want_status
        if barriers.upper is not None:
            assert STATUS_UPPER in want_status
        if barriers is CORRIDOR:
            assert ties > 0


class TestDeterminism:
    def test_block_and_worker_invariance(self, monkeypatch):
        # the corridor makes many ties, whose reserve words are read from
        # the block's word matrix: they must not depend on the blocking
        for barriers, steps, sigma in ((DKO, 80, 0.30), (CORRIDOR, 12, 0.40)):
            p = mk_params(sigma=sigma)
            kw = dict(paths=15_000, steps_per_year=steps, seed=9)
            monkeypatch.setattr(engine, "_PATHS_IN_FLIGHT", 15_000)
            base = simulate_paths(p, barriers, 100.0, workers=1, **kw)
            for in_flight, workers in ((512, 1), (4096, 2), (1000, 4)):
                monkeypatch.setattr(engine, "_PATHS_IN_FLIGHT", in_flight)
                other = simulate_paths(p, barriers, 100.0, workers=workers, **kw)
                assert np.array_equal(base.status, other.status)
                assert np.array_equal(base.x_final, other.x_final)

    @pytest.mark.parametrize(
        "barriers, sigma, bridge, paths, in_flight, workers",
        [
            # 9 paths in blocks of 2: five blocks for six workers
            (CORRIDOR, 0.40, True, 9, 100, 6),
            # blocks of 334: each worker scans twice, the last block is short
            (CORRIDOR, 0.40, True, 1500, 1000, 3),
            (NEAR_DKO, 0.30, True, 3, 512, 8),
            (NEAR_DKO, 0.30, False, 1500, 700, 2),
            (CORRIDOR, 0.40, True, 1500, 512, None),
        ],
        ids=["workers-outnumber-blocks", "in-flight-not-multiple-of-workers", "paths-below-workers",
             "bridge-off", "default-workers"],
    )
    def test_block_schedule_matches_scalar_scan(
        self, barriers, sigma, bridge, paths, in_flight, workers, monkeypatch
    ):
        # however the paths are cut into blocks and spread over workers,
        # every path equals its one-at-a-time reference and its
        # single-worker, single-block run
        p = mk_params(sigma=sigma)
        steps = 12 if barriers is CORRIDOR else 100
        kw = dict(paths=paths, steps_per_year=steps, seed=7, bridge=bridge)
        want_status, want_x, _ = reference_scan(p, barriers, 100.0, paths, steps, 7, bridge)
        one = simulate_paths(p, barriers, 100.0, workers=1, **kw)  # one block
        monkeypatch.setattr(engine, "_PATHS_IN_FLIGHT", in_flight)
        got = simulate_paths(p, barriers, 100.0, workers=workers, **kw)
        for res in (one, got):
            assert np.array_equal(res.status, want_status)
            assert np.array_equal(res.x_final, want_x)

    def test_many_workers_share_the_block_list(self, monkeypatch):
        # more workers than CPUs race for 500 tiny blocks under a short
        # switch interval: a block taken twice or skipped shows up
        p = mk_params(sigma=0.40)
        kw = dict(paths=4_000, steps_per_year=12, seed=5)
        one = simulate_paths(p, CORRIDOR, 100.0, workers=1, **kw)
        monkeypatch.setattr(engine, "_PATHS_IN_FLIGHT", 64)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            many = simulate_paths(p, CORRIDOR, 100.0, workers=8, **kw)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(one.status, many.status)
        assert np.array_equal(one.x_final, many.x_final)

    def test_paths_are_a_prefix_stream(self, monkeypatch):
        # path i is a pure function of (seed, i): asking for fewer paths
        # must reproduce a prefix of the longer run
        p = mk_params()
        monkeypatch.setattr(engine, "_PATHS_IN_FLIGHT", 1024)
        big = simulate_paths(p, DKO, 100.0, paths=8_000, steps_per_year=80, seed=14)
        small = simulate_paths(p, DKO, 100.0, paths=3_000, steps_per_year=80, seed=14)
        assert np.array_equal(big.status[:3000], small.status)
        assert np.array_equal(big.x_final[:3000], small.x_final)


class TestMemory:
    def test_peak_is_one_block_budget_whatever_the_workers(self, monkeypatch):
        # _PATHS_IN_FLIGHT counts the paths in flight across all workers,
        # so four workers share one budget's worth of block buffers
        p = mk_params()
        kw = dict(paths=20_000, steps_per_year=400, seed=3)
        monkeypatch.setattr(engine, "_PATHS_IN_FLIGHT", 8192)
        peaks = {}
        for workers in (1, 4):
            tracemalloc.start()
            try:
                simulate_paths(p, DKO, 100.0, workers=workers, **kw)
                peaks[workers] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[4] <= 1.05 * peaks[1]
        # the buffers of 8192 paths and 9 bytes of results per path, with
        # 5% for the per-block index arrays
        row = engine._BlockBuffers.row_bytes(words_per_path(100, True, True), 100, True, True)
        assert peaks[1] <= 1.05 * (8192 * row + 9 * 20_000)


class TestStatuses:
    def test_ties_resolved_and_codes_legal(self):
        p = mk_params()
        res = simulate_paths(p, DKO, 100.0, paths=50_000, steps_per_year=12, seed=17)
        assert res.status.dtype == np.uint8
        legal = {STATUS_ALIVE, STATUS_LOWER, STATUS_UPPER}
        assert set(np.unique(res.status)).issubset(legal)  # no unresolved tie (code 3)

    def test_no_barriers_all_alive(self):
        p = mk_params()
        res = simulate_paths(p, BarrierSet(), 100.0, paths=5_000, steps_per_year=20, seed=1)
        assert np.all(res.status == STATUS_ALIVE)

    def test_one_sided_never_reports_other_side(self):
        p = mk_params()
        lo = simulate_paths(
            p, BarrierSet(lower=BarrierCurve.flat(95.0)), 100.0,
            paths=20_000, steps_per_year=50, seed=2,
        )
        assert STATUS_UPPER not in lo.status
        assert STATUS_LOWER in lo.status  # close barrier, plenty of hits
        up = simulate_paths(
            p, BarrierSet(upper=BarrierCurve.flat(105.0)), 100.0,
            paths=20_000, steps_per_year=50, seed=2,
        )
        assert STATUS_LOWER not in up.status
        assert STATUS_UPPER in up.status

    def test_bridge_only_adds_knockouts(self):
        p = mk_params()
        kw = dict(paths=30_000, steps_per_year=40, seed=23)
        bridged = simulate_paths(p, DKO, 100.0, bridge=True, **kw)
        naive = simulate_paths(p, DKO, 100.0, bridge=False, **kw)
        alive_b = bridged.status == STATUS_ALIVE
        alive_n = naive.status == STATUS_ALIVE
        assert np.all(alive_n | ~alive_b)  # bridged alive implies naive alive
        assert int(alive_b.sum()) < int(alive_n.sum())
        # agreement on the naive knockouts: both engines saw the same walk
        assert np.array_equal(bridged.x_final[alive_b], naive.x_final[alive_b])


class TestTerminalLaw:
    def test_moments_without_barriers(self):
        p = mk_params()
        res = simulate_paths(p, BarrierSet(), 100.0, paths=200_000, steps_per_year=8, seed=31)
        m1 = (0.10 - 0.5 * 0.09) * 0.25
        want_mean = math.log(100.0) + m1
        want_sd = 0.30 * math.sqrt(0.25)
        got_mean = float(res.x_final.mean())
        got_sd = float(res.x_final.std())
        assert got_mean == pytest.approx(want_mean, abs=4.0 * want_sd / math.sqrt(200_000))
        assert got_sd == pytest.approx(want_sd, rel=0.01)

    def test_dt_covers_horizon(self):
        p = mk_params(T=0.25)
        res = simulate_paths(p, BarrierSet(), 100.0, paths=10, steps_per_year=200, seed=0)
        assert res.n_steps == 50
        assert res.n_steps * res.dt == pytest.approx(0.25, rel=1e-15)


class TestBudget:
    def test_word_budget_guard(self):
        p = mk_params()
        with pytest.raises(DomainError):
            simulate_paths(p, DKO, 100.0, paths=2**44, steps_per_year=365, seed=0)

    @pytest.mark.parametrize("barriers", [BarrierSet(), BarrierSet(upper=BarrierCurve.flat(130.0)), DKO],
                             ids=["none", "one-side", "two-sides"])
    def test_row_bytes_counts_every_block_buffer(self, barriers):
        has_l, has_u = barriers.lower is not None, barriers.upper is not None
        wpp = words_per_path(37, has_l, has_u)
        buf = engine._BlockBuffers(5, wpp, 37, has_l, has_u)
        held = sum(a.nbytes for a in vars(buf).values() if a is not None)
        assert held == 5 * engine._BlockBuffers.row_bytes(wpp, 37, has_l, has_u)

    def test_block_byte_budget_cuts_blocks_without_changing_a_bit(self, monkeypatch):
        # a budget of 10.5 paths cuts 3,000 paths on two workers into
        # blocks of 10 instead of 1,500, so the buffers shrink from 12 MB to 83 kB
        p = mk_params(sigma=0.40)
        kw = dict(paths=3_000, steps_per_year=320, seed=11, workers=2)
        whole = simulate_paths(p, CORRIDOR, 100.0, **kw)
        row = engine._BlockBuffers.row_bytes(words_per_path(80, True, True), 80, True, True)
        monkeypatch.setattr(engine, "_BLOCK_BYTES", 10 * row + row // 2)
        tracemalloc.start()
        try:
            cut = simulate_paths(p, CORRIDOR, 100.0, **kw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert np.array_equal(whole.status, cut.status)
        assert np.array_equal(whole.x_final, cut.x_final)

    def test_path_over_block_byte_budget_rejected(self, monkeypatch):
        # one path of 80 double-barrier steps needs more than 4000 bytes;
        # the check runs before any buffer is allocated
        monkeypatch.setattr(engine, "_BLOCK_BYTES", 4000)
        with pytest.raises(DomainError, match="block budget"):
            simulate_paths(mk_params(), DKO, 100.0, paths=10, steps_per_year=320, seed=0)

    def test_paths_positive(self):
        p = mk_params()
        with pytest.raises(DomainError):
            simulate_paths(p, DKO, 100.0, paths=0, steps_per_year=10, seed=0)

    @pytest.mark.parametrize("workers", [0, -1], ids=["workers-0", "workers-negative"])
    def test_workers_positive(self, workers):
        p = mk_params()
        with pytest.raises(DomainError):
            simulate_paths(p, DKO, 100.0, paths=10, steps_per_year=10, seed=0, workers=workers)
