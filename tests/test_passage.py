"""First-breach probabilities: reflection form, bridged MC, and the PDE."""

import math

import pytest

from barrierkit.model import BarrierCurve, BarrierSet, DomainError, MarketParams, NumericsError
from barrierkit.passage import (
    BreachEstimate,
    PdeGrid,
    breach_prob_mc,
    breach_prob_pde,
    default_grid,
)
from barrierkit.pricing.closed import breach_prob_closed_flat
from barrierkit.pricing.mc import McConfig


def mk_params(sigma=0.30, T=0.25, r=0.10):
    return MarketParams(mu=r, sigma=sigma, r=r, T=T)


DKO = BarrierSet(lower=BarrierCurve.flat(70.0), upper=BarrierCurve.flat(130.0))


class TestClosedFlat:
    def test_reference_values(self):
        # frozen from a 40-digit evaluation of the reflection formula
        p = mk_params()
        assert breach_prob_closed_flat(p, "lower", 70.0, 100.0, 0.25) == pytest.approx(
            0.0139574222952663369, rel=1e-13
        )
        assert breach_prob_closed_flat(p, "upper", 130.0, 100.0, 0.25) == pytest.approx(
            0.0939553073710373159, rel=1e-13
        )

    def test_tiny_but_positive_at_critical_price(self):
        # started on the degeneracy threshold the breach chance is around
        # one in a million, not zero: degenerate pricing is approximate
        p = mk_params(sigma=0.15)
        prob = breach_prob_closed_flat(p, "lower", 70.0, 98.870186482869048, 0.25)
        assert prob == pytest.approx(1.0187340708570643e-6, rel=1e-12)
        assert prob > 0.0

    def test_edges(self):
        p = mk_params()
        assert breach_prob_closed_flat(p, "lower", 70.0, 70.0, 0.25) == 1.0
        assert breach_prob_closed_flat(p, "upper", 130.0, 130.0, 0.25) == 1.0
        assert breach_prob_closed_flat(p, "lower", 70.0, 100.0, 0.0) == 0.0

    def test_monotone_in_horizon_and_distance(self):
        p = mk_params()
        probs = [breach_prob_closed_flat(p, "lower", 70.0, 100.0, t) for t in (0.1, 0.2, 0.25)]
        assert all(b > a for a, b in zip(probs, probs[1:]))
        probs = [breach_prob_closed_flat(p, "lower", b, 100.0, 0.25) for b in (60.0, 70.0, 80.0)]
        assert all(b > a for a, b in zip(probs, probs[1:]))

    def test_bounded_below_by_terminal_probability(self):
        # breaching by T includes every path that also ends beyond the
        # barrier, so the first-passage mass dominates the terminal mass
        from barrierkit.critical import prob_above_lower

        p = mk_params()
        lo = BarrierCurve.flat(70.0)
        terminal_below = 1.0 - prob_above_lower(p, lo, 100.0, 0.25)
        assert breach_prob_closed_flat(p, "lower", 70.0, 100.0, 0.25) >= terminal_below

    def test_domain(self):
        p = mk_params()
        with pytest.raises(DomainError):
            breach_prob_closed_flat(p, "sideways", 70.0, 100.0, 0.25)
        with pytest.raises(DomainError):
            breach_prob_closed_flat(p, "lower", 70.0, 60.0, 0.25)  # wrong side
        with pytest.raises(DomainError):
            breach_prob_closed_flat(p, "upper", 130.0, 140.0, 0.25)
        with pytest.raises(DomainError):
            breach_prob_closed_flat(p, "lower", -70.0, 100.0, 0.25)
        for T in (-1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                breach_prob_closed_flat(p, "lower", 70.0, 100.0, T)


class TestMc:
    def test_double_barrier_sides_against_closed(self):
        # single-sided reflection values bound each side from above; the
        # totals still agree closely because double-counting is rare here
        p = mk_params()
        est = breach_prob_mc(p, DKO, 100.0, McConfig(paths=100_000, steps_per_year=200, seed=19))
        lo = breach_prob_closed_flat(p, "lower", 70.0, 100.0, 0.25)
        up = breach_prob_closed_flat(p, "upper", 130.0, 100.0, 0.25)
        assert est.p_lower <= lo + 3.0 * est.se_lower
        assert est.p_upper <= up + 3.0 * est.se_upper
        assert abs(est.p_lower - lo) <= 4.0 * est.se_lower + 1e-4
        assert abs(est.p_upper - up) <= 4.0 * est.se_upper + 1e-4

    def test_single_barrier_matches_closed(self):
        p = mk_params()
        bs = BarrierSet(lower=BarrierCurve.flat(85.0))
        est = breach_prob_mc(p, bs, 100.0, McConfig(paths=100_000, steps_per_year=200, seed=29))
        ref = breach_prob_closed_flat(p, "lower", 85.0, 100.0, 0.25)
        assert abs(est.p_lower - ref) <= 3.0 * est.se_lower
        assert est.p_upper == 0.0
        assert est.se_upper == 0.0

    def test_exclusive_events(self):
        p = mk_params()
        est = breach_prob_mc(p, DKO, 100.0, McConfig(paths=20_000, steps_per_year=100, seed=3))
        assert isinstance(est, BreachEstimate)
        assert 0.0 <= est.p_total <= 1.0

    def test_domain(self):
        p = mk_params()
        with pytest.raises(DomainError):
            breach_prob_mc(p, BarrierSet(), 100.0, McConfig(paths=100, steps_per_year=10))
        with pytest.raises(DomainError):
            breach_prob_mc(p, DKO, 70.0, McConfig(paths=100, steps_per_year=10))
        with pytest.raises(DomainError):
            breach_prob_mc(p, DKO, 131.0, McConfig(paths=100, steps_per_year=10))


class TestPde:
    def test_single_lower_matches_closed(self):
        p = mk_params()
        bs = BarrierSet(lower=BarrierCurve.flat(70.0))
        grid = default_grid(p, bs, 100.0, 0.25)
        got = breach_prob_pde(p, bs, 100.0, 0.25, grid)
        ref = breach_prob_closed_flat(p, "lower", 70.0, 100.0, 0.25)
        assert got == pytest.approx(ref, abs=2e-4)

    def test_single_upper_matches_closed(self):
        p = mk_params()
        bs = BarrierSet(upper=BarrierCurve.flat(130.0))
        grid = default_grid(p, bs, 100.0, 0.25)
        got = breach_prob_pde(p, bs, 100.0, 0.25, grid)
        ref = breach_prob_closed_flat(p, "upper", 130.0, 100.0, 0.25)
        assert got == pytest.approx(ref, abs=2e-4)

    def test_double_between_bounds(self):
        p = mk_params()
        grid = default_grid(p, DKO, 100.0, 0.25)
        got = breach_prob_pde(p, DKO, 100.0, 0.25, grid)
        lo = breach_prob_closed_flat(p, "lower", 70.0, 100.0, 0.25)
        up = breach_prob_closed_flat(p, "upper", 130.0, 100.0, 0.25)
        assert max(lo, up) - 2e-4 <= got <= lo + up + 2e-4

    def test_refinement_improves_single_barrier(self):
        p = mk_params()
        bs = BarrierSet(lower=BarrierCurve.flat(70.0))
        ref = breach_prob_closed_flat(p, "lower", 70.0, 100.0, 0.25)
        errs = []
        for n in (100, 200, 400):
            grid = default_grid(p, bs, 100.0, 0.25, n_space=n, n_time=n)
            errs.append(abs(breach_prob_pde(p, bs, 100.0, 0.25, grid) - ref))
        assert errs[2] < errs[0]

    def test_curved_barrier_accepted(self):
        p = mk_params()
        bs = BarrierSet(lower=BarrierCurve.exponential(70.0, 0.1))
        grid = default_grid(p, bs, 100.0, 0.25)
        got = breach_prob_pde(p, bs, 100.0, 0.25, grid)
        # rising barrier is easier to hit than its starting level
        flat_ref = breach_prob_closed_flat(p, "lower", 70.0, 100.0, 0.25)
        assert got > flat_ref
        assert got < 1.0

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            PdeGrid(s_min=0.0, s_max=100.0)
        with pytest.raises(DomainError):
            PdeGrid(s_min=100.0, s_max=50.0)
        with pytest.raises(DomainError):
            PdeGrid(s_min=10.0, s_max=100.0, n_space=8)
        with pytest.raises(DomainError):
            PdeGrid(s_min=10.0, s_max=100.0, n_time=4)

    def test_too_few_nodes_between_barriers(self):
        p = mk_params()
        # minimum legal grid leaves 14 interior nodes, one short of usable
        grid = PdeGrid(s_min=50.0, s_max=200.0, n_space=16, n_time=16)
        with pytest.raises(NumericsError, match="grid too coarse"):
            breach_prob_pde(p, DKO, 100.0, 0.25, grid)
        # a barrier sweeping through most of the corridor pinches the live
        # band near expiry even on the default grid
        sweep = BarrierSet(
            lower=BarrierCurve.exponential(70.0, 3.0), upper=BarrierCurve.flat(150.0)
        )
        with pytest.raises(NumericsError, match="grid too coarse"):
            breach_prob_pde(p, sweep, 100.0, 0.25, default_grid(p, sweep, 100.0, 0.25))

    def test_domain(self):
        p = mk_params()
        grid = PdeGrid(s_min=50.0, s_max=200.0)
        with pytest.raises(DomainError):
            breach_prob_pde(p, BarrierSet(), 100.0, 0.25, grid)
        with pytest.raises(DomainError):
            breach_prob_pde(p, DKO, 100.0, 0.0, grid)
        with pytest.raises(DomainError):
            breach_prob_pde(p, DKO, 60.0, 0.25, grid)  # below the lower barrier
        # one-sided problems take the far edge from the grid; the start
        # value must sit inside it
        one_sided = BarrierSet(lower=BarrierCurve.flat(70.0))
        with pytest.raises(DomainError):
            breach_prob_pde(p, one_sided, 100.0, 0.25, PdeGrid(s_min=60.0, s_max=90.0))

    def test_default_grid_covers_problem(self):
        p = mk_params()
        grid = default_grid(p, DKO, 100.0, 0.25)
        assert grid.s_min < 70.0 and grid.s_max > 130.0
        span = math.exp(6.0 * 0.30 * math.sqrt(0.25))
        assert grid.s_min == pytest.approx(70.0 / span, rel=1e-12)
        assert grid.s_max == pytest.approx(130.0 * span, rel=1e-12)
