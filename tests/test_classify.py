"""Degeneracy classification rules for single and double knock-outs."""

import math
import random

import pytest

from barrierkit.calibrate import FLOOR_THETA, numeric_critical_price
from barrierkit.classify import (
    classify_double,
    classify_down_and_out,
    classify_up_and_out,
)
from barrierkit.model import Classification as C
from barrierkit.model import DomainError, MarketParams, NumericsError
from barrierkit.pricing.closed import down_and_out_call_closed, up_and_out_call_closed


class TestDownAndOut:
    def test_three_bands(self):
        assert classify_down_and_out(60.0, 70.0, 99.0) is C.KNOCKED_OUT_AT_INCEPTION
        assert classify_down_and_out(80.0, 70.0, 99.0) is C.DOWN_AND_OUT
        assert classify_down_and_out(120.0, 70.0, 99.0) is C.VANILLA

    def test_boundaries(self):
        # on the barrier counts as knocked out, on the critical price as vanilla
        assert classify_down_and_out(70.0, 70.0, 99.0) is C.KNOCKED_OUT_AT_INCEPTION
        assert classify_down_and_out(99.0, 70.0, 99.0) is C.VANILLA


class TestUpAndOut:
    def test_three_bands(self):
        assert classify_up_and_out(140.0, 130.0, 88.0) is C.KNOCKED_OUT_AT_INCEPTION
        assert classify_up_and_out(100.0, 130.0, 88.0) is C.UP_AND_OUT
        assert classify_up_and_out(80.0, 130.0, 88.0) is C.VANILLA

    def test_boundaries(self):
        assert classify_up_and_out(130.0, 130.0, 88.0) is C.KNOCKED_OUT_AT_INCEPTION
        assert classify_up_and_out(88.0, 130.0, 88.0) is C.VANILLA


class TestDouble:
    def test_crossed_criticals_open_a_vanilla_band(self):
        # s_mu < s_ml reversed: here s_ml=88 < s_mu=99 so (88, 99) is vanilla
        assert classify_double(93.0, 70.0, 130.0, 88.0, 99.0) is C.VANILLA
        assert classify_double(80.0, 70.0, 130.0, 88.0, 99.0) is C.DOWN_AND_OUT
        assert classify_double(110.0, 70.0, 130.0, 88.0, 99.0) is C.UP_AND_OUT

    def test_typical_band(self):
        # s_mu=88 < s0 < s_ml=99 keeps both barriers live
        assert classify_double(93.0, 70.0, 130.0, 99.0, 88.0) is C.TYPICAL_DOUBLE_BARRIER

    def test_inception_knockout(self):
        assert classify_double(70.0, 70.0, 130.0, 99.0, 88.0) is C.KNOCKED_OUT_AT_INCEPTION
        assert classify_double(130.0, 70.0, 130.0, 99.0, 88.0) is C.KNOCKED_OUT_AT_INCEPTION
        assert classify_double(65.0, 70.0, 130.0, 99.0, 88.0) is C.KNOCKED_OUT_AT_INCEPTION

    def test_tie_goes_to_degenerate(self):
        # exactly at a critical price the closed comparison wins
        assert classify_double(99.0, 70.0, 130.0, 99.0, 88.0) is C.UP_AND_OUT
        assert classify_double(88.0, 70.0, 130.0, 99.0, 88.0) is C.DOWN_AND_OUT
        assert classify_double(99.0, 70.0, 130.0, 99.0, 99.0) is C.VANILLA

    def test_consistency_with_single_side(self):
        # once one barrier is settled the double rule must agree with the
        # matching single-barrier rule
        rng = random.Random(7)
        for _ in range(2000):
            b_l0 = rng.uniform(10.0, 90.0)
            b_u0 = rng.uniform(b_l0 + 1.0, 300.0)
            s_ml = rng.uniform(b_l0, 250.0)
            s_mu = rng.uniform(20.0, b_u0)
            s0 = rng.uniform(b_l0 + 1e-9, b_u0 - 1e-9)
            cat = classify_double(s0, b_l0, b_u0, s_ml, s_mu)
            if s0 <= s_mu:  # upper barrier settled as irrelevant
                assert cat is classify_down_and_out(s0, b_l0, s_ml)
            if s0 >= s_ml:  # lower barrier settled as irrelevant
                assert cat is classify_up_and_out(s0, b_u0, s_mu)

    def test_exactly_one_category(self):
        rng = random.Random(11)
        cats = set()
        for _ in range(2000):
            args = sorted(rng.uniform(10.0, 300.0) for _ in range(5))
            order = list(range(5))
            rng.shuffle(order)
            s0, b_l0, b_u0, s_ml, s_mu = (args[i] for i in order)
            if not b_l0 < b_u0:
                b_l0, b_u0 = min(b_l0, b_u0), max(b_l0, b_u0) + 1.0
            cat = classify_double(s0, b_l0, b_u0, s_ml, s_mu)
            assert isinstance(cat, C)
            cats.add(cat)
        assert len(cats) >= 4  # the sampler reached every regime


# The single-side and double formulas as three separate rules, written out
# here as the reference that the one rule must reproduce label for label.
def _down_formula(s0, b_l0, s_ml):
    if s0 <= b_l0:
        return C.KNOCKED_OUT_AT_INCEPTION
    if s0 >= s_ml:
        return C.VANILLA
    return C.DOWN_AND_OUT


def _up_formula(s0, b_u0, s_mu):
    if s0 >= b_u0:
        return C.KNOCKED_OUT_AT_INCEPTION
    if s0 <= s_mu:
        return C.VANILLA
    return C.UP_AND_OUT


def _double_formula(s0, b_l0, b_u0, s_ml, s_mu):
    if s0 <= b_l0 or s0 >= b_u0:
        return C.KNOCKED_OUT_AT_INCEPTION
    lower_live, upper_live = s0 < s_ml, s0 > s_mu
    if lower_live and upper_live:
        return C.TYPICAL_DOUBLE_BARRIER
    if lower_live:
        return C.DOWN_AND_OUT
    if upper_live:
        return C.UP_AND_OUT
    return C.VANILLA


class TestOneRule:
    def test_every_name_matches_its_formula(self):
        rng = random.Random(23)
        seen = set()
        for i in range(100_000):
            b_l0 = 100.0 * math.exp(rng.uniform(-3.0, 0.5))
            b_u0 = b_l0 * math.exp(rng.uniform(1e-6, 3.0))
            s_ml = b_l0 * math.exp(rng.uniform(-0.5, 4.0))
            s_mu = b_u0 * math.exp(-rng.uniform(-0.5, 4.0))
            # s0 exactly on a barrier or a critical price in four draws of six
            s0 = (b_l0 * math.exp(rng.uniform(-0.5, 3.5)), b_l0, b_u0, s_ml, s_mu,
                  b_u0 * math.exp(-rng.uniform(-0.5, 3.5)))[i % 6]
            down = _down_formula(s0, b_l0, s_ml)
            up = _up_formula(s0, b_u0, s_mu)
            double = _double_formula(s0, b_l0, b_u0, s_ml, s_mu)
            assert classify_down_and_out(s0, b_l0, s_ml) is down
            assert classify_up_and_out(s0, b_u0, s_mu) is up
            assert classify_double(s0, b_l0, b_u0, s_ml, s_mu) is double
            # a single barrier is the double rule with the other side absent
            assert classify_double(s0, b_l0, None, s_ml, None) is down
            assert classify_double(s0, None, b_u0, None, s_mu) is up
            seen |= {down, up, double}
        assert seen == set(C)

    @pytest.mark.parametrize("s0", [math.nan, 0.0, -5.0, math.inf])
    @pytest.mark.parametrize("rule", [
        lambda s0: classify_down_and_out(s0, 70.0, 99.0),
        lambda s0: classify_up_and_out(s0, 130.0, 88.0),
        lambda s0: classify_double(s0, 70.0, 130.0, 99.0, 88.0),
        lambda s0: classify_double(s0, 70.0, None, 99.0, None),
        lambda s0: classify_double(s0, None, 130.0, None, 88.0),
    ], ids=["down", "up", "double", "lower-alone", "upper-alone"])
    def test_needs_a_positive_finite_s0(self, rule, s0):
        with pytest.raises(DomainError, match="s0 must be positive and finite"):
            rule(s0)

    @pytest.mark.parametrize("theta", [1e-2, 1e-6, FLOOR_THETA])
    @pytest.mark.parametrize("side, barrier, pricer", [
        ("lower", 70.0, down_and_out_call_closed),
        ("upper", 130.0, up_and_out_call_closed),
    ], ids=["lower", "upper"])
    def test_the_side_picks_its_own_pricer(self, side, barrier, pricer, theta):
        p = MarketParams(mu=0.10, sigma=0.30, r=0.10, T=0.25)
        if side == "upper" and theta == FLOOR_THETA:
            # the documented floor: the up-and-out correction never underflows
            for call in (lambda: numeric_critical_price(p, 100.0, barrier, side, theta),
                         lambda: numeric_critical_price(p, 100.0, barrier, side, theta, pricer)):
                with pytest.raises(NumericsError, match="unreachable"):
                    call()
            return
        assert numeric_critical_price(p, 100.0, barrier, side, theta) == numeric_critical_price(
            p, 100.0, barrier, side, theta, pricer
        )
