"""Normal distribution helpers."""

import math

import pytest

from barrierkit.model import DomainError
from barrierkit.numerics import (
    nu_for_accuracy,
    std_normal_cdf,
)

# reference values from a 40-digit evaluation of the error function
CDF_CASES = [
    (0.0, 0.5),
    (1.0, 0.841344746068542949),
    (2.0, 0.977249868051820793),
    (-3.0, 0.00134989803163009453),
    (5.0, 0.999999713348428121),
    (-6.0, 9.86587645037698141e-10),
]


class TestNormalCdf:
    @pytest.mark.parametrize("x,phi", CDF_CASES)
    def test_reference_values(self, x, phi):
        assert std_normal_cdf(x) == pytest.approx(phi, rel=1e-14, abs=1e-300)

    def test_deep_tail_survival(self):
        assert std_normal_cdf(-8.0) == pytest.approx(6.22096057427178412e-16, rel=1e-14, abs=0)
        assert std_normal_cdf(-4.9) == pytest.approx(4.79183276590319853e-7, rel=1e-14, abs=0)

    def test_symmetry(self):
        for x in (0.3, 1.7, 4.2):
            assert std_normal_cdf(x) + std_normal_cdf(-x) == pytest.approx(1.0, rel=0, abs=2.0**-52)

    def test_monotone(self):
        xs = [-8.0 + i / 16.0 for i in range(257)]
        vals = [std_normal_cdf(x) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


# nu at the two ends of the pi range, where a quantile built on the
# pdf loses digits: the smallest subnormal (the pdf underflows there)
# and the double just below 1/2 (Phi(nu) - pi cancels). Each is the
# root of Phi(-nu) = pi for the exact value of the double pi, solved
# at 50 digits:
#
#     import mpmath as mp
#     mp.mp.dps = 50
#     p = mp.mpf(pi)
#     f = lambda x: mp.log(mp.erfc(x / mp.sqrt(2)) / 2) - mp.log(p)
#     nu = mp.findroot(f, mp.sqrt(-2 * mp.log(p)))  # start 1e-16 near 1/2
#
# The second agrees with -sqrt(2) erfinv(2 pi - 1) at 80 digits.
NU_EDGE_CASES = [
    (5e-324, 38.4674056171443462507843621685),
    (0.4999999999999999, 2.78291642467176692223392340787e-16),
]


class TestNuForAccuracy:
    def test_reference_values(self):
        assert nu_for_accuracy(1e-6) == pytest.approx(4.75342430882289895, abs=1e-12)
        assert nu_for_accuracy(2.3e-8) == pytest.approx(5.46611729879818702, abs=1e-12)

    @pytest.mark.parametrize("pi,nu", NU_EDGE_CASES)
    def test_ends_of_the_range(self, pi, nu):
        assert nu_for_accuracy(pi) == pytest.approx(nu, rel=1e-15, abs=0.0)

    def test_defining_property(self):
        for pi in (1e-2, 1e-4, 1e-8, 0.3):
            nu = nu_for_accuracy(pi)
            assert std_normal_cdf(-nu) == pytest.approx(pi, rel=1e-12, abs=0)

    def test_domain(self):
        for pi in (0.0, 0.5, 0.7, -1e-3, math.nan):
            with pytest.raises(DomainError):
                nu_for_accuracy(pi)

