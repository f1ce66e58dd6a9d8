import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import cosh_series
from reccost import (
    DomainError,
    RangeOverflowError,
    am_gm_decomposition,
    bregman_divergence,
    canonical_cost,
    golden_fixed_point,
    log_forms,
)

PHI = 1.6180339887498949
DBL_MAX = sys.float_info.max


class TestCanonicalCost:
    def test_equilibrium(self):
        assert canonical_cost(1.0) == 0.0

    def test_golden_value(self):
        # J(phi) = phi - 3/2
        assert abs(canonical_cost(PHI) - (PHI - 1.5)) <= 1e-15

    def test_two(self):
        # cross-check against the mean form (x + 1/x)/2 - 1
        assert abs(canonical_cost(2.0) - (0.5 * (2.0 + 0.5) - 1.0)) <= 1e-16
        assert canonical_cost(2.0) == 0.25

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, -math.inf, math.nan])
    def test_rejects_nonpositive_and_nonfinite(self, bad):
        with pytest.raises(DomainError):
            canonical_cost(bad)

    def test_reciprocity_sweep(self, rng):
        xs = np.exp(rng.uniform(math.log(1e-6), math.log(1e6), size=10_000))
        for x in xs:
            j = canonical_cost(float(x))
            assert abs(j - canonical_cost(1.0 / float(x))) <= 1e-12 * (1.0 + j)

    def test_nonnegative_with_unique_minimum(self, rng):
        xs = np.exp(rng.uniform(math.log(1e-6), math.log(1e6), size=10_000))
        for x in xs:
            j = canonical_cost(float(x))
            assert j >= 0.0
            if j < 1e-30:
                assert abs(float(x) - 1.0) < 1e-15

    def test_answers_up_to_dbl_max(self, rng):
        # (x - 1)^2 overflows past sqrt(DBL_MAX) ~ 1.34e154; J ~ x/2 does not
        big = np.exp(rng.uniform(math.log(1e150), math.log(DBL_MAX), size=2000)).tolist()
        for x in big + [DBL_MAX]:
            j, exact = canonical_cost(x), (Fraction(x) - 1) ** 2 / (2 * Fraction(x))
            assert abs(Fraction(j) - exact) <= 2 * Fraction(math.ulp(float(exact)))

    def test_below_the_overflow_it_is_the_square_form(self, rng):
        small = np.exp(rng.uniform(math.log(1e-300), math.log(1.34e154), size=10_000)).tolist()
        for x in small:
            u = x - 1.0
            assert canonical_cost(x) == (u * u) / (2.0 * x)

    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_reciprocity_property(self, x):
        j = canonical_cost(x)
        assert j >= 0.0
        assert abs(j - canonical_cost(1.0 / x)) <= 1e-12 * (1.0 + j)


class TestLogForms:
    def test_normalization(self):
        assert log_forms(0.0) == (0.0, 1.0)

    def test_ln2(self):
        g, h = log_forms(math.log(2.0))
        # cosh(ln 2) = (2 + 1/2)/2
        assert abs(h - 1.25) <= 1e-15
        assert abs(g - 0.25) <= 1e-15

    def test_unit(self):
        g, h = log_forms(1.0)
        assert abs(h - cosh_series(1.0)) <= 1e-15
        assert abs(g - (cosh_series(1.0) - 1.0)) <= 1e-15

    def test_overflow_guard(self):
        with pytest.raises(RangeOverflowError):
            log_forms(700.5)
        with pytest.raises(DomainError):
            log_forms(math.nan)

    def test_coordinate_consistency(self):
        for t in np.linspace(-20.0, 20.0, 4001):
            g, h = log_forms(float(t))
            assert abs(canonical_cost(math.exp(float(t))) - g) <= 1e-12 * h

    @given(st.floats(min_value=-20.0, max_value=20.0))
    def test_coordinate_consistency_property(self, t):
        g, h = log_forms(t)
        assert abs(canonical_cost(math.exp(t)) - g) <= 1e-12 * h

    def test_quadratic_calibration(self):
        # |G - t^2/2| <= t^4/20 near zero (leading Taylor error is t^4/24)
        for t in np.linspace(-0.5, 0.5, 201):
            t = float(t)
            assert abs(log_forms(t).G - t * t / 2.0) <= t**4 / 20.0


class TestAmGm:
    def test_equilibrium(self):
        assert am_gm_decomposition(1.0) == (1.0, 1.0, 0.0)

    @pytest.mark.parametrize("x", [4.0, 0.25])
    def test_four_and_quarter(self, x):
        am, gm, diff = am_gm_decomposition(x)
        assert am == 2.125
        assert gm == 1.0
        assert diff == 1.125

    def test_gap_matches_cost(self, rng):
        for x in np.exp(rng.uniform(-3, 3, size=200)):
            am, gm, diff = am_gm_decomposition(float(x))
            assert diff == canonical_cost(float(x))
            assert abs((am - gm) - diff) <= 1e-12 * (1.0 + diff)


class TestBregman:
    def test_reference_point(self):
        assert bregman_divergence(0.0) == 0.0

    def test_unit(self):
        assert abs(bregman_divergence(1.0) - (cosh_series(1.0) - 1.0)) <= 1e-15

    def test_evenness(self):
        assert bregman_divergence(-1.0) == bregman_divergence(1.0)

    def test_equals_log_form_exactly(self, rng):
        for t in rng.uniform(-20, 20, size=500):
            assert bregman_divergence(float(t)) == log_forms(float(t)).G


class TestGoldenFixedPoint:
    """The answer is the iteration's exact fixed point, (1 + sqrt 5)/2 to the bit."""

    @staticmethod
    def assert_exact(x0):
        phi, iters, cost = golden_fixed_point(x0)
        assert phi == (1 + math.sqrt(5)) / 2, x0
        assert iters <= 41, x0
        assert cost == canonical_cost(phi)

    def test_stationary_start(self):
        phi, iters, cost = golden_fixed_point(PHI)
        assert (phi, iters) == (PHI, 1)
        assert abs(cost - 0.1180339887498949) <= 1e-10

    @pytest.mark.parametrize("x0", [1.0, 10.0])
    def test_converges(self, x0):
        self.assert_exact(x0)
        assert golden_fixed_point(x0).iterations == 39

    def test_exact_within_20000_ulps_of_phi(self):
        bits = np.float64(PHI).view(np.int64)
        for x0 in np.arange(bits - 20000, bits + 20001).view(np.float64):
            self.assert_exact(float(x0))

    # uniform over the bit patterns of the positive finite doubles: log-uniform, subnormals too
    @given(st.integers(1, np.float64(DBL_MAX).view(np.int64))
           .map(lambda bits: float(np.int64(bits).view(np.float64))))
    @example(5e-324)
    @example(DBL_MAX)
    def test_exact_from_every_positive_double(self, x0):
        self.assert_exact(x0)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            golden_fixed_point(-1.0)
