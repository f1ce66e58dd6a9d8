import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import composite_simpson
from reccost import (
    DomainError,
    ParameterError,
    RangeOverflowError,
    canonical_cost,
    chebyshev_cost,
    chebyshev_sequence,
    distance,
    local_equivalence_ratio,
    metric_weight,
    metric_weight_ratio,
)
from reccost.geometry import CHEBYSHEV_N_MAX, _carlson

# frozen oracle: composite Simpson, step 1e-5, of sqrt(cosh) on [0, 1]
D_1_E = 1.0816431206927474


def quad_reference(lo, hi):
    """integral_lo^hi sqrt(cosh u) du by QUADPACK on pieces at most 1/2 long."""
    from scipy import integrate

    def weight(u):  # sqrt(cosh u) without overflow past |u| = 710
        return math.exp(0.5 * abs(u)) * math.sqrt(0.5 * (1.0 + math.exp(-2.0 * abs(u))))

    n = max(1, math.ceil(2.0 * (hi - lo)))
    cuts = [lo + (hi - lo) * k / n for k in range(n)] + [hi]
    return math.fsum(integrate.quad(weight, p, q, epsabs=0.0, epsrel=1.2e-14, limit=200)[0]
                     for p, q in zip(cuts, cuts[1:]))


# (lo, hi) in log coordinates: the rule on arcs up to 1 long (worst at the origin), the
# closed form across and beside 0, both sides of the asymptotic switch at 80, and far out
ARCS = [(-0.5, 0.5), (-0.3, 0.7), (-0.495, 0.495), (2.0, 2.001), (30.0, 31.0), (-744.0, -743.2),
        (-0.5, 0.5000001), (0.2, 1.7), (-3.0, 5.0), (0.0, 20.0), (-30.0, -2.0), (19.0, 22.0),
        (79.0, 80.5), (79.9, 81.0), (0.0, 80.0), (100.0, 102.0), (-744.4, 709.7)]

# close ratios far from 1, whose rounded logs share most digits; the last pair are neighbours
CLOSE_PAIRS = [(1e300, 1e300 * (1 + 1e-10)), (1e-300, 1e-300 * (1 + 1e-9)),
               (1e300, math.nextafter(1e300, math.inf))]


def mp_arc(x, y):
    """(integral of sqrt(cosh u) du over [ln x, ln y], ln y - ln x) to 50 digits, x < y."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        a, b = mpmath.log(mpmath.mpf(x)), mpmath.log(mpmath.mpf(y))
        return mpmath.quad(lambda u: mpmath.sqrt(mpmath.cosh(u)), [a, b]), b - a


class TestMetricWeight:
    def test_identity_point(self):
        assert metric_weight(0.0) == 1.0
        assert metric_weight_ratio(1.0) == 1.0

    def test_at_two(self):
        assert abs(metric_weight(2.0) - math.sqrt(math.cosh(2.0))) <= 1e-15
        assert abs(metric_weight(2.0) - 1.9396) <= 1e-4

    def test_ratio_form_matches_direct_formula(self):
        for x in (0.25, 0.5, 1.0, 3.0, 10.0):
            direct = math.sqrt((x * x + 1.0) / (2.0 * x**3))
            assert abs(metric_weight_ratio(x) - direct) <= 1e-13 * direct

    def test_jacobian_consistency(self):
        # weight in t equals x * weight in x under t = ln x
        for x in (0.1, 0.9, 2.0, 50.0):
            assert abs(metric_weight(math.log(x)) - x * metric_weight_ratio(x)) <= 1e-12

    def test_large_argument_stable(self):
        w = metric_weight(1000.0)
        ref = math.exp(500.0) / math.sqrt(2.0)
        assert abs(w - ref) <= 1e-12 * ref

    def test_overflow_guard(self):
        with pytest.raises(RangeOverflowError):
            metric_weight(1400.5)

    def test_ratio_overflow_guard(self):
        # the weight is about x^(-3/2)/sqrt(2): finite at 1e-200, past the doubles at 1e-300
        assert math.isfinite(metric_weight_ratio(1e-200))
        for x in (1e-300, 5e-324):
            with pytest.raises(RangeOverflowError):
                metric_weight_ratio(x)


class TestDistance:
    def test_zero_at_coincident_points(self):
        res = distance(2.0, 2.0, 1e-10)
        assert res.value == 0.0
        assert res.abs_error_estimate == 0.0
        assert res.evaluations == 0

    def test_one_to_e_against_oracle(self):
        res = distance(1.0, math.e, 1e-10)
        oracle = composite_simpson(lambda u: math.sqrt(math.cosh(u)), 0.0, 1.0, 100_000)
        assert abs(res.value - oracle) <= 1e-10
        assert abs(res.value - D_1_E) <= 1e-10
        assert res.abs_error_estimate <= 1e-10

    def test_symmetry_in_arguments(self):
        assert distance(1.0, math.e, 1e-12).value == distance(math.e, 1.0, 1e-12).value

    def test_reciprocal_pair(self):
        d1 = distance(2.0, 3.0, 1e-12).value
        d2 = distance(0.5, 1.0 / 3.0, 1e-12).value
        assert abs(d1 - d2) <= 1e-11

    def test_reciprocal_symmetry_sweep(self, rng):
        tol = 1e-9
        for x, y in np.exp(rng.uniform(-3, 3, size=(1000, 2))):
            d1 = distance(float(x), float(y), tol).value
            d2 = distance(1.0 / float(x), 1.0 / float(y), tol).value
            assert abs(d1 - d2) <= 10 * tol

    def test_triangle_inequality(self, rng):
        tol = 1e-9
        pts = np.exp(rng.uniform(-3, 3, size=(1000, 3)))
        for x, y, z in pts:
            dxz = distance(float(x), float(z), tol).value
            dxy = distance(float(x), float(y), tol).value
            dyz = distance(float(y), float(z), tol).value
            assert dxz <= dxy + dyz + 10 * tol

    def test_additivity_along_the_line(self, rng):
        tol = 1e-10
        pts = np.sort(np.exp(rng.uniform(-3, 3, size=(300, 3))), axis=1)
        for x, y, z in pts:
            dxz = distance(float(x), float(z), tol).value
            dxy = distance(float(x), float(y), tol).value
            dyz = distance(float(y), float(z), tol).value
            assert abs(dxz - (dxy + dyz)) <= 10 * tol

    def test_asymptotic_growth(self):
        res = distance(1.0, 1e4, 1e-10)
        assert abs(res.value / (math.sqrt(2.0) * 100.0) - 1.0) <= 0.02
        # lower bound: sqrt(cosh u) >= e^(u/2)/sqrt(2)
        assert res.value >= math.sqrt(2.0) * (100.0 - 1.0)

    def test_far_endpoints_are_finite(self):
        for y in (1e30, math.exp(300.0)):
            res = distance(1.0, y, 1e-10)
            assert abs(res.value - quad_reference(0.0, math.log(y))) <= 1e-13 * res.value
        res = distance(5e-324, 1.7e308, 1e-10)
        far = math.sqrt(2.0) * (math.exp(-0.5 * math.log(5e-324)) + math.sqrt(1.7e308))
        assert abs(res.value - far) <= 1e-13 * far

    def test_matches_piecewise_quadrature(self, rng):
        for x, y in 10.0 ** rng.uniform(-6, 6, size=(200, 2)):
            value = distance(float(x), float(y), 1e-10).value
            ref = quad_reference(*sorted((math.log(float(x)), math.log(float(y)))))
            assert abs(value - ref) <= 1e-13 * ref

    @pytest.mark.parametrize("lo, hi", ARCS)
    def test_error_within_its_estimate(self, lo, hi):
        # the reference integrates between the exact logs of the endpoints: on short arcs the
        # estimate is tighter than the error that rounded logs would put into the reference
        res = distance(math.exp(lo), math.exp(hi), 1e-10)
        assert res.evaluations > 0
        assert abs(res.value - mp_arc(*res.endpoints)[0]) <= res.abs_error_estimate

    def test_estimate_covers_the_rounding_of_the_logs(self):
        # far from 1, an ulp of ln x is about 1e-13, and the metric weight magnifies it
        for x, y in ((1e300, 1e300 * (1 + 1e-10)), (1e300, math.nextafter(1e300, math.inf)),
                     (1e-300, 1e-300 * (1 + 1e-9))):
            res = distance(x, y, 1e-10)
            width = math.log1p((y - x) / x)
            ref = width * metric_weight(math.log(x) + 0.5 * width)  # midpoint rule: O(width^3)
            assert abs(res.value - ref) <= res.abs_error_estimate

    @pytest.mark.parametrize("x, y", CLOSE_PAIRS)
    def test_close_endpoints_keep_their_gap(self, x, y):
        ref = mp_arc(x, y)[0]
        for got in (distance(x, y, 1e-10), distance(y, x, 1e-10)):
            assert abs(got.value - ref) <= 1e-13 * ref
            assert abs(got.value - ref) <= got.abs_error_estimate <= 1e-12 * got.value

    def test_tol_does_not_steer_the_value(self):
        assert distance(0.3, 7.0, 1e-3) == distance(0.3, 7.0, 1e-14)

    @pytest.mark.parametrize("S", [1e-8, 0.3, 1.0, 5.0, 1e5, 1e15])
    def test_carlson_terms_match_scipy(self, S):
        from scipy.special import elliprd, elliprf

        x, y = 1.0 + S * S, 1.0 + 2.0 * S * S
        rf, rd, _ = _carlson(x, y, 1.0)
        ref_f, ref_d = elliprf(1.0, x, y), elliprd(x, y, 1.0)
        assert abs(rf - ref_f) <= 4 * math.ulp(ref_f)
        assert abs(rd - ref_d) <= 4 * math.ulp(ref_d)

    def test_validation(self):
        with pytest.raises(DomainError):
            distance(-1.0, 2.0, 1e-10)
        with pytest.raises(DomainError):
            distance(1.0, 2.0, 0.0)


class TestLocalEquivalence:
    def test_near_identity(self):
        assert abs(local_equivalence_ratio(1.001, 0.999) - 1.0) <= 1e-6

    def test_unit_interval(self):
        assert abs(local_equivalence_ratio(1.0, math.e) - D_1_E) <= 1e-9

    def test_swap_and_invert_symmetry(self):
        r1 = local_equivalence_ratio(1.3, 0.8)
        r2 = local_equivalence_ratio(1.0 / 1.3, 1.0 / 0.8)
        assert abs(r1 - r2) <= 1e-12

    def test_window_invariant(self, rng):
        for x, y in rng.uniform(0.99, 1.01, size=(200, 2)):
            if abs(math.log(float(y)) - math.log(float(x))) < 1e-8:
                continue
            assert abs(local_equivalence_ratio(float(x), float(y)) - 1.0) <= 1e-3

    def test_equal_arguments_rejected(self):
        with pytest.raises(DomainError):
            local_equivalence_ratio(2.0, 2.0)

    def test_neighbouring_doubles(self):
        x, y = CLOSE_PAIRS[-1]
        arc, width = mp_arc(x, y)
        assert abs(local_equivalence_ratio(x, y) - arc / width) <= 1e-13 * (arc / width)

    @pytest.mark.parametrize("gap", [1e-6, 1e-5, 1e-4, 1e-3, 1e-2])
    def test_exact_near_one(self, gap):
        for lo in (-gap, -0.5 * gap, 0.0, 3e-3):
            hi = lo + gap
            ratio = local_equivalence_ratio(math.exp(lo), math.exp(hi))
            assert abs(ratio - quad_reference(lo, hi) / (hi - lo)) <= 1e-12 * ratio


class TestChebyshevCost:
    def test_square(self):
        chk = chebyshev_cost(2.0, 2)
        assert chk.via_identity == 1.125
        assert abs(chk.direct - 1.125) <= 1e-14
        # T_2(y) = 2y^2 - 1 applied to J(2) + 1 = 1.25
        assert abs((2.0 * 1.25**2 - 1.0) - 1.0 - chk.via_identity) <= 1e-15

    def test_power_zero(self):
        chk = chebyshev_cost(3.7, 0)
        assert chk.via_identity == 0.0
        assert chk.direct == 0.0

    def test_cube(self):
        chk = chebyshev_cost(2.0, 3)
        assert chk.via_identity == 4.0625 - 1.0
        assert abs(chk.direct - ((8.0 + 0.125) / 2.0 - 1.0)) <= 1e-12

    @pytest.mark.parametrize("x", [1.1, 2.0, 5.0])
    def test_consistency_up_to_fifteen(self, x):
        for n in range(16):
            assert chebyshev_cost(x, n).rel_discrepancy <= 1e-9

    def test_overflow_guard(self):
        with pytest.raises(RangeOverflowError):
            chebyshev_cost(1e6, 100)

    def test_negative_power_rejected(self):
        with pytest.raises(ParameterError):
            chebyshev_cost(2.0, -1)

    def test_power_cap(self):
        # at x = 1 the overflow guard never fires, so only the cap bounds the loop
        assert chebyshev_cost(1.0, CHEBYSHEV_N_MAX).via_identity == 0.0
        with pytest.raises(ParameterError, match="n must be"):
            chebyshev_cost(1.0, CHEBYSHEV_N_MAX + 1)


class TestChebyshevSequence:
    def test_all_ones(self):
        assert chebyshev_sequence(1.0, 5) == [1.0] * 6

    def test_hand_recursion(self):
        assert chebyshev_sequence(1.25, 3) == [1.0, 1.25, 2.125, 4.0625]

    def test_closed_form_at_ten(self):
        seq = chebyshev_sequence(math.cosh(1.0), 10)
        assert abs(seq[-1] - math.cosh(10.0)) <= 1e-9 * math.cosh(10.0)

    def test_oscillatory_branch_rejected(self):
        with pytest.raises(DomainError):
            chebyshev_sequence(0.99, 3)

    @pytest.mark.parametrize("H1", [math.nan, math.inf])
    def test_non_finite_H1_rejected(self, H1):
        with pytest.raises(DomainError, match="H1 must be finite"):
            chebyshev_sequence(H1, 3)

    def test_overflow_refused_before_the_recursion(self):
        # 2 arcosh(cosh(351)) = 702 > 700, while H_1 itself is finite
        with pytest.raises(RangeOverflowError, match="overflows"):
            chebyshev_sequence(math.cosh(351.0), 2)
        assert chebyshev_sequence(math.cosh(349.0), 2)[-1] < math.inf

    def test_length_validation(self):
        with pytest.raises(ParameterError):
            chebyshev_sequence(1.5, 0)
        with pytest.raises(ParameterError):
            chebyshev_sequence(1.0, CHEBYSHEV_N_MAX + 1)

    @given(st.floats(min_value=1.0, max_value=5.0), st.integers(min_value=1, max_value=15))
    def test_matches_cosh_of_arcosh(self, h1, n):
        seq = chebyshev_sequence(h1, n)
        ref = math.cosh(n * math.acosh(h1))
        assert abs(seq[-1] - ref) <= 1e-8 * (1.0 + ref)

    @given(st.floats(min_value=1.05, max_value=4.0), st.integers(min_value=0, max_value=12))
    def test_cost_identity_property(self, x, n):
        assert chebyshev_cost(x, n).rel_discrepancy <= 1e-9


class TestCrossChecks:
    def test_sequence_matches_cost_route(self):
        x = 2.0
        seq = chebyshev_sequence(canonical_cost(x) + 1.0, 15)
        for n in range(16):
            chk = chebyshev_cost(x, n)
            assert abs((seq[n] - 1.0) - chk.via_identity) <= 1e-12 * (1.0 + abs(chk.via_identity))
