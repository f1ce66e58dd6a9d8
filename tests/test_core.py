import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import cosh_series
from reccost import (
    LOG_LINE,
    DomainError,
    RangeOverflowError,
    am_gm_decomposition,
    bregman_divergence,
    canonical_cost,
    certify,
    certify_ratio,
    chebyshev_cost,
    chebyshev_sequence,
    classify,
    defect_log,
    defect_ratio,
    delta_of_h,
    distance,
    estimate_bounds,
    estimate_kappa,
    golden_fixed_point,
    identity_report,
    log_forms,
    make_family,
    metric_weight_ratio,
    optimal_h,
    parse_family_spec,
    sup_defect,
)
from reccost.cli import run
from reccost.core import require_cosh_range, require_finite

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


def family(spec):
    return make_family(parse_family_spec(spec), LOG_LINE)


# each caller of require_cosh_range, as a function of the argument it checks, and that
# argument's name in the refusal
RANGE_CALLERS = {
    "log_forms": (log_forms, "t"),
    "classify-window": (lambda s: classify(family("constant-one"), s), "window_T"),
    # kappa = 1, so the fit's bracket top is k = 1.3, read on a window that cosh itself holds
    "classify-fit": (lambda s: classify(family("cosh"), s / 1.3), "k window_T at the fit's top k"),
    "chebyshev_cost": (lambda s: chebyshev_cost(math.exp(s / 7.0), 7), "n ln x"),
    "chebyshev_sequence": (lambda s: chebyshev_sequence(math.cosh(s / 2.0), 2), "N arcosh(H1)"),
    # the window's edge is t = 1.5 at T = 2, step 0.5
    "certify": (lambda s: certify(family("cosh"), 2.0, 0.5), None),
    # quadlog reads on |t| <= 1e150, so only the range decides its T
    "certify_ratio": (lambda s: certify_ratio(make_family(parse_family_spec("quadlog")), s,
                                              s / 10.0), "T"),
}


class TestCoshRange:
    TAIL = ", outside cosh's range [-700, 700]; cosh overflows double precision near 710.5"

    @pytest.mark.parametrize("x", [0.0, 700.0, -700.0])
    def test_the_range_is_closed(self, x):
        require_cosh_range(x, "x")

    @pytest.mark.parametrize("x", [math.nextafter(700.0, math.inf), -701.0, math.inf, math.nan])
    def test_past_the_range_or_nan_is_refused(self, x):
        with pytest.raises(RangeOverflowError) as info:
            require_cosh_range(x, "x")
        assert str(info.value) == f"x is {x!r}{self.TAIL}"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the fit squares cosh(k t) ~ 1e303
    @pytest.mark.parametrize("caller", RANGE_CALLERS)
    def test_each_caller_answers_inside_and_refuses_past_700(self, caller, monkeypatch):
        call, what = RANGE_CALLERS[caller]
        for s, inside in ((699.99, True), (700.01, False)):
            if caller == "certify":  # no builtin's H''(0) is this large, so it is patched in
                monkeypatch.setattr("reccost.stability.estimate_kappa", lambda h: (s / 1.5) ** 2)
                what = f"sqrt(a) t at a = {(s / 1.5) ** 2!r} and the edge t = 1.5"
            if inside:
                call(s)
                continue
            with pytest.raises(RangeOverflowError) as info:
                call(s)
            got = re.fullmatch(f"{re.escape(what)} is (\\S+){re.escape(self.TAIL)}", str(info.value))
            assert got, str(info.value)
            assert abs(float(got.group(1)) - s) <= 1e-12 * s


def cli(*argv):
    """The CLI run whose last flag takes the value, as a call that raises the DomainError it
    reports: one exit 2 with the library's message."""
    def call(value):
        code, report = run([*argv, str(value)])
        kind, _, message = report.diagnostics["error"].partition(": ")
        assert (code, kind) == (2, "DomainError")
        raise DomainError(message)
    return call


# each entry that takes a window, a step h or a tolerance, as a function of that value, and
# the value's name in the refusal
POSITIVE_ENTRIES = {
    **{f"cli-{cmd}": (cli(cmd, "--family", "cosh", "--T"), "T")
       for cmd in ("sup-defect", "identities", "certify", "certify-ratio", "report")},
    "cli-classify": (cli("classify", "--family", "cosh", "--window-T"), "window_T"),
    "sup_defect": (lambda v: sup_defect(family("cosh"), v, 0.1), "T"),
    "identity_report": (lambda v: identity_report(family("cosh"), v, 0.1), "T"),
    "certify": (lambda v: certify(family("cosh"), v, 0.1), "T"),
    "certify_ratio": (lambda v: certify_ratio(make_family(parse_family_spec("cosh")), v, 0.1),
                      "T"),
    "estimate_bounds": (lambda v: estimate_bounds(family("cosh"), v), "T"),
    "optimal_h": (lambda v: optimal_h(0.0, 1.0, 1.0, v), "T"),
    "classify": (lambda v: classify(family("cosh"), v), "window_T"),
    "delta_of_h": (lambda v: delta_of_h(0.0, 1.0, 1.0, v), "h"),
    "distance": (lambda v: distance(1.0, 2.0, v), "tol"),
    "canonical_cost": (canonical_cost, "positive ratio"),
}


@pytest.mark.parametrize("value", [-1.0, 0.0, math.nan, math.inf])
@pytest.mark.parametrize("entry", POSITIVE_ENTRIES)
def test_every_entry_refuses_a_bad_value_with_one_message(entry, value):
    # core.validate_positive is the one rule, so each entry names only its own argument
    call, name = POSITIVE_ENTRIES[entry]
    with pytest.raises(DomainError) as info:
        call(value)
    assert str(info.value) == f"{name} must be positive and finite, got {value}"


class TestRequireFinite:
    @pytest.mark.parametrize("x", [0.0, -DBL_MAX, 5e-324, np.float64(2.5)])
    def test_a_finite_value_is_returned_as_a_float(self, x):
        got = require_finite(x, "x")
        assert type(got) is float and got == x

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan, np.float64(math.inf)])
    def test_a_value_past_double_range_or_nan_is_refused(self, x):
        with pytest.raises(RangeOverflowError) as info:
            require_finite(x, "x")
        assert str(info.value) == f"x is {float(x)!r}, which overflows double precision"


def reported(code, *argv):
    """The CLI run as a call that raises the RangeOverflowError it reports, once its exit code
    is checked: exit 2 with the error, or report's exit 1 with its certificate section's."""
    def call():
        got, report = run(list(argv))
        assert got == code
        if code == 1:
            raise RangeOverflowError(report.results["certificate"]["error"])
        kind, _, message = report.diagnostics["error"].partition(": ")
        assert kind == "RangeOverflowError"
        raise RangeOverflowError(message)
    return call


POLY4 = "noisy-cosh,mode=poly4,amplitude=1e307"  # G(4) = 1e307 4^4 = inf, a node at T = 2
POLY4_GRID = ("--family", POLY4, "--T", "2", "--step", "0.5")
INF_NODE = "noisy-cosh(1,poly4,1e+307)"
TINY_A = "noisy-cosh,lambda=1e-155,mode=poly4,amplitude=1"  # a = H''(0) = 1e-310, delta ~ 564
BK = "(1 + B) K at B = 1e+160, K = 1e+160 is inf"
ENVELOPE = "the envelope scale delta/a at a = 1e-310, delta = 563.7409403283164 is inf"
SWEEP = INF_NODE + ": {}, with max |G| = inf on [-2T, 2T] = [-4, 4], is nan"
AMPLE = "noisy-cosh,amplitude=1e300"  # finite G whose 2 G(t) G(u) overflows

# each entry that refuses a computed value past double range, as a call, and the refusal's
# words before the one wording
OVERFLOW_ENTRIES = {
    "estimate_kappa": (lambda: estimate_kappa(family("cosh-lambda,lambda=1e300")),
                       "cosh-lambda(1e+300): H''(0) is inf"),
    "estimate_bounds": (lambda: estimate_bounds(family("noisy-cosh,freq=1e200"), 2.0),
                        "noisy-cosh(1,sine,0.001): K = sup |H'''| on [-T, T] is nan"),
    "delta_of_h": (lambda: delta_of_h(1e-3, 1e160, 1e160, 0.5), BK),
    "optimal_h": (lambda: optimal_h(1e-3, 1e160, 1e160, 1.0), BK),
    "certify-tiny-a": (lambda: certify(family(TINY_A), 2.0, 0.5), ENVELOPE),
    "sup_defect": (lambda: sup_defect(family(AMPLE), 2.0, 0.5),
                   "noisy-cosh(1,sine,1e+300): sup_defect, with max |G| = "
                   "1.8390715290764525e+300 on [-2T, 2T] = [-4, 4], is inf"),
    "sup_defect-inf-node": (lambda: sup_defect(family(POLY4), 2.0, 0.5),
                            SWEEP.format("sup_defect")),
    "identity_report": (lambda: identity_report(family("cosh-lambda,lambda=100"), 3.0, 0.5),
                        "cosh-lambda(100): identity_report, with max |G| = "
                        "1.8865101504649698e+260 on [-2T, 2T] = [-6, 6], is nan"),
    "identity_report-inf-node": (lambda: identity_report(family(POLY4), 2.0, 0.5),
                                 SWEEP.format("identity_report")),
    "defect_log": (lambda: defect_log(family(AMPLE), 1.0, 1.0), "noisy-cosh(1,sine,1e+300): "
                   "defect_log, with max |G| = 1.8390715290764525e+300, is -inf"),
    "defect_log-inf-node": (lambda: defect_log(family(POLY4), 2.0, 2.0),
                            f"{INF_NODE}: defect_log, with max |G| = inf, is nan"),
    "defect_log-t-plus-u": (lambda: defect_log(family("quadlog"), 1e308, 1e308),
                            "t + u at t = 1e+308, u = 1e+308 is inf"),
    "metric_weight_ratio": (lambda: metric_weight_ratio(1e-210), "the weight at x = 1e-210 is inf"),
    "cli-calibrate": (reported(2, "calibrate", "--family", "cosh-lambda,lambda=1e300"),
                      "cosh-lambda(1e+300): H''(0) is inf"),
    "cli-certify": (reported(2, "certify", *POLY4_GRID),
                    f"{INF_NODE}: K = sup |H'''| on [-T, T] is nan"),
    "cli-report": (reported(2, "report", *POLY4_GRID), SWEEP.format("sup_defect")),
    "cli-report-certificate": (reported(1, "report", "--family", TINY_A, "--T", "2", "--step",
                                        "0.5"), ENVELOPE),
    "cli-sup-defect": (reported(2, "sup-defect", *POLY4_GRID),
                       SWEEP.format("sup_defect")),
    "cli-identities": (reported(2, "identities", *POLY4_GRID),
                       SWEEP.format("identity_report")),
    "cli-defect-t-u": (reported(2, "defect", "--family", POLY4, "--t", "2", "--u", "2"),
                       f"{INF_NODE}: defect_log, with max |G| = inf, is nan"),
    "cli-defect-x-y": (reported(2, "defect", "--family", POLY4, "--x", "7", "--y", "7"),
                       f"{INF_NODE}: defect_ratio, with max |G| = inf, is nan"),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("entry", OVERFLOW_ENTRIES)
def test_every_entry_refuses_an_overflow_with_one_message(entry, capsys):
    # core.require_finite is the one rule: an infinite node of G is refused as an overflowing
    # product is, and report keeps its other sections where only the certificate overflows
    call, what = OVERFLOW_ENTRIES[entry]
    with pytest.raises(RangeOverflowError) as info:
        call()
    assert str(info.value) == f"{what}, which overflows double precision"


@pytest.mark.parametrize("x, y, name, value", [(1e300, 1e300, "x*y", math.inf),
                                               (1e-300, 1e300, "x/y", 0.0)],
                         ids=["overflow", "underflow"])
def test_a_ratio_defect_refuses_its_products_as_ratios(x, y, name, value):
    # x*y and x/y are positive ratios: an underflow to 0 is no overflow
    with pytest.raises(DomainError) as info:
        defect_ratio(make_family(parse_family_spec("cosh")), x, y)
    assert type(info.value) is DomainError
    assert str(info.value) == (f"{name} at x = {x!r}, y = {y!r} must be positive and finite, "
                               f"got {value}")
