import math
import re
from fractions import Fraction

import numpy as np
import pytest

from reccost import (
    FAMILIES,
    LOG_LINE,
    POSITIVE_RATIOS,
    DomainError,
    FamilySpec,
    analytic,
    lift_to_log,
    make_family,
    parse_family_spec,
    sample_table,
    to_ratio,
)
from reccost.handles import _LOG_FROM_RATIO, require_window
from test_fixtures import PINNED


def cosh_table(lo=-2.0, hi=2.0, n=81, domain=LOG_LINE):
    ts = np.linspace(lo, hi, n)
    return sample_table(domain, ts, np.cosh(ts), name="cosh-table")


class TestSampleTable:
    def test_three_nodes(self):
        h = cosh_table(0.0, 1.0, 3)
        assert h.deriv_order == 3
        assert h.support == (0.0, 1.0)
        assert abs(h(0.5) - math.cosh(0.5)) < 5e-3  # coarse interpolant

    def test_interpolates_nodes_exactly(self):
        ts = np.linspace(-2.0, 2.0, 81)
        h = cosh_table()
        assert np.max(np.abs(h(ts) - np.cosh(ts))) <= 1e-14

    def test_a_steep_table_reads_its_rows_at_its_nodes(self):
        # every row of 1 + 5e306 (cosh(10 t) - 1) is finite, but c1 is inf on every piece: a node
        # is read at h = 0, where inf * 0 once gave NaN; the last node is read at h = dx of the
        # last piece, and its inf stays
        ts = np.linspace(-0.003, 0.003, 7)
        ys = 1.0 + 5e306 * (np.cosh(10.0 * ts) - 1.0)
        with np.errstate(over="ignore"):
            h = sample_table(LOG_LINE, ts, ys)
        got = h(ts)
        assert np.array_equal(got[:-1], ys[:-1]) and got[-1] == math.inf

    def test_rejects_bad_tables(self):
        with pytest.raises(DomainError):
            sample_table(LOG_LINE, [0.0, 0.0, 1.0], [1.0, 1.0, 1.5])
        with pytest.raises(DomainError):
            sample_table(LOG_LINE, [0.0, 1.0], [1.0, math.inf])
        with pytest.raises(DomainError):
            sample_table(LOG_LINE, [0.0], [1.0])
        with pytest.raises(DomainError):
            sample_table(POSITIVE_RATIOS, [-1.0, 1.0], [0.0, 0.0])
        with pytest.raises(DomainError, match="unknown domain tag 'ratios'"):
            sample_table("ratios", [1.0, 2.0], [0.0, 0.25])

    def test_no_extrapolation(self):
        h = cosh_table(-1.0, 1.0, 41)
        with pytest.raises(DomainError):
            h(1.0001)
        with pytest.raises(DomainError):
            h(np.array([0.0, -1.5]))

    def test_caller_mutation_leaves_the_handle_unchanged(self):
        q = np.linspace(0.5, 2.0, 97)
        for domain in (LOG_LINE, POSITIVE_RATIOS):
            xs = np.linspace(0.5, 2.0, 31)
            ys = np.cosh(xs)
            h = sample_table(domain, xs, ys)
            before = [h(q)] + [h.derivative(q, k) for k in (1, 2, 3)]
            xs[:] = np.linspace(0.6, 2.1, 31)
            ys[:] = 99.0
            after = [h(q)] + [h.derivative(q, k) for k in (1, 2, 3)]
            assert all(np.array_equal(b, a) for b, a in zip(before, after))

    def test_derivative_unavailable(self):
        h = cosh_table()
        with pytest.raises(DomainError):
            h.derivative(0.5, 4)


def spline_abscissas(kind, n, rng):
    if kind == "unit-gaps":
        return np.arange(n, dtype=float) - n // 2
    if kind == "uniform":
        return np.linspace(-4.05, 4.05, n)
    return np.cumsum(np.exp(rng.normal(0.0, 1.0, n))) - 2.0


def exact_parabola(xs, ys, q):
    """The parabola through three (x, y) rows at each query, in exact rationals, rounded once."""
    (x0, x1, x2), (y0, y1, y2) = ([Fraction(float(v)) for v in col] for col in (xs, ys))
    d01, d12 = (y1 - y0) / (x1 - x0), (y2 - y1) / (x2 - x1)
    a = (d12 - d01) / (x2 - x0)
    return np.array([float(y0 + (d01 + a * (z - x1)) * (z - x0))
                     for z in map(Fraction, map(float, q))])


class TestSplineMatchesScipy:
    """The table interpolant is scipy's not-a-knot CubicSpline, value for value.

    Three rows are the exception: the spline is the interpolating parabola,
    whose slopes have a closed form.  scipy solves a 3x3 system for them
    instead, so there both are held to the exact parabola within 64 ulps.
    """

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 811])
    @pytest.mark.parametrize("kind", ["unit-gaps", "uniform", "random"])
    def test_log_table_values_are_bit_identical(self, kind, n):
        """Values and the three derivatives, bit for bit unless n = 3."""
        from scipy.interpolate import CubicSpline

        rng = np.random.default_rng(n)
        xs = spline_abscissas(kind, n, rng)
        for ys in (rng.normal(size=n), np.cosh(xs / 4.0)):
            h = sample_table(LOG_LINE, xs, ys)
            q = np.concatenate([xs, rng.uniform(xs[0], xs[-1], 400), [xs[-1]]])
            ref = CubicSpline(xs, ys - 1.0)
            if n == 3:
                tol = 64 * math.ulp(float(np.max(np.abs(ys - 1.0))))
                exact = exact_parabola(xs, ys - 1.0, q)
                assert np.max(np.abs(h.excess(q) - ref(q))) <= tol
                assert np.max(np.abs(h.excess(q) - exact)) <= tol
                assert np.max(np.abs(ref(q) - exact)) <= tol
                continue
            assert np.array_equal(h.excess(q), ref(q))
            assert all(h.excess(float(z)) == float(ref(z)) for z in q[::37])
            for k in (1, 2, 3):
                assert np.array_equal(h.derivative(q, k), ref(q, nu=k))

    def test_ratio_table_stack_is_the_chain_rule_of_scipys(self):
        from scipy.interpolate import CubicSpline

        xs = np.exp(np.linspace(-2.5, 2.5, 301))
        ys = (xs - 1.0) ** 2 / (2.0 * xs) + 1e-3 * np.sin(5.0 * xs)
        h = lift_to_log(sample_table(POSITIVE_RATIOS, xs, ys))
        ref = CubicSpline(xs, ys)
        ts = np.linspace(-2.5, 2.5, 2001)
        x = np.exp(ts)
        for k, coeffs in enumerate(_LOG_FROM_RATIO, 1):
            want = sum(c * x**j * ref(x, nu=j) for j, c in enumerate(coeffs, 1))
            assert np.max(np.abs(h.derivative(ts, k) - want)) <= 1e-14 * np.max(np.abs(want))

    def test_ratio_table_through_exp_is_bit_identical(self):
        from scipy.interpolate import CubicSpline

        rng = np.random.default_rng(7)
        xs = np.exp(np.sort(rng.uniform(-2.5, 2.5, 301)))
        # end nodes whose exp(ln x) rounds outside the table, so the lifted handle's
        # support ends make scipy extrapolate the end pieces
        xs[0] = next(x for x in np.linspace(0.06, 0.07, 99) if np.exp(np.log(x)) < x)
        xs[-1] = next(x for x in np.linspace(13.0, 13.5, 99) if np.exp(np.log(x)) > x)
        ys = (xs - 1.0) ** 2 / (2.0 * xs)
        f = sample_table(POSITIVE_RATIOS, xs, ys)
        ref = CubicSpline(xs, ys)
        q = np.concatenate([xs, rng.uniform(xs[0], xs[-1], 400), [xs[-1]]])
        assert np.array_equal(f(q), ref(np.exp(np.log(q))))
        h = lift_to_log(f)
        ts = np.concatenate([[math.log(xs[0]), math.log(xs[-1])], np.log(q)])
        assert np.array_equal(h.excess(ts), ref(np.exp(ts)))


class TestAnalyticHandles:
    def test_scalar_and_array_evaluation(self):
        h = make_family(FamilySpec("cosh-lambda"), domain=LOG_LINE)
        v = h(1.0)
        assert isinstance(v, float)
        arr = h(np.array([0.0, 1.0]))
        assert arr.shape == (2,)
        assert arr[1] == v

    def test_rejects_nan(self):
        h = make_family(FamilySpec("cosh-lambda"), domain=LOG_LINE)
        with pytest.raises(DomainError):
            h(math.nan)

    def test_ratio_domain_positivity(self):
        f = make_family(FamilySpec("cosh-lambda"))
        with pytest.raises(DomainError):
            f(-2.0)
        with pytest.raises(DomainError):
            f(0.0)

    def test_overflow_support(self):
        h = make_family(FamilySpec("cosh-lambda", {"lambda": 2.0}), domain=LOG_LINE)
        with pytest.raises(DomainError):
            h(351.0)  # cosh(702) overflows

    def test_derivatives(self):
        h = make_family(FamilySpec("cosh-lambda", {"lambda": 2.0}), domain=LOG_LINE)
        assert abs(h.derivative(0.5, 1) - 2.0 * math.sinh(1.0)) <= 1e-12
        assert abs(h.derivative(0.5, 2) - 4.0 * math.cosh(1.0)) <= 1e-12
        assert abs(h.derivative(0.5, 3) - 8.0 * math.sinh(1.0)) <= 1e-12
        with pytest.raises(DomainError):
            h.derivative(0.5, 4)


class TestConversions:
    @pytest.mark.parametrize(
        "spec",
        [
            FamilySpec("cosh-lambda", {"lambda": 0.5}),
            FamilySpec("quadlog"),
            FamilySpec("powerlaw-w", {"lambda": 2.0}),
        ],
    )
    def test_round_trip(self, spec):
        f = make_family(spec, domain=POSITIVE_RATIOS)
        back = to_ratio(lift_to_log(f))
        xs = np.exp(np.linspace(-2.0, 2.0, 101))
        scale = 1.0 + np.abs(f(xs))
        assert np.max(np.abs(back(xs) - f(xs)) / scale) <= 1e-12

    @pytest.mark.parametrize("family", FAMILIES)
    def test_ratio_family_is_view_of_log_stack(self, family):
        direct = make_family(FamilySpec(family), domain=POSITIVE_RATIOS)
        view = to_ratio(make_family(FamilySpec(family), domain=LOG_LINE))
        xs = np.exp(np.linspace(-3.0, 3.0, 241))
        assert np.array_equal(direct(xs), view(xs))
        for k in (1, 2, 3):
            assert np.array_equal(direct.derivative(xs, k), view.derivative(xs, k))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_lift_is_exact(self, family):
        # H(t) = G(t) + 1 from the stored stack, with no exp/log round trip
        h = make_family(FamilySpec(family), domain=LOG_LINE)
        lifted = lift_to_log(make_family(FamilySpec(family), domain=POSITIVE_RATIOS))
        ts = np.linspace(-3.0, 3.0, 241)
        assert np.array_equal(lifted(ts), h(ts))
        assert np.array_equal(lifted.derivative(ts, 3), h.derivative(ts, 3))

    def test_conversions_are_retags(self):
        h = make_family(FamilySpec("cosh-lambda"), domain=LOG_LINE)
        f = to_ratio(h)
        assert f.fns is h.fns and lift_to_log(f).fns is h.fns
        assert (f.domain, f.deriv_order) == (POSITIVE_RATIOS, 3)
        assert f(1.0) == 0.0 and h(0.0) == 1.0

    def test_analytic_ratio_stack_converted_once(self):
        # J(x) = (x - 1)^2 / (2x) and its x-derivatives; its log view is cosh
        fns = (
            lambda x: (x - 1.0) ** 2 / (2.0 * x),
            lambda x: 0.5 * (1.0 - 1.0 / x**2),
            lambda x: 1.0 / x**3,
            lambda x: -3.0 / x**4,
        )
        f = analytic(POSITIVE_RATIOS, "J", fns, support=(1e-3, 1e3))
        xs = np.exp(np.linspace(-2.0, 2.0, 81))
        for k, fn in enumerate(fns):
            got = f(xs) if k == 0 else f.derivative(xs, k)
            assert np.max(np.abs(got - fn(xs)) / (1.0 + np.abs(fn(xs)))) <= 1e-13
        h = lift_to_log(f)
        ts = np.linspace(-2.0, 2.0, 81)
        assert np.max(np.abs(h(ts) - np.cosh(ts))) <= 1e-13
        assert np.max(np.abs(h.derivative(ts, 2) - np.cosh(ts))) <= 1e-13
        assert np.max(np.abs(h.derivative(ts, 3) - np.sinh(ts))) <= 1e-13

    def test_analytic_log_values_are_kept(self):
        h = analytic(LOG_LINE, "1+t^2", (lambda t: 1.0 + t * t, lambda t: 2.0 * t))
        ts = np.linspace(-3.0, 3.0, 61)
        assert np.array_equal(h(ts), 1.0 + ts * ts)  # (H - 1) + 1 = H exactly for H >= 1/2
        assert np.array_equal(h.excess(ts), (1.0 + ts * ts) - 1.0)
        assert np.array_equal(h.derivative(ts, 1), 2.0 * ts)

    def test_lift_chain_rule_derivatives(self):
        lam = 1.5
        f = make_family(FamilySpec("cosh-lambda", {"lambda": lam}))
        h = lift_to_log(f)
        ts = np.linspace(-1.5, 1.5, 41)
        assert np.max(np.abs(h.derivative(ts, 1) - lam * np.sinh(lam * ts))) <= 1e-10
        assert np.max(np.abs(h.derivative(ts, 2) - lam**2 * np.cosh(lam * ts))) <= 1e-10
        assert np.max(np.abs(h.derivative(ts, 3) - lam**3 * np.sinh(lam * ts))) <= 1e-10

    def test_lifted_table_keeps_capability_three(self):
        xs = np.exp(np.linspace(-1.0, 1.0, 41))
        f = sample_table(POSITIVE_RATIOS, xs, (xs - 1.0) ** 2 / (2 * xs))
        h = lift_to_log(f)
        assert (f.deriv_order, h.deriv_order) == (3, 3)
        assert abs(h(0.5) - math.cosh(0.5)) < 1e-4

    def test_domain_guards(self):
        log_handle = make_family(FamilySpec("cos-k"))
        with pytest.raises(DomainError):
            lift_to_log(log_handle)
        ratio_handle = make_family(FamilySpec("quadlog"))
        with pytest.raises(DomainError):
            to_ratio(ratio_handle)

    def test_analytic_constructor_guards(self):
        with pytest.raises(DomainError):
            analytic("weird", "x", (lambda t: t,))
        with pytest.raises(DomainError):
            analytic(POSITIVE_RATIOS, "x", (lambda t: t,), support=(0.0, 1.0))


@pytest.mark.parametrize("make", [
    lambda: make_family(FamilySpec("cos-k"), LOG_LINE),
    lambda: make_family(FamilySpec("cosh-lambda"), POSITIVE_RATIOS),
    lambda: cosh_table(),
    lambda: cosh_table(0.5, 2.0, domain=POSITIVE_RATIOS),
], ids=["log-line-family", "positive-ratio-family", "log-line-table", "positive-ratio-table"])
def test_an_empty_array_evaluates_to_an_empty_array(make):
    # no abscissa to check: no DomainError, even where min() of an empty array would raise
    h = make()
    empty = np.array([])
    for out in (h(empty), h.excess(empty), h.derivative(empty, 1)):
        assert isinstance(out, np.ndarray) and out.dtype == float and out.shape == (0,)


def symmetric_table(domain, half, n=101):
    """cosh as a t,H table, or J as an x,F table at x = e^t, on n bitwise-symmetric t nodes."""
    ts = np.linspace(-half, half, n)
    ts = 0.5 * (ts - ts[::-1])
    if domain == LOG_LINE:
        return sample_table(domain, ts, np.cosh(ts), name=f"cosh on [-{half}, {half}]")
    return sample_table(domain, np.exp(ts), np.cosh(ts) - 1.0, name=f"J on [e^-{half}, e^{half}]")


ROUND_TRIPS = [(f"{s}-{d}", lambda s=s, d=d: make_family(parse_family_spec(s), d))
               for s, d, _, _ in PINNED] + [
    (f"table-{d}-{half}", lambda d=d, half=half: symmetric_table(d, half))
    for d in (LOG_LINE, POSITIVE_RATIOS) for half in (0.05, 0.15, 0.25, 0.4, 2.5)]


@pytest.mark.parametrize("make", [m for _, m in ROUND_TRIPS], ids=[i for i, _ in ROUND_TRIPS])
def test_a_round_trip_through_the_other_domain_is_exact(make):
    # the support is the stack's t-interval in both domains, so a retag and its inverse
    # give back the same support: no exp/log of it, and no drift by an ulp
    h = make()
    back = to_ratio(lift_to_log(h)) if h.domain == POSITIVE_RATIOS else lift_to_log(to_ratio(h))
    assert (back.domain, back.support) == (h.domain, h.support)
    lo, hi = max(h.support[0], -2.0), min(h.support[1], 2.0)
    ts = np.linspace(lo, hi, 41)
    z = ts if h.domain == LOG_LINE else np.exp(ts[1:-1])  # e^(ln x) may round past an edge
    assert np.array_equal(back(z), h(z))
    for k in (1, 2, 3):
        assert np.array_equal(back.derivative(z, k), h.derivative(z, k))


class TestSupportInT:
    def test_a_ratio_table_reads_its_support_in_t(self):
        f = symmetric_table(POSITIVE_RATIOS, 0.25)
        xs = np.exp(np.linspace(-0.25, 0.25, 101))
        assert f.support == tuple(np.log(xs[[0, -1]]))
        require_window(f, 0.2, "read")  # [-0.2, 0.2] in t lies in the support
        with pytest.raises(DomainError):
            require_window(f, 0.3, "read")
        assert np.array_equal(f(xs[[0, -1]]), [f(xs[0]), f(xs[-1])])  # its end rows answer

    @pytest.mark.parametrize("domain, T, window", [
        (POSITIVE_RATIOS, 0.2, "[e^-2T, e^2T] = [0.67032, 1.49182]"),
        (POSITIVE_RATIOS, 400.0, "[e^-2T, e^2T] = [0, inf]"),
        (LOG_LINE, 0.2, "[-2T, 2T] = [-0.4, 0.4]"),
    ], ids=["ratio", "ratio-e^2T-inf", "log-line"])
    def test_a_window_is_stated_in_the_handles_own_coordinates(self, domain, T, window):
        # the same t-support, read in x or in t; e^800 overflows and is stated as inf
        f = symmetric_table(POSITIVE_RATIOS, 0.25)
        h = f if domain == POSITIVE_RATIOS else lift_to_log(f)
        with pytest.raises(DomainError) as info:
            require_window(h, T, "op", reach=2.0)
        assert str(info.value) == f"{h.name}: op needs evaluability on {window}"

    def test_an_analytic_ratio_support_is_converted_once(self):
        f = analytic(POSITIVE_RATIOS, "ln", (np.log,), support=(math.exp(-3.0), math.inf))
        top = math.log(np.finfo(float).max)  # the infinite edge is capped at log(DBL_MAX)
        assert f.support == (float(np.log(math.exp(-3.0))), top)
        assert lift_to_log(f).support == f.support
        assert lift_to_log(f)(top) == math.log(math.exp(top)) + 1.0  # F is never read at x = inf

    def test_a_ratio_view_answers_every_x_whose_log_is_in_the_support(self):
        f = make_family(parse_family_spec("quadlog"))  # support [-1e150, 1e150] in t
        for x in (5e-324, 1e308, np.finfo(float).max):
            assert f(x) == 0.5 * math.log(x) ** 2

    def test_a_ratio_refusal_names_the_coordinate_of_its_range(self):
        f = symmetric_table(POSITIVE_RATIOS, 0.25)
        refusal = "ln x outside evaluable range [-0.25, 0.25]"
        with pytest.raises(DomainError, match=re.escape(refusal)):
            f(2.0)
        with pytest.raises(DomainError, match=re.escape("abscissa outside evaluable range [-0.25")):
            lift_to_log(f)(0.5)
