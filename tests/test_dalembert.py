import math
import tracemalloc

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import brute_identities, brute_sup_defect
from reccost import (
    LOG_LINE,
    POSITIVE_RATIOS,
    DomainError,
    FamilySpec,
    analytic,
    defect_log,
    defect_ratio,
    identity_report,
    lift_to_log,
    make_family,
    ode_residual,
    parse_family_spec,
    sample_table,
    sup_defect,
)
from reccost import dalembert
from reccost.dalembert import _BLOCK_ELEMS, _row_blocks, _sweep, defect_grid
from reccost.grids import symmetric_grid

COSH_LOG = make_family(FamilySpec("cosh-lambda"), domain=LOG_LINE)
QUADLOG_LOG = make_family(FamilySpec("quadlog"), domain=LOG_LINE)


def cosh_sin5():
    return analytic(
        LOG_LINE,
        "cosh+1e-3*sin(5t)",
        (lambda t: np.cosh(t) + 1e-3 * np.sin(5.0 * t),),
        support=(-700.0, 700.0),
    )


class TestDefectLog:
    def test_exact_solution(self):
        assert abs(defect_log(COSH_LOG, 1.3, 0.4)) <= 1e-12 * math.cosh(1.7)

    def test_quadlog_closed_form(self):
        h = lift_to_log(make_family(FamilySpec("quadlog")))
        assert abs(defect_log(h, 1.0, 1.0) - (-0.5)) <= 1e-12

    def test_cos_solution(self):
        # product-to-sum: cos(t+u) + cos(t-u) - 2 cos t cos u = 0 identically
        h = make_family(FamilySpec("cos-k", {"k": 1.0}))
        assert abs(defect_log(h, 0.7, 0.2)) <= 1e-14

    def test_domain_error_outside_table(self):
        ts = np.linspace(-1, 1, 21)
        from reccost import sample_table

        h = sample_table(LOG_LINE, ts, np.cosh(ts))
        with pytest.raises(DomainError):
            defect_log(h, 0.8, 0.5)  # t+u = 1.3 outside

    def test_rejects_ratio_handle(self):
        with pytest.raises(DomainError):
            defect_log(make_family(FamilySpec("quadlog")), 1.0, 1.0)


class TestDefectRatio:
    def test_canonical_cost_solves_law(self):
        f = make_family(FamilySpec("cosh-lambda", {"lambda": 1.0}))
        assert abs(defect_ratio(f, 2.0, 3.0)) <= 1e-12

    def test_y_equal_one_is_exact(self):
        f = make_family(FamilySpec("cosh-lambda", {"lambda": 1.0}))
        assert defect_ratio(f, 5.0, 1.0) == 0.0

    def test_quadlog_counterexample(self):
        f = make_family(FamilySpec("quadlog"))
        assert abs(defect_ratio(f, math.e, math.e) - (-0.5)) <= 1e-12

    def test_rejects_log_handle(self):
        with pytest.raises(DomainError):
            defect_ratio(COSH_LOG, 2.0, 3.0)


class TestLift:
    def test_canonical_cost(self):
        h = lift_to_log(make_family(FamilySpec("cosh-lambda", {"lambda": 1.0})))
        assert h(0.0) == 1.0
        assert abs(h(1.0) - math.cosh(1.0)) <= 1e-14

    def test_family_member(self):
        h = lift_to_log(make_family(FamilySpec("cosh-lambda", {"lambda": 2.0})))
        assert abs(h(0.5) - math.cosh(1.0)) <= 1e-14

    def test_quadlog(self):
        h = lift_to_log(make_family(FamilySpec("quadlog")))
        assert abs(h(2.0) - 3.0) <= 1e-13


class TestSupDefect:
    def test_exact_solution_small(self):
        rep = sup_defect(COSH_LOG, 3.0, 0.05)
        assert rep.epsilon <= 1e-10 * math.cosh(6.0)
        assert rep.count == 121**2
        assert abs(rep.step - 0.05) <= 1e-12

    def test_quadlog_grid_max(self):
        rep = sup_defect(QUADLOG_LOG, 2.0, 0.1)
        assert rep.epsilon == 8.0
        assert (rep.argmax.t, rep.argmax.u) == (-2.0, -2.0)
        assert rep.argmax.delta == -8.0
        assert rep.count == 41**2

    def test_perturbed_fixture_against_brute_force(self):
        h = cosh_sin5()
        rep = sup_defect(h, 2.0, 0.05)
        assert 0.0 < rep.epsilon <= 2e-2
        _, axis = symmetric_grid(2.0, 0.05)
        eps_oracle, arg_oracle = brute_sup_defect(lambda t: h(t), axis)
        assert abs(rep.epsilon - eps_oracle) <= 1e-13 * (1.0 + eps_oracle)
        assert (rep.argmax.t, rep.argmax.u) == arg_oracle

    def test_exact_cosh_near_origin_is_free_of_cancellation(self):
        # in G = H - 1 the defect of cosh stays far below the 2.2e-16 spacing of doubles at 1
        rep = sup_defect(COSH_LOG, 0.1, 0.001)
        assert rep.count == 201**2
        assert rep.epsilon <= 1e-16

    def test_grid_preconditions(self):
        with pytest.raises(DomainError):
            sup_defect(COSH_LOG, -1.0, 0.1)
        with pytest.raises(DomainError):
            sup_defect(COSH_LOG, 1.0, 2.0)

    def test_node_cap(self):
        assert symmetric_grid(1.0, 2.0**-16)[1].size == 2**17 + 1
        with pytest.raises(DomainError, match="needs over 65536 intervals"):
            symmetric_grid(1.0, 1.0 / (2**16 + 1))
        # the sweeps tile [-2T, 2T] at the same step, so they stop at 2^15 intervals on [0, T]
        with pytest.raises(DomainError, match="needs over 65536 intervals"):
            sup_defect(COSH_LOG, 1.0, 1.0 / (2**15 + 1))
        with pytest.raises(DomainError, match="needs over 65536 intervals"):
            identity_report(COSH_LOG, 1.0, 1.0 / (2**15 + 1))

    def test_needs_double_window(self):
        ts = np.linspace(-2, 2, 81)
        from reccost import sample_table

        h = sample_table(LOG_LINE, ts, np.cosh(ts))
        with pytest.raises(DomainError):
            sup_defect(h, 1.5, 0.1)  # needs [-3, 3]


class TestNodeSweep:
    """Both sweeps read G(t), G(t+u), G(t-u), G(2t), G(-t) from G on the nodes of [-2T, 2T]."""

    @pytest.mark.parametrize("h", [cosh_sin5(), QUADLOG_LOG], ids=lambda h: h.name)
    def test_identities_against_scalar_loops(self, h):
        rep = identity_report(h, 1.0, 0.1)
        _, axis = symmetric_grid(1.0, 0.1)
        oracle = brute_identities(lambda t: h(t), axis)
        fields = (rep.product_identity, rep.difference_square, rep.double_angle, rep.evenness)
        for got, want in zip(fields, oracle):
            assert abs(got - want) <= 1e-13 * (1.0 + want)

    def test_nodes_stay_inside_an_exact_support(self):
        # (T/m) m > T here, so multiples k (T/m) up to 2m would leave [-6, 6]
        T, m = 3.0, 187
        assert 2 * m * (T / m) > 2.0 * T
        ts = np.linspace(-6.0, 6.0, 1201)
        table = sample_table(LOG_LINE, ts, np.cosh(ts))
        rep = sup_defect(table, T, T / m)
        assert rep.count == (2 * m + 1) ** 2 and rep.epsilon <= 1e-6
        assert identity_report(table, T, T / m).evenness <= 1e-12
        # the axis ends are exactly +-T, so the corner defect -t^2 u^2 / 2 of quadlog is exact
        assert sup_defect(QUADLOG_LOG, T, T / m).epsilon == T**4 / 2

    def test_one_evaluation_per_sweep(self):
        sizes = []

        def counted_cosh(t):
            sizes.append(np.size(t))
            return np.cosh(t)

        h = analytic(LOG_LINE, "counted cosh", (counted_cosh,), support=(-700.0, 700.0))
        n = symmetric_grid(1.0, 0.1)[1].size
        sup_defect(h, 1.0, 0.1)
        assert sizes == [2 * n - 1]
        identity_report(h, 1.0, 0.1)
        assert sizes == [2 * n - 1] * 2


def full_tables(h, T, step):
    """sup_defect's (epsilon, t, u, delta) and identity_report's four fields, each reduced over
    whole n x n tables by one expression, with the sweeps' operation order."""
    _, axis, nodes, g, _, _ = _sweep(h, T, step, "full tables", whole=True)
    n = axis.size
    sums, diffs = sliding_window_view(nodes, n), sliding_window_view(nodes[::-1], n)[::-1]
    gt = g[:, None]
    delta = (sums + diffs) - ((2.0 * gt * g + 2.0 * gt) + 2.0 * g)
    i, j = divmod(int(np.argmax(np.abs(delta))), axis.size)
    q = g * (g + 2.0)
    product = sums * diffs + (sums + diffs) - q[:, None] - q
    square = (sums - diffs) * (sums - diffs) - np.outer(4.0 * q, q)
    violations = (product, square, nodes[::2] - 2.0 * q, g[::-1] - g)
    return ((abs(delta[i, j]), axis[i], axis[j], delta[i, j]),
            tuple(float(np.max(np.abs(v))) for v in violations))


def width(h, T, step):
    """The width of the tables the sweeps reduce: the quadrant's m + 1, or n."""
    return _sweep(h, T, step, "test")[4]


def fields(h, T, step):
    """The same fields from sup_defect and identity_report."""
    rep, ids = sup_defect(h, T, step), identity_report(h, T, step)
    return ((rep.epsilon, rep.argmax.t, rep.argmax.u, rep.argmax.delta),
            (ids.product_identity, ids.difference_square, ids.double_angle, ids.evenness))


def assert_same(got, want):
    """== on every field of fields() and full_tables(), where a NaN matches only a NaN."""
    for g, w in zip(got[0] + got[1], want[0] + want[1]):
        assert g == w or (math.isnan(g) and math.isnan(w)), (got, want)


class TestRowBlocks:
    """Sweeps larger than one row block equal reductions over the whole n x n matrix."""

    T, STEP = 2.0, 0.005  # n = 801: a whole table is nine blocks of 81 rows and a tenth of 72

    def test_grid_spans_several_blocks_and_a_partial_one(self):
        n = symmetric_grid(self.T, self.STEP)[1].size
        rows = _BLOCK_ELEMS // n
        assert n == 801 and n // rows >= 2 and n % rows != 0

    @pytest.mark.parametrize("h", [cosh_sin5(), QUADLOG_LOG], ids=lambda h: h.name)
    def test_equal_to_full_matrix_reductions(self, h):
        _, axis, delta = defect_grid(h, self.T, self.STEP)
        i, j = divmod(int(np.argmax(np.abs(delta))), axis.size)
        rep = sup_defect(h, self.T, self.STEP)
        assert rep.epsilon == abs(delta[i, j])
        assert (rep.argmax.t, rep.argmax.u, rep.argmax.delta) == (axis[i], axis[j], delta[i, j])
        ids = identity_report(h, self.T, self.STEP)
        full = full_tables(h, self.T, self.STEP)[1]
        assert (ids.product_identity, ids.difference_square) == full[:2]

    def test_tie_across_blocks_resolves_to_the_earlier_row(self):
        # quadlog's corner defect -T^4/2 is attained in the first and the last row; a bump at
        # G(0.5), away from the corners, makes the sweep take the whole table
        def bumped(t):
            return 1.0 + 0.5 * t * t + np.where(np.abs(t - 0.5) < 1e-9, 1e-9, 0.0)

        h = analytic(LOG_LINE, "quadlog bumped at 0.5", (bumped,))
        assert width(h, self.T, self.STEP) == 801
        _, axis, delta = defect_grid(h, self.T, self.STEP)
        assert delta[0, 0] == delta[-1, -1] == -self.T**4 / 2
        rep = sup_defect(h, self.T, self.STEP)
        assert (rep.argmax.t, rep.argmax.u, rep.epsilon) == (-self.T, -self.T, self.T**4 / 2)

    def test_nan_node_propagates(self):
        # G(3) first enters the sweep at t = 1 (row 600, the eighth block), after finite blocks
        def poisoned(t):
            return np.where(np.abs(t - 3.0) < 1e-3, np.nan, np.cosh(t) + 1e-3 * np.sin(5.0 * t))

        h = analytic(LOG_LINE, "cosh+sin with NaN at 3", (poisoned,), support=(-700.0, 700.0))
        _, axis, delta = defect_grid(h, self.T, self.STEP)
        i, j = divmod(int(np.argmax(np.abs(delta))), axis.size)
        assert i == 600 and np.isfinite(delta[:i]).all()
        rep = sup_defect(h, self.T, self.STEP)
        assert math.isnan(rep.epsilon) and math.isnan(rep.argmax.delta)
        assert (rep.argmax.t, rep.argmax.u) == (axis[i], axis[j])
        ids = identity_report(h, self.T, self.STEP)
        assert math.isnan(ids.product_identity) and math.isnan(ids.difference_square)

    @pytest.mark.parametrize("sweep", [sup_defect, identity_report], ids=lambda f: f.__name__)
    def test_fine_grid_peak_memory(self, sweep):
        # at T = 2, step 0.001 one n x n float64 table is 122 MB (2^20 bytes)
        own = not tracemalloc.is_tracing()
        if own:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            sweep(COSH_LOG, 2.0, 0.001)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if own:
                tracemalloc.stop()
        assert peak < 50 * 2**20


EVEN_SPECS = st.one_of(
    st.floats(0.5, 2.0).map(lambda lam: f"cosh-lambda,lambda={lam!r}"),
    st.floats(0.3, 3.0).map(lambda k: f"cos-k,k={k!r}"),
    st.sampled_from(["quadlog", "constant-one"]),
    st.builds(lambda mode, amp, freq, seed: (f"noisy-cosh,mode={mode},amplitude={amp!r},"
                                             f"freq={freq!r},seed={seed}"),
              st.sampled_from(["sine", "trig", "poly4"]), st.floats(1e-5, 1e-2),
              st.floats(1.0, 8.0), st.integers(0, 1000)),
)


class TestMirrorFold:
    """On bitwise even handles both sweeps reduce the quadrant t, u <= 0 of the tables, with the
    results of the whole tables; any other handle reduces the whole tables."""

    @given(EVEN_SPECS, st.floats(0.5, 3.0), st.integers(1, 40))
    def test_even_families_equal_full_tables(self, spec, T, m):
        h = make_family(parse_family_spec(spec), domain=LOG_LINE)
        assert width(h, T, T / m) == m + 1  # the folded sweep
        assert_same(fields(h, T, T / m), full_tables(h, T, T / m))

    def test_several_blocks_of_the_quadrant(self, monkeypatch):
        # n = 801, so the 401-wide quadrant takes two blocks of 163 rows and a third of 75
        T, step = 2.0, 0.005
        assert list(_row_blocks(401)) == [slice(0, 163), slice(163, 326), slice(326, 401)]
        widths = []  # of the tables each sweep reduces
        monkeypatch.setattr(dalembert, "_row_blocks", lambda w: widths.append(w) or _row_blocks(w))
        trig = make_family(parse_family_spec("noisy-cosh,mode=trig"), domain=LOG_LINE)
        for h in (COSH_LOG, trig):
            got = fields(h, T, step)
            assert widths == [401, 401]  # sup_defect's and identity_report's quadrants
            assert got == full_tables(h, T, step)
            widths.clear()

    def test_max_at_the_origin(self):
        # G(0) = 1 makes |Delta| = 4 at (0, 0) alone: the quadrant includes its t = 0 row and column
        h = analytic(LOG_LINE, "1 + bump", (lambda t: 2.0 + np.expm1(-(t * t) / 0.01),))
        assert width(h, 1.0, 0.05) == 21
        got = fields(h, 1.0, 0.05)
        assert got == full_tables(h, 1.0, 0.05)
        assert got[0] == (4.0, 0.0, 0.0, -4.0)

    def test_constant_one_ties_at_the_first_corner(self):
        rep = sup_defect(make_family(FamilySpec("constant-one")), 1.5, 0.1)
        assert (rep.epsilon, rep.argmax.t, rep.argmax.u, rep.argmax.delta) == (0.0, -1.5, -1.5, 0.0)

    @pytest.mark.parametrize("h", [
        make_family(FamilySpec("powerlaw-w", {"lambda": 1.5}), domain=LOG_LINE),
        sample_table(LOG_LINE, np.linspace(-2.2, 2.2, 441), np.cosh(np.linspace(-2.2, 2.2, 441))),
    ], ids=lambda h: h.name)
    def test_other_handles_take_the_whole_table(self, h):
        assert width(h, 1.0, 0.05) == 41
        assert fields(h, 1.0, 0.05) == full_tables(h, 1.0, 0.05)

    def test_one_uneven_node_falls_back(self):
        # G(1.5) alone is bumped: it enters only at t + u = 1.5 and t - u = 1.5, both with t > 0,
        # so a folded sweep would miss it; the first such pair in row-major order is (0.5, -1)
        def bumped(t):
            return np.cosh(t) + np.where(np.abs(t - 1.5) < 1e-9, 1e-3, 0.0)

        h = analytic(LOG_LINE, "cosh bumped at 1.5", (bumped,), support=(-700.0, 700.0))
        assert width(h, 1.0, 0.1) == 21
        got, want = fields(h, 1.0, 0.1), full_tables(h, 1.0, 0.1)
        assert got == want
        assert got[0][1:3] == (0.5, -1.0) and got[0][0] > 9e-4 and got[1][0] > 9e-4

    @pytest.mark.parametrize("T, fns", [
        (400.0, (np.cosh,)),  # G(800) = inf and 2 G(t) G(u) = inf: NaN at the corners
        (2.0, (lambda t: 1.0 + 1e300 * ((t * t) * (t * t)),)),  # 2 G(t) G(u) = inf: Delta = -inf
    ], ids=["nan", "inf"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow(self, T, fns):
        h = analytic(LOG_LINE, "overflowing", fns)
        assert width(h, T, T / 10) == 11
        got, want = fields(h, T, T / 10), full_tables(h, T, T / 10)
        assert not math.isfinite(got[0][0])
        assert_same(got, want)

    def test_defect_grid_keeps_the_whole_table(self):
        _, axis, delta = defect_grid(COSH_LOG, 1.0, 0.1)
        assert delta.shape == (21, 21) and axis.size == 21


class TestDefectGrid:
    def test_matches_pointwise_defect(self):
        h = cosh_sin5()
        step, axis, delta = defect_grid(h, 1.0, 0.25)
        assert step == 0.25 and delta.shape == (axis.size, axis.size)
        for i, t in enumerate(axis):
            for j, u in enumerate(axis):
                assert abs(delta[i, j] - defect_log(h, float(t), float(u))) <= 1e-14

    def test_supremum_is_grid_max(self):
        step, axis, delta = defect_grid(QUADLOG_LOG, 2.0, 0.1)
        assert float(np.max(np.abs(delta))) == sup_defect(QUADLOG_LOG, 2.0, 0.1).epsilon

    def test_rejects_ratio_handle(self):
        with pytest.raises(DomainError):
            defect_grid(make_family(FamilySpec("quadlog")), 1.0, 0.1)


class TestIdentityReport:
    def test_exact_solution(self):
        rep = identity_report(COSH_LOG, 2.0, 0.1)
        assert rep.product_identity <= 1e-10
        assert rep.difference_square <= 1e-10
        assert rep.double_angle <= 1e-10
        assert rep.evenness <= 1e-10

    def test_product_identity_spot_value(self):
        lhs = math.cosh(1.5) * math.cosh(0.5)
        rhs = math.cosh(1.0) ** 2 + math.cosh(0.5) ** 2 - 1.0
        assert abs(lhs - rhs) <= 1e-13
        assert abs(lhs - 2.6527) <= 1e-4

    def test_quadlog_violates_product_identity(self):
        rep = identity_report(QUADLOG_LOG, 1.0, 0.5)
        assert rep.product_identity > 0.01

    def test_vanishing_iff_defect_vanishes(self):
        # exact solutions satisfy all four identities; non-solutions break
        # both the equation and at least one identity.  The zero solution is
        # excluded: it solves the equation but the identities presuppose
        # H(0) = 1.
        fixtures = [
            make_family(FamilySpec("cosh-lambda", {"lambda": 0.5}), domain=LOG_LINE),
            make_family(FamilySpec("cosh-lambda", {"lambda": 2.0}), domain=LOG_LINE),
            make_family(FamilySpec("powerlaw-w", {"lambda": 1.5}), domain=LOG_LINE),
            make_family(FamilySpec("cos-k", {"k": 1.0})),
            make_family(FamilySpec("constant-one")),
            QUADLOG_LOG,
            make_family(FamilySpec("noisy-cosh", {"amplitude": 1e-3}), domain=LOG_LINE),
            cosh_sin5(),
        ]
        for h in fixtures:
            rep = sup_defect(h, 2.0, 0.1)
            ids = identity_report(h, 2.0, 0.1)
            _, axis = symmetric_grid(2.0, 0.1)
            scale = 1.0 + float(np.max(np.abs(h(2.0 * axis)))) ** 2
            defect_ok = rep.epsilon <= 1e-10 * scale
            ids_ok = (
                max(ids.product_identity, ids.difference_square, ids.double_angle, ids.evenness)
                <= 1e-10 * scale
            )
            assert defect_ok == ids_ok, h.name


class TestInvariants:
    RATIO_FIXTURES = [
        make_family(FamilySpec("cosh-lambda", {"lambda": 0.5})),
        make_family(FamilySpec("cosh-lambda", {"lambda": 1.0})),
        make_family(FamilySpec("cosh-lambda", {"lambda": 2.0})),
        make_family(FamilySpec("powerlaw-w", {"lambda": 0.5})),
        make_family(FamilySpec("powerlaw-w", {"lambda": 2.0})),
        make_family(FamilySpec("quadlog")),
        make_family(FamilySpec("cos-k", {"k": 1.0}), domain=POSITIVE_RATIOS),
        make_family(FamilySpec("constant-one"), domain=POSITIVE_RATIOS),
        make_family(FamilySpec("zero"), domain=POSITIVE_RATIOS),
        make_family(FamilySpec("noisy-cosh", {"amplitude": 1e-3}), domain=POSITIVE_RATIOS),
    ]

    def test_lift_consistency(self, rng):
        pts = rng.uniform(-2.0, 2.0, size=(1000, 2))
        for f in self.RATIO_FIXTURES:
            h = lift_to_log(f)
            for t, u in pts[:100]:
                t, u = float(t), float(u)
                d_log = defect_log(h, t, u)
                d_ratio = defect_ratio(f, math.exp(t), math.exp(u))
                assert abs(d_log - d_ratio) <= 1e-10 * (1.0 + abs(d_log)), f.name

    def test_lift_consistency_bulk_canonical(self, rng):
        # full 10^3-point sweep on the canonical member
        f = make_family(FamilySpec("cosh-lambda", {"lambda": 1.0}))
        h = lift_to_log(f)
        for t, u in rng.uniform(-2.0, 2.0, size=(1000, 2)):
            t, u = float(t), float(u)
            d_log = defect_log(h, t, u)
            d_ratio = defect_ratio(f, math.exp(t), math.exp(u))
            assert abs(d_log - d_ratio) <= 1e-10 * (1.0 + abs(d_log))

    def test_reciprocity_forced_on_solutions(self):
        xs = np.exp(np.linspace(-2.0, 2.0, 81))
        for f in self.RATIO_FIXTURES:
            h = lift_to_log(f)
            eps = sup_defect(h, 2.0, 0.25).epsilon
            if eps > 1e-10 or abs(f(1.0)) > 1e-14:
                continue  # premise fails (e.g. quadlog, noisy-cosh)
            recip = float(np.max(np.abs(f(xs) - f(1.0 / xs))))
            assert recip <= 1e-10, f.name

    def test_reciprocity_premise_filter_excludes_quadlog(self):
        f = make_family(FamilySpec("quadlog"))
        eps = sup_defect(lift_to_log(f), 2.0, 0.25).epsilon
        assert f(1.0) == 0.0 and eps > 1e-10

    @given(
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(min_value=-2.0, max_value=2.0),
    )
    def test_defect_symmetry_for_even_handles(self, t, u):
        for h in (COSH_LOG, QUADLOG_LOG):
            d1 = defect_log(h, t, u)
            d2 = defect_log(h, t, -u)
            assert abs(d1 - d2) <= 1e-12 * (1.0 + abs(d1))

    def test_zero_solution_branch(self):
        z = make_family(FamilySpec("zero"))
        assert z(0.0) == 0.0
        rep = sup_defect(z, 2.0, 0.1)
        assert rep.epsilon == 0.0
        _, axis = symmetric_grid(2.0, 0.1)
        assert float(np.max(np.abs(z(axis)))) == 0.0


class TestOdeResidual:
    def test_cosh_unit_curvature(self):
        assert ode_residual(COSH_LOG, 1.0, 2.0, 0.05, 1e-4) <= 1e-6

    def test_cos_two(self):
        h = make_family(FamilySpec("cos-k", {"k": 2.0}))
        assert ode_residual(h, -4.0, 2.0, 0.05, 1e-4) <= 1e-6

    def test_wrong_coefficient_detected(self):
        assert ode_residual(COSH_LOG, 2.0, 2.0, 0.05, 1e-4) >= 0.9

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            ode_residual(COSH_LOG, 1.0, 2.0, 0.05, 0.0)
        with pytest.raises(DomainError):
            ode_residual(COSH_LOG, math.nan, 2.0, 0.05, 1e-4)
