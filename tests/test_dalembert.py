import contextlib
import math
import os
import re
import subprocess
import sys
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
    RangeOverflowError,
    analytic,
    defect_log,
    defect_ratio,
    identity_report,
    lift_to_log,
    make_family,
    parse_family_spec,
    sample_table,
    sup_defect,
)
from reccost import dalembert
from reccost.dalembert import _BLOCK_ELEMS, _blocks, _scored, _sweep, defect_grid
from reccost.grids import symmetric_grid
from reccost.handles import from_excess

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


def table_expressions(nodes, g):
    """The whole n x n tables of Delta and of the product and difference-square violations from
    G on the 2n - 1 nodes and on the axis, by broadcast expressions with the sweeps' operation
    order."""
    n = g.size
    sums, diffs = sliding_window_view(nodes, n), sliding_window_view(nodes[::-1], n)[::-1]
    gt = g[:, None]
    delta = (sums + diffs) - ((2.0 * gt) * g + (2.0 * gt + 2.0 * g))
    q = g * (g + 2.0)
    product = sums * diffs + (sums + diffs) - (q[:, None] + q)
    square = (sums - diffs) * (sums - diffs) - 4.0 * np.outer(q, q)
    return delta, product, square


def full_tables(h, T, step):
    """sup_defect's (epsilon, t, u, delta) and identity_report's four fields, each reduced over
    whole n x n tables by one expression, with the sweeps' operation order."""
    _, axis, nodes, g = _sweep(h, T, step, "full tables")
    delta, product, square = table_expressions(nodes, g)
    i, j = divmod(int(np.argmax(np.abs(delta))), axis.size)
    q = g * (g + 2.0)
    violations = (product, square, nodes[::2] - 2.0 * q, g[::-1] - g)
    return ((abs(delta[i, j]), axis[i], axis[j], delta[i, j]),
            tuple(float(np.max(np.abs(v))) for v in violations))


def path(h, T, step):
    """The reduction sup_defect takes: "fold" (the triangle of G's own tables) where the even
    part E is G, else "even part" (E's triangle, then G on the images of what it cannot rule out)
    or "whole table".  It is taken before any overflow is refused."""
    taken, even_part = [], dalembert._even_part
    with pytest.MonkeyPatch.context() as mp, contextlib.suppress(RangeOverflowError):
        mp.setattr(dalembert, "_even_part", lambda *a: taken.append(even_part(*a)) or taken[-1])
        sup_defect(h, T, step)
    return "fold" if not taken else "whole table" if taken[0] is None else "even part"


def defect_fields(h, T, step):
    rep = sup_defect(h, T, step)
    return rep.epsilon, rep.argmax.t, rep.argmax.u, rep.argmax.delta


def identity_fields(h, T, step):
    ids = identity_report(h, T, step)
    return ids.product_identity, ids.difference_square, ids.double_angle, ids.evenness


def fields(h, T, step):
    """The same fields from sup_defect and identity_report."""
    return defect_fields(h, T, step), identity_fields(h, T, step)


def assert_same(got, want):
    """== on every field of fields() and full_tables(), where a NaN matches only a NaN."""
    for g, w in zip(got[0] + got[1], want[0] + want[1]):
        assert g == w or (math.isnan(g) and math.isnan(w)), (got, want)


def assert_same_or_refused(h, T, step):
    """Each sweep refuses by name exactly where no node of G is NaN but a field of
    full_tables' for that sweep is not finite; otherwise its fields equal full_tables'.  Returns
    the names of the sweeps that refused."""
    want, refused = full_tables(h, T, step), []
    no_nan = not np.isnan(_sweep(h, T, step, "nodes")[2]).any()
    for sweep, read, expected in ((sup_defect, defect_fields, want[0]),
                                  (identity_report, identity_fields, want[1])):
        if no_nan and not all(map(math.isfinite, expected)):
            prefix = f"{h.name}: {sweep.__name__}, with max |G| = "
            with pytest.raises(RangeOverflowError, match="^" + re.escape(prefix) +
                               ".*, which overflows double precision$"):
                sweep(h, T, step)
            refused.append(sweep.__name__)
        else:
            assert_same((read(h, T, step), ()), (expected, ()))
    return refused


class TestIdentityOverflow:
    """identity_report, and sup_defect too, refuse where no node of G on [-2T, 2T] is NaN but
    the violations or the defect are not finite; identity_report answers NaN fields where a node
    of G is NaN."""

    @pytest.mark.parametrize("sweep, spec, T, message", [
        (identity_report, "cosh-lambda,lambda=100", 3.0, "cosh-lambda(100): identity_report, "
         "with max |G| = 1.8865101504649698e+260 on [-2T, 2T] = [-6, 6], is nan, which "
         "overflows double precision"),
        (identity_report, "powerlaw-w,lambda=170", 2.0, "powerlaw-w(170): identity_report, "
         "with max |G| = 1.045244036805178e+295 on [-2T, 2T] = [-4, 4], is nan, which "
         "overflows double precision"),
        # 2 G(t) G(u) overflows: there is no epsilon to report
        (sup_defect, "noisy-cosh,amplitude=1e300", 2.0, "noisy-cosh(1,sine,1e+300): sup_defect, "
         "with max |G| = 1.8390715290764525e+300 on [-2T, 2T] = [-4, 4], is inf, which "
         "overflows double precision"),
    ], ids=["cosh-lambda", "powerlaw-w", "sup-defect-noisy-cosh"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_finite_g_whose_violations_overflow_is_refused(self, sweep, spec, T, message):
        h = make_family(parse_family_spec(spec), domain=LOG_LINE)
        with pytest.raises(RangeOverflowError) as info:
            sweep(h, T, 0.5)
        assert str(info.value) == message

    @pytest.mark.parametrize("defect, domain, z, message", [
        (defect_log, LOG_LINE, (1.0, 1.0), "defect_log, with max |G| = 1.8390715290764525e+300, "
         "is -inf, which overflows double precision"),
        (defect_ratio, POSITIVE_RATIOS, (2.0, 3.0), "defect_ratio, with max |G| = "
         "1.9479239466377266e+300, is -inf, which overflows double precision"),
    ], ids=["log", "ratio"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_pointwise_defect_refuses_by_the_sweeps_rule(self, defect, domain, z, message):
        # all four G values are finite; 2 G(t) G(u) is not
        h = make_family(parse_family_spec("noisy-cosh,amplitude=1e300"), domain)
        with pytest.raises(RangeOverflowError) as info:
            defect(h, *z)
        assert str(info.value) == "noisy-cosh(1,sine,1e+300): " + message

    @pytest.mark.parametrize("defect, domain, z", [(defect_log, LOG_LINE, (1.0, 1.0)),
                                                   (defect_ratio, POSITIVE_RATIOS, (8.0, 8.0))],
                             ids=["log", "ratio"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_pointwise_defect_of_nan_g_stays_nan(self, defect, domain, z):
        # G(t + u) = a (1 - cos(inf)) is NaN: the CLI's finite-answer check refuses it
        h = make_family(parse_family_spec("noisy-cosh,freq=1e308"), domain)
        assert math.isnan(defect(h, *z))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_nodes_give_nan_fields(self):
        h = make_family(parse_family_spec("noisy-cosh,freq=1e308"), domain=LOG_LINE)
        assert all(map(math.isnan, vars(identity_report(h, 2.0, 0.05)).values()))


class TestRowBlocks:
    """Sweeps larger than one row block equal reductions over the whole n x n matrix."""

    T, STEP = 2.0, 0.005  # n = 801: a whole table is 29 blocks of 27 rows and a 30th of 18

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

    def test_difference_rows_run_forward(self):
        # G(t - u) is read from a reversed copy of the nodes, so a block's rows copy and add at
        # forward stride: on the whole-table path (an exact-cosh table of 8001 rows, T = 2, step
        # 0.001), staging both windows from reversed rows cost sup_defect and identity_report
        # 1.06x and 1.09x what reading the window views directly cost, and from forward rows
        # 1.02x and 1.05x
        nodes = np.random.default_rng(3).standard_normal(2 * 7 - 1)
        diffs = dalembert._tables(nodes, 7)[1]
        assert diffs.strides[1] > 0
        assert np.array_equal(diffs, sliding_window_view(nodes[::-1], 7)[::-1])

    def test_tie_across_blocks_resolves_to_the_earlier_row(self):
        # quadlog's corner defect -T^4/2 is attained in the first and the last row; a bump at
        # G(0.5), away from the corners, makes G uneven, so the sweep reduces its even part and
        # scores G on the images of the corners, which lie in both rows
        def bumped(t):
            return 1.0 + 0.5 * t * t + np.where(np.abs(t - 0.5) < 1e-9, 1e-9, 0.0)

        h = analytic(LOG_LINE, "quadlog bumped at 0.5", (bumped,))
        assert path(h, self.T, self.STEP) == "even part"
        _, axis, delta = defect_grid(h, self.T, self.STEP)
        assert delta[0, 0] == delta[-1, -1] == -self.T**4 / 2
        rep = sup_defect(h, self.T, self.STEP)
        assert (rep.argmax.t, rep.argmax.u, rep.epsilon) == (-self.T, -self.T, self.T**4 / 2)

    def test_nan_node_propagates(self):
        # G(3) first enters the sweep at t = 1 (row 600, the 16th block), after finite blocks
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
    def test_fine_grid_peak_memory(self, sweep, monkeypatch):
        # at T = 2, step 0.001 one n x n float64 table is 122 MB (2^20 bytes); the whole sweep
        # runs in this process (test_sweep_helper bounds the helper's share)
        monkeypatch.setattr(dalembert, "_HELPER_MIN_PAIRS", math.inf)
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
        # three block buffers sharing 512 KB, and O(n) vectors and factors, n = 4001: 0.84 MiB
        # traced for sup_defect, 0.87 MiB for identity_report
        assert peak < 2**20


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
    """On bitwise even handles both sweeps reduce the triangle j >= i of the quadrant t, u <= 0
    of the tables, with the results of the whole tables; any other handle reduces that triangle
    of its even part's tables first (TestEvenPart)."""

    @given(EVEN_SPECS, st.floats(0.5, 3.0), st.integers(1, 40))
    def test_even_families_equal_full_tables(self, spec, T, m):
        h = make_family(parse_family_spec(spec), domain=LOG_LINE)
        assert path(h, T, T / m) == "fold"
        assert_same(fields(h, T, T / m), full_tables(h, T, T / m))

    @given(EVEN_SPECS, st.floats(0.5, 3.0), st.integers(1, 40), st.integers(1, 400))
    def test_even_families_are_symmetric_in_t_and_u(self, spec, T, m, block):
        # any block size: each block's spill below the diagonal mirrors earlier pairs of its own
        h = make_family(parse_family_spec(spec), domain=LOG_LINE)
        _, _, delta = defect_grid(h, T, T / m)
        assert np.array_equal(delta.view(np.uint64), delta.T.view(np.uint64))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dalembert, "_BLOCK_ELEMS", block)
            assert_same(fields(h, T, T / m), full_tables(h, T, T / m))

    def test_several_blocks_of_the_quadrant(self, monkeypatch):
        # n = 801: the 401-wide quadrant's triangle takes 54 whole rows, then blocks from the
        # diagonal on, of 62, 76, 104 and the last 105 rows (105^2 fits one block)
        T, step = 2.0, 0.005
        assert list(_blocks(401, True)) == [(slice(0, 54), slice(0, 401)),
                                            (slice(54, 116), slice(54, 401)),
                                            (slice(116, 192), slice(116, 401)),
                                            (slice(192, 296), slice(192, 401)),
                                            (slice(296, 401), slice(296, 401))]
        tables = []  # (width, triangle) of the tables each sweep reduces
        monkeypatch.setattr(dalembert, "_blocks",
                            lambda w, tri: tables.append((w, tri)) or _blocks(w, tri))
        trig = make_family(parse_family_spec("noisy-cosh,mode=trig"), domain=LOG_LINE)
        for h in (COSH_LOG, trig):
            got = fields(h, T, step)
            assert tables == [(401, True)] * 2  # sup_defect's and identity_report's triangles
            assert got == full_tables(h, T, step)
            tables.clear()

    @pytest.mark.parametrize("h", [
        COSH_LOG,
        make_family(FamilySpec("constant-one")),  # all ties: the first corner
        analytic(LOG_LINE, "1 + bump", (lambda t: 2.0 + np.expm1(-(t * t) / 0.01),)),
        make_family(FamilySpec("powerlaw-w", {"lambda": 1.5}), domain=LOG_LINE),
    ], ids=lambda h: h.name)
    def test_rows_wider_than_a_block(self, h, monkeypatch):
        # 5 elements per block: every block is one row, of up to 21 or 41 elements, until the
        # triangle's last rows are 5 wide or less
        monkeypatch.setattr(dalembert, "_BLOCK_ELEMS", 5)
        tables = []  # (width, triangle) of every table the sweeps reduce
        monkeypatch.setattr(dalembert, "_blocks",
                            lambda w, tri: tables.append((w, tri)) or _blocks(w, tri))
        assert fields(h, 1.0, 0.05) == full_tables(h, 1.0, 0.05)
        blocks = [b for w, tri in tables for b in _blocks(w, tri)]
        assert all(r.stop - r.start == 1 for r, c in blocks if c.stop - c.start > 5)

    def test_even_sweeps_reduce_about_half_the_quadrant(self, monkeypatch):
        # T = 2, step 0.001: (m + 1)^2 = 2001^2 pairs in the quadrant, its triangle 2001 2002 / 2;
        # the pairs are counted in the score function each block calls, all in this process
        monkeypatch.setattr(dalembert, "_HELPER_MIN_PAIRS", math.inf)
        pairs = []
        kernel, scores = dalembert._kernel, dalembert._identity_scores
        monkeypatch.setattr(dalembert, "_kernel",
                            lambda gs, *a, **k: pairs.append(gs.size) or kernel(gs, *a, **k))
        sup_defect(COSH_LOG, 2.0, 0.001)
        assert 0.45 * 2001**2 <= sum(pairs) <= 0.55 * 2001**2
        pairs.clear()
        monkeypatch.setattr(dalembert, "_identity_scores",
                            lambda s, *a: pairs.append(s.size) or scores(s, *a))
        identity_report(COSH_LOG, 2.0, 0.001)
        assert 0.45 * 2001**2 <= sum(pairs) <= 0.55 * 2001**2

    def test_max_at_the_origin(self):
        # G(0) = 1 makes |Delta| = 4 at (0, 0) alone: the quadrant includes its t = 0 row and column
        h = analytic(LOG_LINE, "1 + bump", (lambda t: 2.0 + np.expm1(-(t * t) / 0.01),))
        assert path(h, 1.0, 0.05) == "fold"
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
        assert path(h, 1.0, 0.05) != "fold"
        assert fields(h, 1.0, 0.05) == full_tables(h, 1.0, 0.05)

    def test_one_uneven_node_falls_back(self):
        # G(1.5) alone is bumped: it enters only at t + u = 1.5 and t - u = 1.5, both with t > 0,
        # so a folded sweep would miss it; the first such pair in row-major order is (0.5, -1)
        def bumped(t):
            return np.cosh(t) + np.where(np.abs(t - 1.5) < 1e-9, 1e-3, 0.0)

        h = analytic(LOG_LINE, "cosh bumped at 1.5", (bumped,), support=(-700.0, 700.0))
        assert path(h, 1.0, 0.1) != "fold"
        got, want = fields(h, 1.0, 0.1), full_tables(h, 1.0, 0.1)
        assert got == want
        assert got[0][1:3] == (0.5, -1.0) and got[0][0] > 9e-4 and got[1][0] > 9e-4

    @pytest.mark.parametrize("T, fns, refused", [
        # G(800) = inf, and inf - inf is NaN at the corners: an infinite node is the handle's
        # own overflow, and no node is NaN, so both sweeps refuse it
        (400.0, (np.cosh,), ["sup_defect", "identity_report"]),
        # 2 G(t) G(u) = inf: Delta = -inf, and on finite G both sweeps refuse their overflow
        (2.0, (lambda t: 1.0 + 1e300 * ((t * t) * (t * t)),), ["sup_defect", "identity_report"]),
    ], ids=["nan", "inf"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow(self, T, fns, refused):
        h = analytic(LOG_LINE, "overflowing", fns)
        assert path(h, T, T / 10) == "fold"
        assert assert_same_or_refused(h, T, T / 10) == refused
        assert not all(map(math.isfinite, full_tables(h, T, T / 10)[0]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_doubling_takes_the_whole_table(self):
        # G(+-0.5) = 1.5e308, G = -0.5 elsewhere: (2 G(-0.5)) G(-1) = -inf makes Delta(-0.5, -1)
        # NaN, but (2 G(-1)) G(-0.5) is finite and Delta(-1, -0.5) = -inf, which the triangle
        # would report; no node of G is NaN, so both sweeps refuse
        h = analytic(LOG_LINE, "even, 2 G overflows",
                     (lambda t: np.where(np.abs(t) == 0.5, 1.5e308, 0.5),))
        _, _, delta = defect_grid(h, 1.0, 0.25)
        assert math.isnan(delta[2, 0]) and delta[0, 2] == -math.inf
        assert path(h, 1.0, 0.25) == "whole table"
        assert assert_same_or_refused(h, 1.0, 0.25) == ["sup_defect", "identity_report"]

    @pytest.mark.parametrize("h, T, step, taken, refused", [
        # bitwise even, but G = 1.5e308 beyond T: 2 G overflows off the axis only, and the
        # identities of that finite G overflow
        (analytic(LOG_LINE, "even, 2 G overflows beyond T",
                  (lambda t: np.where(np.abs(t) > 1.0, 1.5e308, np.cosh(t)),)),
         1.0, 0.1, "whole table", ["identity_report"]),
        # G = -0.0 on t < 0 and +0.0 on t >= 0 near the origin: mirrored zeros compare equal
        (from_excess(LOG_LINE, "signed zeros near 0", (lambda t: np.where(
            np.abs(t) < 0.5, np.copysign(0.0, t), 0.5 * t * t),), (-700.0, 700.0)),
         1.0, 0.1, "fold", []),
        # G(+-800) = inf: an infinite node is refused as an overflow
        (analytic(LOG_LINE, "cosh", (np.cosh,)), 400.0, 40.0, "fold",
         ["sup_defect", "identity_report"]),
        (analytic(LOG_LINE, "cosh with NaN at 1.5", (lambda t: np.where(
            np.abs(t - 1.5) < 1e-9, np.nan, np.cosh(t)),)), 1.0, 0.1, "whole table", []),
    ], ids=["2G-overflows-beyond-T", "signed-zeros", "even-infs", "nan-node"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_even_part_equal_to_g_is_the_one_criterion(self, h, T, step, taken, refused):
        # the sweeps fold exactly where E = (nodes + nodes[::-1]) / 2 equals G: G bitwise even
        # and 2 G finite wherever G is, since x + x overflows to inf != x and NaN != NaN
        assert path(h, T, step) == taken
        assert assert_same_or_refused(h, T, step) == refused

    def test_defect_grid_keeps_the_whole_table(self):
        _, axis, delta = defect_grid(COSH_LOG, 1.0, 0.1)
        assert delta.shape == (21, 21) and axis.size == 21


ODD = {"sin 3t": lambda t: np.sin(3.0 * t), "t^3": lambda t: t**3, "tanh": np.tanh}


@st.composite
def uneven(draw):
    """(h, T, m): a handle that is mostly not bitwise even, on the grid of [-T, T] with m
    intervals a side: an even family plus eta times an odd function or a one-node bump, a
    not-a-knot table on np.linspace nodes, a lifted positive-ratio table, or powerlaw-w."""
    T, m = draw(st.floats(0.5, 3.0)), draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["odd part", "bump", "table", "ratio table", "powerlaw-w"]))
    if kind == "powerlaw-w":
        return make_family(FamilySpec("powerlaw-w", {"lambda": draw(st.floats(0.3, 2.0))}),
                           domain=LOG_LINE), T, m
    spec = parse_family_spec(draw(EVEN_SPECS))
    if kind in ("table", "ratio table"):
        ts = np.linspace(-2.05 * T, 2.05 * T, draw(st.integers(50, 900)))
        if kind == "table":
            return sample_table(LOG_LINE, ts, make_family(spec, domain=LOG_LINE)(ts)), T, m
        f = make_family(spec, domain=POSITIVE_RATIOS)
        return lift_to_log(sample_table(POSITIVE_RATIOS, np.exp(ts), f(np.exp(ts)))), T, m
    base, eta = make_family(spec, domain=LOG_LINE), 10.0 ** draw(st.floats(-16.0, -2.0))
    if kind == "bump":  # G at the node t0 > 0 alone
        t0 = T * draw(st.integers(1, 2 * m)) / m
        odd = lambda t: np.where(np.abs(t - t0) < 1e-9 * T, 1.0, 0.0)  # noqa: E731
    else:
        odd = ODD[draw(st.sampled_from(sorted(ODD)))]
    return analytic(LOG_LINE, f"{base.name} + {eta!r} odd", (lambda t: base(t) + eta * odd(t),),
                    support=base.support), T, m


class TestEvenPart:
    """Any other handle is within omega of its bitwise even part E: both sweeps reduce the
    triangle of E's tables and score G on the images of the pairs a bound on |G - E| cannot rule
    out, with the results of the whole tables, or reduce the whole tables."""

    @given(uneven(), st.integers(1, 400))
    def test_uneven_handles_equal_full_tables(self, case, block):
        h, T, m = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dalembert, "_BLOCK_ELEMS", block)
            assert_same(fields(h, T, T / m), full_tables(h, T, T / m))

    @pytest.mark.parametrize("step", [0.5, 0.05])
    def test_tie_between_images_resolves_to_the_first_pair(self, step):
        # G(0.5) lowered by 2: |Delta| = 11.5 at (-2, 0.5), (0.5, -2), (0.5, 2) and (2, 0.5), all
        # images of the triangle's (-2, -0.5), where it is 0.5; the first in row-major order wins
        def bumped(t):
            return 1.0 + 0.5 * t * t + np.where(np.abs(t - 0.5) < 1e-9, -2.0, 0.0)

        h = analytic(LOG_LINE, "quadlog lowered at 0.5", (bumped,))
        assert path(h, 2.0, step) == "even part"
        got = fields(h, 2.0, step)
        assert got == full_tables(h, 2.0, step)
        assert got[0] == (11.5, -2.0, 0.5, 11.5)

    @pytest.mark.parametrize("ys", [
        lambda ts: np.cosh(ts),  # on 8001 rows Delta is rounding noise: it all comes within 2 rho
        lambda ts: np.cosh(ts) + 1e-6 * np.sin(ts),  # rho is far above E's largest Delta
    ], ids=["exact cosh", "cosh + 1e-6 sin"])
    def test_inputs_within_rounding_of_even_take_the_whole_table(self, ys, monkeypatch):
        ts = np.linspace(-4.05, 4.05, 8001)
        h = sample_table(LOG_LINE, ts, ys(ts))
        assert path(h, 2.0, 0.001) == "whole table"
        monkeypatch.setattr(dalembert, "_BLOCK_ELEMS", 1024)  # so that the budget bites at n = 401
        assert path(h, 2.0, 0.01) == "whole table"
        assert_same(fields(h, 2.0, 0.01), full_tables(h, 2.0, 0.01))

    def test_the_budget_holds_the_final_kept_blocks(self, monkeypatch):
        # |Delta_E| peaks at the origin, in the triangle's last rows: a threshold taken from the
        # earlier blocks alone keeps more than four rows of them, the final theta keeps fewer,
        # so the sweep rescores the blocks that reach it and does not take the whole table
        h = analytic(LOG_LINE, "1 + bump + 1e-3 sin",
                     (lambda t: 2.0 + np.expm1(-(t * t) / 0.01) + 1e-3 * np.sin(t),))
        monkeypatch.setattr(dalembert, "_BLOCK_ELEMS", 5)
        assert path(h, 1.0, 0.05) == "even part"
        assert defect_fields(h, 1.0, 0.05) == full_tables(h, 1.0, 0.05)[0]


class TestTableCost:
    """A fine-grid table, 811 rows of a noisy cosh at T = 2, step 0.001, is not bitwise even,
    yet each sweep reduces about the triangle of the quadrant, in three block buffers."""

    TS = np.linspace(-4.05, 4.05, 811)
    TABLE = sample_table(LOG_LINE, TS, make_family(parse_family_spec(
        "noisy-cosh,amplitude=1e-4,mode=trig,freq=2.5,seed=7"), domain=LOG_LINE)(TS))

    @pytest.mark.parametrize("sweep, scores", [
        (sup_defect, "_kernel"), (identity_report, "_identity_scores")],
        ids=["sup_defect", "identity_report"])
    def test_sweeps_reduce_about_half_the_quadrant(self, sweep, scores, monkeypatch):
        # the pairs are counted in the score function each block calls, all in this process
        assert path(self.TABLE, 2.0, 0.001) == "even part"
        monkeypatch.setattr(dalembert, "_HELPER_MIN_PAIRS", math.inf)
        pairs, inner = [], getattr(dalembert, scores)
        monkeypatch.setattr(dalembert, scores, lambda s, *a: pairs.append(s.size) or inner(s, *a))
        sweep(self.TABLE, 2.0, 0.001)
        assert 0.45 * 2001**2 <= sum(pairs) <= 0.6 * 2001**2

    @pytest.mark.parametrize("sweep", [sup_defect, identity_report], ids=lambda f: f.__name__)
    def test_peak_memory(self, sweep):
        # three block buffers sharing 512 KB, and O(n) vectors and factors of the 4001 nodes:
        # 1.13 MiB traced for sup_defect, 1.22 MiB for identity_report, which holds G's factors
        # and E's
        own = not tracemalloc.is_tracing()
        if own:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            sweep(self.TABLE, 2.0, 0.001)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if own:
                tracemalloc.stop()
        assert peak < 3 * 2**20


EDGES = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308, 1.0, -1.5,
                  1e154, -1e200, 1e300, np.inf, -np.inf, np.nan])


class TestEdgeValues:
    """Each block's scores equal the whole tables' broadcast expressions under == (a NaN matching
    a NaN) on nodes of signed zeros, subnormals, huge values, infinities and NaNs, in blocks of
    several rows, of one row and of one column: the rank-2 products round as multiply and add
    do, the +0 they give for a -0 product compares equal to it, and none reads the NaN that
    fills all three buffers before each block, so a kernel that reads a window's copy before it
    makes it fails."""

    BLOCKS = {  # (w, triangle) -> (rows, cols) of the blocks _scored reduces
        "rows": _blocks,  # of 20 elements: 2 or 4 rows, then 1
        "one row": lambda w, tri: ((slice(i, i + 1), slice(i if tri else 0, w)) for i in range(w)),
        "one column": lambda w, tri: ((slice(0, j + 1 if tri else w), slice(j, j + 1))
                                      for j in range(w)),
    }

    @pytest.mark.parametrize("shape", sorted(BLOCKS))
    @pytest.mark.parametrize("triangle", [False, True], ids=["whole", "triangle"])
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_block_scores_equal_table_expressions(self, seed, triangle, shape, monkeypatch):
        nodes = np.random.default_rng(seed).choice(EDGES, 2 * 9 - 1)
        g = nodes[4: 13]
        delta, product, square = table_expressions(nodes, g)
        monkeypatch.setattr(dalembert, "_BLOCK_ELEMS", 20)
        views = dalembert._buffers(9)
        assert len(views(slice(0, 2), slice(0, 9))) == 3  # the stage buffer is filled too

        def dirty(r, c):  # a product that reads its output (BLAS beta != 0) reads NaN
            xs = views(r, c)
            for x in xs:
                x.fill(np.nan)
            return xs

        cases = [(lambda *a: (dalembert._kernel(*a),), g, 2.0, [delta]),
                 (dalembert._identity_scores, g * (g + 2.0), 1.0,
                  [np.abs(product), np.abs(square)])]
        w = 5 if triangle else 9
        for scores, a, k, wants in cases:
            covered = np.zeros((w, w), dtype=int)
            for r, c, xs in _scored(nodes, a, list(self.BLOCKS[shape](w, triangle)), scores, k,
                                    dirty):
                # each score is compared as it is yielded: the next one may reuse its buffer
                for x, want in zip(xs, wants, strict=True):
                    assert np.array_equal(x, want[r, c], equal_nan=True), (r, c, x, want[r, c])
                covered[r, c] += 1
            # each pair once; a triangle's row block may spill below the diagonal
            assert covered.max() == 1
            assert covered[np.triu_indices(w) if triangle else ...].min() == 1


class TestBlasThreads:
    """The sweeps' rank-2 products give the same bits at any BLAS thread count: the benchmark sets
    OPENBLAS_NUM_THREADS and OMP_NUM_THREADS, a plain CLI run does not.  Both handles are even, so
    their sweeps are split with the helper process where it can run, in the same bits."""

    PROBE = ("from reccost import LOG_LINE, identity_report, make_family, parse_family_spec, "
             "sup_defect\n"
             "for spec in ('noisy-cosh,amplitude=1e-3,mode=sine,freq=5', 'noisy-cosh,"
             "amplitude=1e-3,mode=trig,freq=5'):\n"
             "    h = make_family(parse_family_spec(spec), domain=LOG_LINE)\n"
             "    print(repr(sup_defect(h, 2.0, 0.002)))\n"
             "    print(repr(identity_report(h, 2.0, 0.002)))\n"
             "from reccost import helper\n"
             "print('helper:', helper._current is not None)\n")

    def test_fields_do_not_depend_on_the_thread_count(self):
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            outs.append(subprocess.run([sys.executable, "-c", self.PROBE], env=env, check=True,
                                       capture_output=True, text=True).stdout)
        assert outs[0] == outs[1] and "epsilon=" in outs[0] and "evenness=" in outs[0]
        helper = hasattr(os, "fork") and len(getattr(os, "sched_getaffinity", set)(0)) >= 2
        assert outs[0].endswith(f"helper: {helper}\n")


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

    @pytest.mark.parametrize("T, step", [(0.5, 0.01), (1.0, 0.02), (2.0, 0.05), (2.0, 0.1)])
    @pytest.mark.parametrize("spec", [
        "cosh", "cosh-lambda,lambda=2", "cos-k,k=3", "quadlog", "constant-one",
        "powerlaw-w,lambda=1.5", "noisy-cosh,amplitude=1e-3,mode=sine,freq=5",
        "noisy-cosh,amplitude=1e-6,mode=trig", "noisy-cosh,amplitude=1e-3,mode=poly4",
        "noisy-cosh,amplitude=1e-3,mode=sine,freq=62.83185307179586"])
    def test_defect_bounds_the_identities(self, spec, T, step):
        # with H(0) = 1 each violation is a combination of defects Delta(p, q): double angle
        # Delta(t, t), evenness Delta(0, u), product (Delta(t, t) + Delta(u, u)
        # - Delta(t + u, t - u)) / 2, whose pair lies in [-2T, 2T]^2, and difference square
        # 4 H(t) H(u) Delta(t, u) + Delta(t, u)^2 - 4 product; T / step is an integer, so the
        # grid of [-2T, 2T] holds every t + u and t - u.  ulp is one ulp of M^2 + 4 M + 1, with
        # M = max |G| on the nodes of [-4T, 4T], and b = max |H| on the window
        h = make_family(parse_family_spec(spec), domain=LOG_LINE)
        ids = identity_report(h, T, step)
        eps, eps_2t = sup_defect(h, T, step).epsilon, sup_defect(h, 2.0 * T, step).epsilon
        big = float(np.max(np.abs(h.excess(symmetric_grid(4.0 * T, step)[1]))))
        ulp = float(np.spacing(big * big + 4.0 * big + 1.0))
        b = float(np.max(np.abs(h(symmetric_grid(T, step)[1]))))
        assert ids.double_angle <= eps + 8.0 * ulp
        assert ids.evenness <= eps + 8.0 * ulp
        assert ids.product_identity <= 1.5 * eps_2t + 8.0 * ulp
        assert ids.difference_square <= 4.0 * b * b * eps + eps * eps + 6.0 * eps_2t + 16.0 * ulp


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

