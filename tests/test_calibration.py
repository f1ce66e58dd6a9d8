import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from reccost import (
    BRANCH_CONSTANT_ONE,
    BRANCH_COS,
    BRANCH_COSH,
    BRANCH_ZERO,
    ClassificationError,
    DomainError,
    FamilySpec,
    FunctionHandle,
    LOG_LINE,
    POSITIVE_RATIOS,
    PrecisionError,
    RangeOverflowError,
    analytic,
    classify,
    estimate_kappa,
    lift_to_log,
    make_family,
    parse_family_spec,
    quad_ratio,
    sample_table,
)
from reccost.calibration import minimize_scalar
from reccost.fixtures import FAMILIES, PERTURB_MODES

COSH_LOG = make_family(FamilySpec("cosh-lambda"), domain=LOG_LINE)
CONST_ONE = make_family(FamilySpec("constant-one"))
NOISY_TRIG = make_family(FamilySpec("noisy-cosh", {"mode": "trig"}))
TS = np.linspace(-4.05, 4.05, 811)
TABLE = sample_table(LOG_LINE, TS, NOISY_TRIG(TS))

LAMBDA = st.floats(min_value=0.3, max_value=3.0)
FAMILY_PARAMS = {
    "cosh-lambda": {"lambda": LAMBDA},
    "cos-k": {"k": LAMBDA},
    "noisy-cosh": {"lambda": LAMBDA, "amplitude": st.floats(min_value=0.0, max_value=1e-2),
                   "freq": st.floats(min_value=0.1, max_value=50.0),
                   "mode": st.sampled_from(PERTURB_MODES), "seed": st.integers(0, 99)},
    "powerlaw-w": {"lambda": LAMBDA},
}


@st.composite
def ladder_handles(draw):
    """A builtin family with drawn parameters, or its sample table in t,H or in x,F, lifted."""
    fam = draw(st.sampled_from(FAMILIES))
    spec = FamilySpec(fam, draw(st.fixed_dictionaries(FAMILY_PARAMS.get(fam, {}))))
    source = draw(st.sampled_from(["family", "t,H", "x,F"]))
    if source == "family":
        return make_family(spec, LOG_LINE)
    if source == "t,H":
        return sample_table(LOG_LINE, TS, make_family(spec, LOG_LINE)(TS))
    xs = np.exp(TS)
    return lift_to_log(sample_table(POSITIVE_RATIOS, xs, make_family(spec, POSITIVE_RATIOS)(xs)))


def signed_ripple(amp=1e-8, freq=40.0):
    # even, H(0)=1, but the ratio table oscillates in sign: round-off analog
    return analytic(
        LOG_LINE,
        "unit+ripple",
        (lambda t: 1.0 + amp * t * t * np.cos(freq * t),),
        support=(-700.0, 700.0),
    )


class TestQuadRatio:
    def test_cosh_at_tenth(self):
        expected = 2.0 * (math.cosh(0.1) - 1.0) / 0.01
        assert abs(quad_ratio(COSH_LOG, 0.1) - expected) <= 1e-13
        assert abs(expected - 1.0008336111) <= 1e-9

    def test_constant_one(self):
        assert quad_ratio(CONST_ONE, 0.1) == 0.0

    def test_cos_two(self):
        h = make_family(FamilySpec("cos-k", {"k": 2.0}))
        expected = 2.0 * (math.cos(0.2) - 1.0) / 0.01
        assert abs(quad_ratio(h, 0.1) - expected) <= 1e-13
        assert abs(expected - (-3.9867)) <= 1e-4

    def test_negative_step_symmetrized(self):
        assert quad_ratio(COSH_LOG, -0.1) == quad_ratio(COSH_LOG, 0.1)

    def test_step_validation(self):
        with pytest.raises(DomainError):
            quad_ratio(COSH_LOG, 0.0)
        with pytest.raises(DomainError):  # step^2 underflows
            quad_ratio(COSH_LOG, -1e-300)
        with pytest.raises(DomainError, match=r"got \[0\.1, 0\.0\]"):  # one bad step of many
            quad_ratio(COSH_LOG, [0.1, 0.0])


class TestEstimateKappa:
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_family_recovery(self, lam):
        h = lift_to_log(make_family(FamilySpec("cosh-lambda", {"lambda": lam})))
        est = estimate_kappa(h)
        assert abs(est.kappa - lam * lam) <= 1e-8 * lam * lam

    @pytest.mark.parametrize("h0", [0.25, 1e-5, 1e-9])
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_exact_cosh_to_the_last_bit(self, lam, h0):
        # q is formed from the stored excess G, so no 1 cancels at any step; the window
        # [-2 h0, 2 h0] starts the ladder at h0
        est = estimate_kappa(make_family(FamilySpec("cosh-lambda", {"lambda": lam}), LOG_LINE),
                             window_T=2 * h0)
        assert abs(est.kappa - lam * lam) <= np.finfo(float).eps * lam * lam
        assert not est.noise_limited and est.levels == 6

    def test_constant_one_exact(self):
        est = estimate_kappa(CONST_ONE)
        assert est.kappa == 0.0
        assert est.uncertainty == 0.0
        assert not est.noise_limited

    def test_cos_family(self):
        est = estimate_kappa(make_family(FamilySpec("cos-k", {"k": 0.7})))
        assert abs(est.kappa - (-0.49)) <= 1e-8

    def test_ratio_table_structure(self):
        est = estimate_kappa(COSH_LOG)
        hs = [row[0] for row in est.ratio_table]
        assert hs == [0.25 * 2.0**-k for k in range(6)]
        assert all(h1 < h0 for h0, h1 in zip(hs, hs[1:]))

    def test_extrapolation_order(self):
        # pre-extrapolation error decays as h^2: log-log slope near 2
        est = estimate_kappa(COSH_LOG)
        table = np.array(est.ratio_table)
        errs = np.abs(table[:, 1] - 1.0)
        slope = np.polyfit(np.log(table[:, 0]), np.log(errs), 1)[0]
        assert 1.8 <= slope <= 2.2

    def test_symmetrization_kills_odd_part(self):
        odd = analytic(
            LOG_LINE,
            "cosh+odd",
            (lambda t: np.cosh(t) + 1e-3 * t**3,),
            support=(-700.0, 700.0),
        )
        assert abs(estimate_kappa(odd).kappa - estimate_kappa(COSH_LOG).kappa) <= 1e-12

    def test_noise_limited_flag(self):
        est = estimate_kappa(signed_ripple())
        assert est.noise_limited
        assert est.levels < 6
        assert est.uncertainty > 0.0

    def test_the_window_is_keyword_only(self):
        # a positional 0.1 was once read as h0; it may not be read as a window either
        with pytest.raises(TypeError):
            estimate_kappa(COSH_LOG, 0.1)
        for knob in ("h0", "levels"):
            with pytest.raises(TypeError):
                estimate_kappa(COSH_LOG, **{knob: 6})

    @pytest.mark.parametrize("h, support, reach", [
        (make_family(parse_family_spec("cosh-lambda,lambda=1e300"), LOG_LINE),
         "[-7e-298, 7e-298]", "7e-298"),
        (sample_table(LOG_LINE, np.linspace(0.5, 4.0, 351), np.cosh(np.linspace(0.5, 4.0, 351))),
         "[0.5, 4.0]", "-0.5"),
    ], ids=["steep", "off-origin"])
    def test_a_support_too_narrow_for_a_ladder_is_refused_by_its_reach(self, h, support, reach):
        # the 6th step of a ladder from that reach has a subnormal square, or there is no ladder
        # about 0 at all; the message names the support, not the step quad_ratio would refuse
        message = f"{h.name}: the support {support}, of reach {reach}, is too narrow for a " \
            "curvature ladder"
        for call in (lambda: estimate_kappa(h), lambda: estimate_kappa(h, window_T=2.0)):
            with pytest.raises(DomainError) as info:
                call()
            assert str(info.value) == message

    @pytest.mark.parametrize("h", [COSH_LOG, NOISY_TRIG, TABLE], ids=["cosh", "noisy", "table"])
    def test_a_ladder_costs_two_evaluations(self, h, monkeypatch):
        # one per sign for the whole ladder; one per step and sign took 12
        calls = []
        evaluate = FunctionHandle._eval
        monkeypatch.setattr(FunctionHandle, "_eval",
                            lambda self, z, order: calls.append(z) or evaluate(self, z, order))
        estimate_kappa(h)
        assert len(calls) <= 2

    @given(ladder_handles(), st.floats(min_value=1e-4, max_value=0.25))
    def test_ratio_table_is_quad_ratio_of_the_ladder(self, h, h0):
        ladder = [h0 * 2.0**-k for k in range(6)]
        est = estimate_kappa(h, window_T=2 * h0)
        assert [s for s, _ in est.ratio_table] == ladder
        qs = quad_ratio(h, ladder)
        assert np.array([q for _, q in est.ratio_table]).tobytes() == qs.tobytes()
        for s, q in zip(ladder, qs):
            one = quad_ratio(h, s)
            assert type(one) is float and np.float64(one).tobytes() == q.tobytes()

    def test_a_ladder_out_of_regime_halves_its_h0(self):
        # from h0 = 0.25, 2 |G_sym(s)| > 1 on cosh(100 t)'s ladder; it once gave 8462 +- 1.6e6
        est = estimate_kappa(make_family(parse_family_spec("cosh-lambda,lambda=100"), LOG_LINE))
        assert est.ratio_table[0][0] < 0.25
        assert abs(est.kappa - 1e4) <= 1e-9

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_the_ladder_starts_inside_the_support(self):
        # cosh(1e6 t) is evaluable on [-7e-4, 7e-4]; h0 = 0.25 is cut to that reach and halves
        est = estimate_kappa(make_family(parse_family_spec("cosh-lambda,lambda=1e6"), LOG_LINE))
        assert est.ratio_table[0][0] == 7e-4 / 1024
        assert abs(est.kappa - 1e12) <= 1e-12 * 1e12 and est.levels == 6

    @pytest.mark.parametrize("h0", [0.25, 1e-2, 1e-4, 1e-6, 1e-7])
    def test_noisy_cosh_to_the_ulp_at_every_h0(self, h0):
        # the sine perturbation is formed as 2 a sin^2(f t / 2): a (1 - cos f t) cancelled to
        # noise at small steps and left 1.0249430106199122 at 2 levels from h0 = 1e-7
        est = estimate_kappa(make_family(parse_family_spec("noisy-cosh"), LOG_LINE),
                             window_T=2 * h0)
        assert abs(est.kappa - 1.025) <= np.spacing(1.025) and est.levels == 6

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_an_overflowing_kappa_is_refused_by_name(self):
        # the halving ends on a ladder whose q overflows; its kappa is no answer
        h = analytic(LOG_LINE, "1e300 cosh(t/10)", (lambda t: 1e300 * np.cosh(0.1 * t),))
        with pytest.raises(RangeOverflowError, match=r"^1e300 cosh\(t/10\): estimate_kappa "
                           r"overflows, kappa = nan, on the ladder from h0 = 0\.001953125$"):
            estimate_kappa(h)

    @pytest.mark.parametrize("h", [COSH_LOG, NOISY_TRIG, TABLE, CONST_ONE, signed_ripple()],
                             ids=["cosh", "noisy", "table", "constant-one", "noise-limited"])
    def test_fields_are_python_scalars(self, h):
        # a numpy scalar would print as np.float64(...) in classify's {kappa!r} messages
        est = estimate_kappa(h)
        assert (type(est.kappa), type(est.uncertainty)) == (float, float)
        assert (type(est.levels), type(est.noise_limited)) == (int, bool)
        assert {type(v) for row in est.ratio_table for v in row} == {float}


class TestWindowCurvature:
    """estimate_kappa on a window starts from min(0.25, T/2), and halves until its ladder
    decays toward G(0) = 0 with every |q(s)| s^2 = 2 |G_sym(s)| at most 1, where Richardson
    extrapolation holds."""

    @pytest.mark.parametrize("spec, T, kappa", [
        ("cosh-lambda,lambda=10", 2.0, 100.0),
        ("cosh-lambda,lambda=100", 3.0, 1e4),
        ("powerlaw-w,lambda=170", 2.0, 28900.0),
        ("cos-k,k=30", 2.0, -900.0),
        (f"cos-k,k={8 * math.pi!r}", 2.0, -64 * math.pi**2),  # q(0.25) aliases to about 0
    ], ids=["cosh-10", "cosh-100", "powerlaw-w-170", "cos-30", "cos-8pi"])
    def test_steep_handles_give_their_curvature(self, spec, T, kappa):
        h = make_family(parse_family_spec(spec), domain=LOG_LINE)
        est = estimate_kappa(h, window_T=T)
        assert abs(est.kappa - kappa) <= 1e-9 * abs(kappa)
        assert estimate_kappa(h) == est  # calibrate's h0 is the window's, 0.25

    @pytest.mark.parametrize("amplitude", [1e6, 1e14, 1e20])
    def test_noisy_cosh_keeps_its_curvature_at_every_amplitude(self, amplitude):
        # the halving reaches steps where a (1 - cos f t) cancelled: relative errors 2.5e-9,
        # 5.3e-2 and 1.0 at these amplitudes
        h = make_family(parse_family_spec(f"noisy-cosh,amplitude={amplitude!r}"), LOG_LINE)
        kappa = 1.0 + 25.0 * amplitude
        assert abs(estimate_kappa(h, window_T=2.0).kappa - kappa) <= 4e-16 * kappa

    @pytest.mark.parametrize("spec", ["cosh-lambda,lambda=2", "zero"])
    def test_a_handle_in_regime_costs_one_ladder(self, spec, monkeypatch):
        # zero's ladder does not decay (G = -1), so it keeps h0 = 0.25 and its estimate
        h = make_family(parse_family_spec(spec), domain=LOG_LINE)
        calls = []
        evaluate = FunctionHandle._eval
        monkeypatch.setattr(FunctionHandle, "_eval",
                            lambda self, z, order: calls.append(z) or evaluate(self, z, order))
        assert estimate_kappa(h, window_T=2.0) == estimate_kappa(h)
        assert len(calls) == 4  # two for each ladder, on the window and off it

    def test_nan_ends_the_halving(self):
        h = analytic(LOG_LINE, "cosh(30 t), NaN at 2^-6",
                     (lambda t: np.where(np.abs(t) == 2.0**-6, np.nan, np.cosh(30.0 * t)),))
        est = estimate_kappa(h, window_T=2.0)
        assert est.ratio_table[0][0] == 0.25 and math.isnan(est.ratio_table[-2][1])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_halving_keeps_a_ladder_estimate_kappa_takes(self):
        # from h0 = 5e-151 the ladder of cosh(4e152 t) reaches its regime only at steps whose
        # squares are subnormal, so the halving stops at the last ladder estimate_kappa takes
        h = make_family(parse_family_spec("cosh-lambda,lambda=4e152"), domain=LOG_LINE)
        s = estimate_kappa(h, window_T=1e-150).ratio_table[-1][0]
        assert s * s >= np.finfo(float).tiny > (0.5 * s) ** 2


    @pytest.mark.parametrize("T", [1e-300, 5e-324, 9e-153])
    def test_a_window_too_narrow_for_its_ladder_is_refused_by_its_t(self, T):
        # the deepest step of the first ladder, T/64, has a subnormal square; the message names
        # the T the caller gave, not a step or an h0 (of 0.0 at T = 5e-324)
        h = make_family(parse_family_spec("cosh"), domain=LOG_LINE)
        message = f"window T = {T!r} is too narrow for a curvature ladder"
        for call in (lambda: estimate_kappa(h, window_T=T), lambda: classify(h, T)):
            with pytest.raises(DomainError) as info:
                call()
            assert str(info.value) == message


class TestClassify:
    def test_cosh_branch(self):
        h = make_family(FamilySpec("cosh-lambda", {"lambda": 2.0}), domain=LOG_LINE)
        res = classify(h, 2.0)
        assert res.branch == BRANCH_COSH
        assert abs(res.k - 2.0) <= 1e-6
        assert res.residual <= 1e-8
        assert res.kappa_used > 0

    def test_cos_branch(self):
        res = classify(make_family(FamilySpec("cos-k", {"k": 0.7})), 2.0)
        assert res.branch == BRANCH_COS
        assert abs(res.k - 0.7) <= 1e-6
        assert res.residual <= 1e-8
        assert res.kappa_used < 0

    def test_constant_branch(self):
        res = classify(CONST_ONE, 2.0)
        assert res.branch == BRANCH_CONSTANT_ONE
        assert res.k is None
        assert res.residual == 0.0

    def test_zero_branch(self):
        res = classify(make_family(FamilySpec("zero")), 2.0)
        assert res.branch == BRANCH_ZERO
        assert res.k is None
        assert res.residual == 0.0
        assert res.kappa_used == 0.0

    def test_quadlog_rejected(self):
        with pytest.raises(ClassificationError):
            classify(make_family(FamilySpec("quadlog"), domain=LOG_LINE), 2.0)

    def test_unnormalized_rejected(self):
        h = analytic(LOG_LINE, "half", (lambda t: np.full_like(t, 0.5),), support=(-10, 10))
        with pytest.raises(ClassificationError):
            classify(h, 2.0)

    @pytest.mark.parametrize("base, nan_at, reason", [
        (np.cosh, lambda t: t == 1.0, "sup residual nan vs Cosh"),  # a residual-grid node
        (np.zeros_like, lambda t: t == 1.0, "sup residual nan vs Zero"),
        (np.cosh, lambda t: (t != 0.0) & (np.abs(t) <= 0.25), "curvature estimate nan"),
    ], ids=["cosh-node", "zero-node", "curvature-steps"])
    def test_nan_is_refused(self, base, nan_at, reason):
        h = analytic(LOG_LINE, "nan", (lambda t: np.where(nan_at(t), np.nan, base(t)),))
        with pytest.raises(ClassificationError, match=reason):
            classify(h, 2.0)

    def test_noise_dominated_raises_precision_error(self):
        with pytest.raises(PrecisionError):
            classify(signed_ripple(), 2.0)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_branch_recovery_cosh(self, lam):
        h = make_family(FamilySpec("cosh-lambda", {"lambda": lam}), domain=LOG_LINE)
        res = classify(h, 2.0)
        assert res.branch == BRANCH_COSH
        assert abs(res.k - lam) / lam <= 1e-6
        assert res.residual <= 1e-8

    @pytest.mark.parametrize("k", [0.7, 1.0, 3.0])
    def test_branch_recovery_cos(self, k):
        res = classify(make_family(FamilySpec("cos-k", {"k": k})), 2.0)
        assert res.branch == BRANCH_COS
        assert abs(res.k - k) / k <= 1e-6
        assert res.residual <= 1e-8

    def test_calibration_fixes_the_family(self):
        # unit calibration selects the canonical member: k = 1
        h = lift_to_log(make_family(FamilySpec("cosh-lambda", {"lambda": 1.0})))
        res = classify(h, 2.0)
        assert res.branch == BRANCH_COSH
        assert abs(res.k - 1.0) <= 1e-6
        assert abs(res.k**2 - res.kappa_used) <= 1e-6

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_k_squared_matches_kappa(self, lam):
        h = lift_to_log(make_family(FamilySpec("cosh-lambda", {"lambda": lam})))
        res = classify(h, 2.0)
        assert abs(res.k**2 - lam * lam) / (lam * lam) <= 1e-6

    def test_window_validation(self):
        with pytest.raises(DomainError):
            classify(COSH_LOG, -1.0)

    def test_a_window_too_wide_for_the_fit_is_refused(self):
        # cosh(1.3 k0 window_T) at the fit bracket's top overflows, below COSH_T_MAX too
        quadlog = make_family(FamilySpec("quadlog"), domain=LOG_LINE)
        with pytest.raises(RangeOverflowError, match="window_T = 700 is too wide for the fit"):
            classify(quadlog, 700.0)


class TestMinimizeScalar:
    def test_readme_table_classifies_to_the_last_bits(self):
        # the README classify example: cosh sampled on 1001 nodes of [-2.5, 2.5]
        ts = [float(t) for t in np.linspace(-2.5, 2.5, 1001)]
        res = classify(sample_table(LOG_LINE, ts, [math.cosh(t) for t in ts]), 2.0)
        assert res.branch == BRANCH_COSH
        assert abs(res.k - 1.0) <= 4 * math.ulp(1.0)
        assert res.residual <= 1e-14

    def test_reaches_the_least_squares_optimum_inside_the_bounds(self, rng):
        from scipy.optimize import least_squares

        grid = np.linspace(-2.0, 2.0, 201)
        for i in range(60):
            branch, f = (BRANCH_COSH, np.cosh) if i % 2 else (BRANCH_COS, np.cos)
            k = rng.uniform(0.3, 3.0)
            # noise far above the round-off of f(k t): near 1e-6 and below, sum r^2 at
            # the optimum moves by over 1e-9 relative from one ulp of k to the next
            vals = f(k * grid) + rng.normal(0.0, 10.0 ** rng.uniform(-5, -2), grid.size)
            k0 = k * (1.0 + rng.uniform(-0.2, 0.2))
            bounds = (0.7 * k0, 1.3 * k0)
            fit = minimize_scalar(branch, grid, vals, k0, bounds)
            ref = least_squares(lambda kk: vals - f(kk[0] * grid), [k0], bounds=bounds,
                                xtol=1e-15, ftol=1e-15, gtol=1e-15)
            r = vals - f(fit.x * grid)
            assert bounds[0] <= fit.x <= bounds[1]
            assert fit.fun == float(np.dot(r, r))
            assert fit.fun <= float(np.dot(ref.fun, ref.fun)) * (1.0 + 1e-9)

    def test_keeps_k0_where_the_last_step_is_worse(self):
        # far from any cos fit (noise of 3 on 41 nodes) the steps cycle after three evaluations,
        # on a k whose sum of squares, 499.3, exceeds k0's 490.2
        grid = np.linspace(-2.0, 2.0, 41)
        vals = np.cos(grid) + np.random.default_rng(8).normal(0.0, 3.0, grid.size)
        fit = minimize_scalar(BRANCH_COS, grid, vals, 1.2, (0.7 * 1.2, 1.3 * 1.2))
        r = vals - np.cos(1.2 * grid)
        assert (fit.x, fit.fun, fit.nfev) == (1.2, float(np.dot(r, r)), 3)
