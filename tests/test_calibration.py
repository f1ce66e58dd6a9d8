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
    PreconditionError,
    RangeOverflowError,
    analytic,
    certify,
    classify,
    estimate_kappa,
    lift_to_log,
    make_family,
    parse_family_spec,
    sample_table,
)
from reccost.calibration import minimize_scalar
from reccost.fixtures import _TABLE, FAMILIES, PERTURB_MODES

COSH_LOG = make_family(FamilySpec("cosh-lambda"), domain=LOG_LINE)
CONST_ONE = make_family(FamilySpec("constant-one"))
NOISY_TRIG = make_family(FamilySpec("noisy-cosh", {"mode": "trig"}))
TS = np.linspace(-4.05, 4.05, 811)
TABLE = sample_table(LOG_LINE, TS, NOISY_TRIG(TS))

LAMBDA = st.floats(min_value=0.3, max_value=3.0)
FAMILY_PARAMS = {
    "cosh-lambda": {"lambda": LAMBDA},
    "cos-k": {"k": st.floats(min_value=0.3, max_value=1e4)},
    "noisy-cosh": {"lambda": LAMBDA, "amplitude": st.floats(min_value=0.0, max_value=1e-2),
                   "freq": st.floats(min_value=0.1, max_value=50.0),
                   "mode": st.sampled_from(PERTURB_MODES), "seed": st.integers(0, 99)},
    "powerlaw-w": {"lambda": LAMBDA},
}


def _perturbation_curvature(p):
    """G''(0) of noisy-cosh's perturbation: a sum_j c_j js_j^2 for the circular modes."""
    if p["mode"] == "poly4":
        return 0.0
    js = p["freq"] * np.arange(1, 6 if p["mode"] == "trig" else 2)
    raw = np.random.default_rng(p["seed"]).random(5)
    c = raw / raw.sum() if p["mode"] == "trig" else np.ones(1)
    return p["amplitude"] * float(np.sum(c * js * js))


# each builtin's H''(0) in closed form, from all its parameters
CLOSED_FORM = {
    "cosh-lambda": lambda p: p["lambda"] ** 2,
    "powerlaw-w": lambda p: p["lambda"] ** 2,
    "cos-k": lambda p: -p["k"] ** 2,
    "quadlog": lambda p: 1.0,
    "constant-one": lambda p: 0.0,
    "zero": lambda p: 0.0,
    "noisy-cosh": lambda p: p["lambda"] ** 2 + _perturbation_curvature(p),
}


def signed_ripple(amp=1e-8, freq=40.0):
    # even, H(0) = 1 and H''(0) = 1 + 2 amp: cosh(t) plus a ripple amp t^2 cos(freq t)
    return analytic(
        LOG_LINE,
        "unit+ripple",
        (lambda t: np.cosh(t) + amp * t * t * np.cos(freq * t),
         lambda t: np.sinh(t) + amp * (2 * t * np.cos(freq * t) - freq * t * t * np.sin(freq * t)),
         lambda t: np.cosh(t) + amp * ((2 - (freq * t) ** 2) * np.cos(freq * t)
                                       - 4 * freq * t * np.sin(freq * t))),
        support=(-700.0, 700.0),
    )


@st.composite
def builtin_specs(draw):
    """A builtin family with drawn parameters, and all its parameters with their defaults."""
    fam = draw(st.sampled_from(FAMILIES))
    given = draw(st.fixed_dictionaries(FAMILY_PARAMS.get(fam, {})))
    return FamilySpec(fam, given), {**_TABLE[fam][1], **given}


class TestEstimateKappa:
    """estimate_kappa(h) is the handle's own H''(0), read once from its stack at t = 0."""

    @given(builtin_specs())
    def test_builtins_give_their_closed_form(self, drawn):
        spec, params = drawn
        h = make_family(spec, LOG_LINE)
        kappa, want = estimate_kappa(h), CLOSED_FORM[spec.family](params)
        assert type(kappa) is float
        assert np.float64(kappa).tobytes() == np.float64(h.derivative(0.0, 2)).tobytes()
        assert abs(kappa - want) <= 2 * np.spacing(abs(want))

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_family_recovery(self, lam):
        # through the lift of the ratio family: its stack carries H''(0) = lambda^2 too
        h = lift_to_log(make_family(FamilySpec("cosh-lambda", {"lambda": lam})))
        assert abs(estimate_kappa(h) - lam * lam) <= np.spacing(lam * lam)

    @pytest.mark.parametrize("h0", [0.25, 1e-5, 1e-9])
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_exact_cosh_to_the_last_bit(self, lam, h0):
        # a ladder once started at h0 = T / 2; classify on [-2 h0, 2 h0] now reads the same bits
        h = make_family(FamilySpec("cosh-lambda", {"lambda": lam}), LOG_LINE)
        kappa = estimate_kappa(h)
        assert abs(kappa - lam * lam) <= np.finfo(float).eps * lam * lam
        assert np.float64(classify(h, 2 * h0).kappa_used).tobytes() == np.float64(kappa).tobytes()

    def test_constant_one_exact(self):
        kappa = estimate_kappa(CONST_ONE)
        assert kappa == 0.0 and type(kappa) is float

    @pytest.mark.parametrize("h0", [0.25, 1e-2, 1e-4, 1e-6, 1e-7])
    def test_noisy_cosh_to_the_ulp_at_every_h0(self, h0):
        # the sine perturbation 2 a sin^2(f t / 2) adds a f^2 = 0.025 at t = 0; certify on
        # [-2 h0, 2 h0] takes that a whatever its window
        h = make_family(parse_family_spec("noisy-cosh"), LOG_LINE)
        kappa = estimate_kappa(h)
        assert abs(kappa - 1.025) <= np.spacing(1.025)
        assert certify(h, 2 * h0, h0 / 4).inputs.a == kappa

    @pytest.mark.parametrize("h", [COSH_LOG, NOISY_TRIG, TABLE, CONST_ONE, signed_ripple()],
                             ids=["cosh", "noisy", "table", "constant-one", "ripple"])
    def test_fields_are_python_scalars(self, h):
        # a numpy scalar would print as np.float64(...) in classify's {kappa!r} messages
        assert type(estimate_kappa(h)) is float

    @pytest.mark.parametrize("rows", [811, 8001])
    @pytest.mark.parametrize("sigma, accepted", [(1e-9, True), (1e-7, True), (1e-6, False)])
    def test_a_noisy_tables_verdicts_do_not_turn_on_its_curvature(self, rows, sigma, accepted):
        # the interpolant's H''(0) is noise-sensitive (ROADMAP item 7): 0.846 for the
        # 8001-row table at sigma = 1e-7, where a Richardson ladder read 0.99996; the
        # verdicts on T = 2 are those the ladder gave, and all read the one curvature
        ts = np.linspace(-4.05, 4.05, rows)
        vals = np.cosh(ts) * (1.0 + sigma * np.random.default_rng(0).standard_normal(rows))
        vals[rows // 2] = 1.0
        h = sample_table(LOG_LINE, ts, vals)
        if not accepted:
            with pytest.raises(ClassificationError, match=r"^not near any branch"):
                classify(h, 2.0)
            with pytest.raises(PreconditionError, match=r"^handle is not even"):
                certify(h, 2.0, 0.05)
            return
        res, cert = classify(h, 2.0), certify(h, 2.0, 0.05)
        assert res.branch == BRANCH_COSH and abs(res.k - 1.0) <= 1e-8
        assert cert.verified
        assert res.kappa_used == cert.inputs.a == estimate_kappa(h)

    @pytest.mark.parametrize("k", [0.7, 100.0, 1e4])
    def test_cos_k_at_any_frequency(self, k):
        # a Richardson ladder from h0 = 0.25 once read cos(1e4 t) as kappa = -8.013
        assert estimate_kappa(make_family(FamilySpec("cos-k", {"k": k}))) == -(k * k)

    @pytest.mark.parametrize("spec, kappa", [
        ("cosh-lambda,lambda=10", 100.0),
        ("cosh-lambda,lambda=100", 1e4),
        ("powerlaw-w,lambda=170", 28900.0),
        ("cos-k,k=30", -900.0),
        (f"cos-k,k={8 * math.pi!r}", -64 * math.pi**2),
    ], ids=["cosh-10", "cosh-100", "powerlaw-w-170", "cos-30", "cos-8pi"])
    def test_steep_handles_give_their_curvature(self, spec, kappa):
        h = make_family(parse_family_spec(spec), domain=LOG_LINE)
        assert abs(estimate_kappa(h) - kappa) <= 1e-9 * abs(kappa)

    @pytest.mark.parametrize("amplitude", [1e6, 1e14, 1e20])
    def test_noisy_cosh_keeps_its_curvature_at_every_amplitude(self, amplitude):
        h = make_family(parse_family_spec(f"noisy-cosh,amplitude={amplitude!r}"), LOG_LINE)
        kappa = 1.0 + 25.0 * amplitude
        assert abs(estimate_kappa(h) - kappa) <= 4e-16 * kappa

    @pytest.mark.parametrize("h", [COSH_LOG, NOISY_TRIG, TABLE], ids=["cosh", "noisy", "table"])
    def test_one_evaluation_of_the_stack_at_zero(self, h, monkeypatch):
        calls = []
        evaluate = FunctionHandle._eval
        monkeypatch.setattr(FunctionHandle, "_eval", lambda self, z, order:
                            calls.append((z, order)) or evaluate(self, z, order))
        estimate_kappa(h)
        assert calls == [(0.0, 2)]

    def test_a_table_gives_its_interpolants_curvature(self):
        # the interpolant's own H''(0), on either header; it is noise-sensitive (ROADMAP item 7)
        assert estimate_kappa(TABLE) == TABLE.derivative(0.0, 2)
        ratio = sample_table(POSITIVE_RATIOS, np.exp(TS), NOISY_TRIG(TS) - 1.0)
        assert estimate_kappa(lift_to_log(ratio)) == lift_to_log(ratio).derivative(0.0, 2)

    def test_the_odd_part_is_read_too(self):
        # H''(0) of an odd part is 0, so the stack's value is the even part's
        odd = analytic(LOG_LINE, "cosh+odd", (lambda t: np.cosh(t) + 1e-3 * t**3,
                                             lambda t: np.sinh(t) + 3e-3 * t * t,
                                             lambda t: np.cosh(t) + 6e-3 * t))
        assert estimate_kappa(odd) == 1.0

    def test_it_takes_no_window_or_step(self):
        with pytest.raises(TypeError):
            estimate_kappa(COSH_LOG, 0.1)
        for knob in ("window_T", "h0", "levels"):
            with pytest.raises(TypeError):
                estimate_kappa(COSH_LOG, **{knob: 2.0})

    @pytest.mark.parametrize("h, message", [
        (analytic(LOG_LINE, "value-only", (np.cosh,)),
         "value-only: derivative of order 2 unavailable (capability 0)"),
        (make_family(FamilySpec("cosh-lambda")),
         "estimate_kappa needs a log-line handle, got positive-ratios"),
        (sample_table(LOG_LINE, np.linspace(0.5, 4.0, 351), np.cosh(np.linspace(0.5, 4.0, 351))),
         "table: abscissa outside evaluable range [0.5, 4]"),
    ], ids=["value-only", "ratio", "off-origin"])
    def test_a_handle_without_h_second_at_zero_is_refused(self, h, message):
        with pytest.raises(DomainError) as info:
            estimate_kappa(h)
        assert str(info.value) == message

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_an_infinite_curvature_is_refused_by_name(self, sign):
        h = analytic(LOG_LINE, "steep", (np.cosh, np.sinh, lambda t: sign * np.full_like(t, np.inf)))
        with pytest.raises(RangeOverflowError) as info:
            estimate_kappa(h)
        assert str(info.value) == f"steep: estimate_kappa overflows, H''(0) = {sign * math.inf!r}"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_an_overflowing_builtin_is_refused(self):
        # cosh(1e300 t): lambda^2 overflows; a ladder once refused its support as too narrow
        h = make_family(parse_family_spec("cosh-lambda,lambda=1e300"), LOG_LINE)
        with pytest.raises(RangeOverflowError, match=r"H''\(0\) = inf$"):
            estimate_kappa(h)

    def test_a_nan_is_returned_for_the_caller_to_refuse(self):
        h = analytic(LOG_LINE, "nan", (np.cosh, np.sinh, lambda t: np.full_like(t, np.nan)))
        assert math.isnan(estimate_kappa(h))

    @pytest.mark.parametrize("spec", ["cosh", "cosh-lambda,lambda=2", "noisy-cosh,mode=trig",
                                      "noisy-cosh,amplitude=1e-3,mode=sine,freq=62.83185307179586"])
    def test_certify_takes_the_same_curvature(self, spec):
        h = make_family(parse_family_spec(spec), LOG_LINE)
        assert certify(h, 2.0, 0.1).inputs.a == estimate_kappa(h)


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

    @pytest.mark.parametrize("fns, reason", [
        ((lambda t: np.where(t == 1.0, np.nan, np.cosh(t)), np.sinh, np.cosh),
         "sup residual nan vs Cosh"),  # a residual-grid node
        ((lambda t: np.where(t == 1.0, np.nan, 0.0),), "sup residual nan vs Zero"),
        ((np.cosh, np.sinh, lambda t: np.where(t == 0.0, np.nan, np.cosh(t))),
         r"the curvature H''\(0\) is nan"),
    ], ids=["cosh-node", "zero-node", "curvature"])
    def test_nan_is_refused(self, fns, reason):
        with pytest.raises(ClassificationError, match=reason):
            classify(analytic(LOG_LINE, "nan", fns), 2.0)

    def test_a_handle_without_h_second_is_refused_by_its_capability(self):
        with pytest.raises(DomainError, match=r"derivative of order 2 unavailable"):
            classify(analytic(LOG_LINE, "value-only", (np.cosh,)), 2.0)

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
