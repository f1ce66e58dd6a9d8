import math

import numpy as np
import pytest

from reccost import (
    BRANCH_CONSTANT_ONE,
    BRANCH_COS,
    BRANCH_COSH,
    BRANCH_ZERO,
    ClassificationError,
    DomainError,
    FamilySpec,
    LOG_LINE,
    ParameterError,
    PrecisionError,
    RangeOverflowError,
    analytic,
    classify,
    estimate_kappa,
    lift_to_log,
    make_family,
    quad_ratio,
)
from reccost.calibration import minimize_scalar, window_curvature

COSH_LOG = make_family(FamilySpec("cosh-lambda"), domain=LOG_LINE)
CONST_ONE = make_family(FamilySpec("constant-one"))


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


class TestEstimateKappa:
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_family_recovery(self, lam):
        h = lift_to_log(make_family(FamilySpec("cosh-lambda", {"lambda": lam})))
        est = estimate_kappa(h)
        assert abs(est.kappa - lam * lam) <= 1e-8 * lam * lam

    @pytest.mark.parametrize("h0", [0.25, 1e-5, 1e-9])
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_exact_cosh_to_the_last_bit(self, lam, h0):
        # q is formed from the stored excess G, so no 1 cancels at any step
        est = estimate_kappa(make_family(FamilySpec("cosh-lambda", {"lambda": lam}), LOG_LINE),
                             h0=h0)
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
        est = estimate_kappa(COSH_LOG, h0=0.25, levels=6)
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

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            estimate_kappa(COSH_LOG, h0=-0.1)
        with pytest.raises(ParameterError):
            estimate_kappa(COSH_LOG, levels=1)

    @pytest.mark.parametrize("h0, levels", [(0.25, 2000), (1e-300, 2)])
    def test_underflowing_table_is_refused_up_front(self, h0, levels):
        # the message names the inputs, not the step at which quad_ratio would fail
        with pytest.raises(ParameterError, match=r"h0 \* 2\^-\(levels - 1\)"):
            estimate_kappa(COSH_LOG, h0=h0, levels=levels)


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

    def test_measured_curvature_is_reused(self):
        h = make_family(FamilySpec("cos-k", {"k": 0.7}))
        for T in (0.4, 2.0):
            assert classify(h, T, curvature=window_curvature(h, T)) == classify(h, T)
        for est in (window_curvature(h, 0.4), estimate_kappa(h, levels=5)):
            with pytest.raises(DomainError, match="curvature ratio table"):
                classify(h, 2.0, curvature=est)

    def test_window_validation(self):
        with pytest.raises(DomainError):
            classify(COSH_LOG, -1.0)

    def test_explicit_tolerance_keeps_the_overflow_guard(self):
        # cosh(1.3 k0 window_T) at the fit bracket's top overflows
        quadlog = make_family(FamilySpec("quadlog"), domain=LOG_LINE)
        with pytest.raises(RangeOverflowError, match="window_T"):
            classify(quadlog, 800.0, residual_tol=1.0)


class TestMinimizeScalar:
    def test_matches_scipy_bounded_bit_for_bit(self, rng):
        from scipy.optimize import minimize_scalar as scipy_minimize_scalar

        grid = np.linspace(-2.0, 2.0, 201)
        for i in range(120):
            branch = np.cosh if i % 2 else np.cos
            k = rng.uniform(0.3, 3.0)
            vals = branch(k * grid) + rng.normal(0.0, 10.0 ** rng.uniform(-12, -3), grid.size)
            k0 = k * (1.0 + rng.uniform(-0.2, 0.2))

            def sq_residual(kk):
                r = vals - branch(kk * grid)
                return float(np.dot(r, r))

            ours = minimize_scalar(sq_residual, (0.7 * k0, 1.3 * k0), 1e-12)
            ref = scipy_minimize_scalar(sq_residual, bounds=(0.7 * k0, 1.3 * k0),
                                        method="bounded", options={"xatol": 1e-12})
            assert (ours.x, ours.fun, ours.nfev) == (ref.x, ref.fun, ref.nfev)
