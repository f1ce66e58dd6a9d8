import math
import re

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from reccost import (
    LOG_LINE,
    POSITIVE_RATIOS,
    DomainError,
    EnvelopeSpec,
    FamilySpec,
    PreconditionError,
    RangeOverflowError,
    analytic,
    certify,
    certify_ratio,
    delta_of_h,
    estimate_bounds,
    lift_to_log,
    make_family,
    optimal_h,
    parse_family_spec,
    perturb,
    sample_table,
    sup_defect,
)
from reccost.calibration import estimate_kappa
from reccost.grids import symmetric_grid
from reccost.stability import ENVELOPE_COSH_BRANCH, ENVELOPE_DELTA_TIMES_J, certificate_sweep

COSH_LOG = make_family(FamilySpec("cosh-lambda"), domain=LOG_LINE)


class TestEstimateBounds:
    def test_cosh(self):
        B, K = estimate_bounds(COSH_LOG, 2.0)
        assert abs(B - math.cosh(2.0)) <= 1e-12
        assert abs(K - math.sinh(2.0)) <= 1e-12

    def test_constant_one(self):
        B, K = estimate_bounds(make_family(FamilySpec("constant-one")), 5.0)
        assert (B, K) == (1.0, 0.0)

    def test_cos_on_pi(self):
        B, K = estimate_bounds(make_family(FamilySpec("cos-k", {"k": 1.0})), math.pi)
        assert abs(B - 1.0) <= 1e-9
        assert abs(K - 1.0) <= 1e-6

    def test_table_K_is_the_interpolants_third_derivative(self):
        from scipy.interpolate import CubicSpline

        ts = np.linspace(-2.2, 2.2, 441)
        h = sample_table(LOG_LINE, ts, np.cosh(ts))
        B, K = estimate_bounds(h, 2.0)
        grid = symmetric_grid(2.0, 2.0 / 1000.0)[1]
        assert K == float(np.max(np.abs(CubicSpline(ts, np.cosh(ts) - 1.0)(grid, nu=3))))
        assert abs(B - math.cosh(2.0)) <= 1e-6
        assert abs(K - math.sinh(2.0)) <= 0.01 * math.sinh(2.0)

    def test_K_is_read_on_the_T_over_1000_grid(self):
        # H''' of freq 50 peaks between the nodes of a coarser grid: T/50 reads 126.61
        h = make_family(parse_family_spec("noisy-cosh,amplitude=1e-3,freq=50"))
        grid = symmetric_grid(2.0, 2.0 / 1000.0)[1]
        peak = float(np.max(np.abs(h.derivative(grid, 3))))
        assert peak > 128.45
        assert estimate_bounds(h, 2.0)[1] >= peak

    def test_handle_without_third_derivative_is_refused(self):
        # refused by the handle's capability, as H''(0) is for a stack that stops below order 2
        h = analytic(LOG_LINE, "cosh", (np.cosh,))
        with pytest.raises(DomainError) as info:
            estimate_bounds(h, 2.0)
        assert str(info.value) == "cosh: derivative of order 3 unavailable (capability 0)"

    @pytest.mark.parametrize("spec, T, message", [
        ("noisy-cosh,freq=1e200", 2.0, "noisy-cosh(1,sine,0.001): K = sup |H'''| on [-T, T] "
         "is nan, which overflows double precision"),
        ("cosh-lambda,lambda=1e103", 1e-104, "cosh-lambda(1e+103): K = sup |H'''| on [-T, T] "
         "is nan, which overflows double precision"),
    ], ids=["freq", "lambda"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_bounds_that_are_not_finite_are_refused_by_name(self, spec, T, message):
        # K reads f^3 sin(f t) or lambda^3 sinh(lambda t), whose power overflows to inf
        with pytest.raises(RangeOverflowError) as info:
            estimate_bounds(make_family(parse_family_spec(spec), LOG_LINE), T)
        assert str(info.value) == message

    @pytest.mark.parametrize("T", [5e-324, 2e-321])
    def test_a_window_whose_step_underflows_is_refused_by_name(self, T):
        # T / 1000 rounds to 0; 2.5e-321 / 1000 rounds to the smallest subnormal, a step
        with pytest.raises(DomainError) as info:
            estimate_bounds(COSH_LOG, T)
        assert str(info.value) == f"T = {T!r} is too narrow: T / 1000 underflows to 0"
        assert estimate_bounds(COSH_LOG, 2.5e-321) == (1.0, 2.5e-321)


    def test_a_handle_narrower_than_the_window_is_refused_by_name(self):
        # the grid of [-2, 2] once reached past the table and was refused as an abscissa
        ts = np.linspace(-1.0, 1.0, 201)
        h = sample_table(LOG_LINE, ts, np.cosh(ts), name="narrow")
        with pytest.raises(DomainError) as info:
            estimate_bounds(h, 2.0)
        assert str(info.value) == "narrow: estimate_bounds needs evaluability on [-T, T] = [-2, 2]"


class TestDeltaOfH:
    def test_formula_values(self):
        assert abs(delta_of_h(0.0, 1.0, 3.0, 0.1) - 0.2) <= 1e-15
        assert abs(delta_of_h(0.01, 1.0, 3.0, 0.1) - 1.2) <= 1e-14
        assert delta_of_h(0.0, 123.0, 0.0, 0.5) == 0.0

    def test_validation(self):
        with pytest.raises(DomainError):
            delta_of_h(0.0, 1.0, 3.0, 0.0)
        with pytest.raises(DomainError):
            delta_of_h(-1.0, 1.0, 3.0, 0.1)
        with pytest.raises(DomainError):  # h^2 underflows
            delta_of_h(0.0, 1.0, 3.0, 1e-300)

    @pytest.mark.parametrize("call", [lambda: delta_of_h(1e-3, 1e160, 1e160, 0.5),
                                      lambda: optimal_h(1e-3, 1e160, 1e160, 1.0)],
                             ids=["delta_of_h", "optimal_h"])
    def test_an_overflowing_remainder_is_refused_by_b_and_k(self, call):
        # (1 + B) K = inf once gave optimal_h's h = 0, refused as a bad h
        with pytest.raises(RangeOverflowError, match=re.escape(
                "(1 + B) K at B = 1e+160, K = 1e+160 is inf, which overflows double precision")):
            call()


class TestOptimalH:
    def test_interior_stationary_point(self):
        assert abs(optimal_h(1e-6, 1.0, 3.0, 2.0) - 0.01) <= 1e-15

    def test_zero_defect_policy_floor(self):
        assert optimal_h(0.0, 1.0, 3.0, 2.0) == 0.02

    def test_clamped_at_window(self):
        assert optimal_h(1e3, 1.0, 3.0, 2.0) == 2.0

    def test_zero_third_derivative(self):
        assert optimal_h(1.0, 1.0, 0.0, 2.0) == 2.0

    @pytest.mark.parametrize("eps,B,K,T", [(1e-6, 1.0, 3.0, 2.0), (1e-3, 3.0, 2.0, 1.5)])
    def test_matches_numerical_minimizer(self, eps, B, K, T):
        h_star = optimal_h(eps, B, K, T)
        res = minimize_scalar(
            lambda h: delta_of_h(eps, B, K, h),
            bounds=(1e-6, T),
            method="bounded",
            options={"xatol": 1e-12},
        )
        assert abs(h_star - res.x) <= 1e-6 * h_star

    def test_delta_convexity_at_stationary_point(self):
        eps, B, K, T = 1e-6, 1.0, 3.0, 2.0
        h_star = optimal_h(eps, B, K, T)
        d_star = delta_of_h(eps, B, K, h_star)
        assert d_star <= delta_of_h(eps, B, K, 0.5 * h_star) + 1e-12 * d_star
        assert d_star <= delta_of_h(eps, B, K, 2.0 * h_star) + 1e-12 * d_star

    def test_validation(self):
        with pytest.raises(DomainError):
            optimal_h(1e-6, 1.0, 3.0, 0.0)


class TestCertify:
    def test_exact_solution(self):
        cert = certify(COSH_LOG, 2.0, 0.05)
        assert cert.verified
        assert cert.max_observed_error <= 1e-10
        assert cert.max_envelope_margin >= 0.0
        assert cert.envelope.form == ENVELOPE_COSH_BRANCH

    def test_family_member(self):
        h = make_family(FamilySpec("cosh-lambda", {"lambda": 1.5}), domain=LOG_LINE)
        cert = certify(h, 2.0, 0.05)
        assert cert.verified
        assert abs(cert.inputs.a - 2.25) <= 1e-8
        assert cert.max_observed_error <= 1e-9 * math.cosh(1.5 * 2.0)

    @pytest.mark.parametrize("eta", [1e-4, 1e-3])
    def test_perturbed_envelope_dominates(self, eta):
        pert = perturb(COSH_LOG, "poly4", eta)
        cert = certify(pert, 1.0, 0.02)
        assert cert.verified
        assert cert.max_envelope_margin >= 0.0
        assert cert.inputs.epsilon > 0.0

    def test_h_is_optimal_h(self):
        # h is not a knob: certify takes the h that minimizes delta(h) on its own bounds
        i = certify(COSH_LOG, 2.0, 0.05).inputs
        assert i.h == optimal_h(i.epsilon, i.B, i.K, i.T)

    @pytest.mark.parametrize("handle, error, message", [
        (analytic(LOG_LINE, "cosh", (np.cosh,)), DomainError,
         r"derivative of order 3 unavailable \(capability 0\)"),
        (make_family(FamilySpec("cos-k", {"k": 1.0})), PreconditionError,
         r"curvature a = -1.0 violates the hypothesis a > 0"),
        (analytic(LOG_LINE, "2cosh", (lambda t: 2.0 * np.cosh(t),)), PreconditionError,
         r"violates the normalization H\(0\) = 1"),
    ], ids=["no-third-derivative", "nonpositive-a", "not-normalized"])
    def test_refusals_come_before_the_defect_sweep(self, handle, error, message, monkeypatch):
        def no_sweep(*args):
            raise AssertionError("certify swept the defect before refusing")

        monkeypatch.setattr("reccost.stability.sup_defect", no_sweep)
        with pytest.raises(error, match=message):
            certify(handle, 2.0, 0.0002)

    @pytest.mark.parametrize("h", [
        COSH_LOG,
        perturb(COSH_LOG, "poly4", 1e-4),
        make_family(FamilySpec("cosh-lambda", {"lambda": 1.5}), domain=LOG_LINE),
        make_family(parse_family_spec("noisy-cosh,amplitude=1e-3,mode=trig,freq=7")),
        sample_table(LOG_LINE, np.arange(-440, 441) * 0.005,
                     np.cosh(np.arange(-440, 441) * 0.005)),
        lift_to_log(make_family(FamilySpec("cosh-lambda", {"lambda": 1.2}))),
    ], ids=["cosh", "poly4", "cosh-lambda", "noisy-cosh", "table", "ratio-lift"])
    def test_a_is_the_handles_own_curvature(self, h):
        # the Taylor step behind delta bounds H'' - H''(0) H, so a is H''(0) to the bit
        assert certify(h, 1.0, 0.05).inputs.a == estimate_kappa(h)

    def test_not_even_rejected(self):
        odd = analytic(
            LOG_LINE, "cosh+odd",
            (lambda t: np.cosh(t) + 1e-3 * t**3,), support=(-700.0, 700.0),
        )
        with pytest.raises(PreconditionError):
            certify(odd, 2.0, 0.05)

    @pytest.mark.parametrize("node", [0.0, 1.0])
    def test_nan_at_one_node_is_rejected(self, node):
        h = analytic(LOG_LINE, "cosh+nan", (lambda t: np.where(t == node, np.nan, np.cosh(t)),))
        with pytest.raises(PreconditionError, match="nan"):
            certify(h, 2.0, 0.05)

    @pytest.mark.parametrize("call", [lambda: certify(COSH_LOG, math.nan, 0.05),
                                      lambda: estimate_bounds(COSH_LOG, 0.0)],
                             ids=["certify-nan", "estimate-bounds-zero"])
    def test_window_must_be_positive_and_finite(self, call):
        # the CLI's grid refuses such a T before either is called
        with pytest.raises(DomainError, match="T must be positive and finite"):
            call()

    def test_wrong_normalization_rejected(self):
        z = make_family(FamilySpec("zero"))
        with pytest.raises(PreconditionError):
            certify(z, 2.0, 0.05)

    def test_negative_curvature_rejected(self):
        h = make_family(FamilySpec("cos-k", {"k": 1.0}))
        with pytest.raises(PreconditionError):
            certify(h, 2.0, 0.05)

    @pytest.mark.parametrize("a, error, message", [
        (1e-320, RangeOverflowError, "the envelope scale delta/a at a = 1e-320, delta = "
         "9.263303130602145e-05 is inf, which overflows double precision"),
        (1e300, RangeOverflowError, "sqrt(a) t at a = 1e+300 and the edge t = 1.5 is "
         "1.4999999999999999e+150, outside cosh's range [-700, 700]"),
    ], ids=["tiny", "huge"])
    def test_curvature_that_overflows_the_envelope_is_refused(self, a, error, message,
                                                              monkeypatch):
        # no builtin's H''(0) reaches either refusal, so the handle's curvature is patched in
        monkeypatch.setattr("reccost.stability.estimate_kappa", lambda h: a)
        with pytest.raises(error, match=re.escape(message)):
            certify(COSH_LOG, 2.0, 0.5)

    def test_an_overflowing_remainder_is_refused_by_b_and_k(self):
        h = make_family(FamilySpec("cosh-lambda", {"lambda": 350.0}), domain=LOG_LINE)
        with pytest.raises(RangeOverflowError, match=re.escape(
                "(1 + B) K at B = 5.035454435140399e+151, K = 2.158951089066446e+159 is inf, "
                "which overflows double precision")):
            certify(h, 1.0, 0.25)

    def test_largest_curvature_the_window_holds_is_certified(self, monkeypatch):
        # sqrt(a) * 1.5 = 699 sits just inside cosh's range, |x| <= 700
        monkeypatch.setattr("reccost.stability.estimate_kappa", lambda h: 466.0**2)
        cert = certify(COSH_LOG, 2.0, 0.5)
        assert math.isfinite(cert.max_observed_error) and not cert.verified

    def test_envelope_shape(self):
        cert = certify(COSH_LOG, 2.0, 0.05)
        ts, _, _, env, _ = certificate_sweep(cert)
        # even, zero at t = 0, strictly increasing in |t|
        assert env[np.argmin(np.abs(ts))] == 0.0
        assert np.allclose(env, env[::-1], rtol=0, atol=0)
        pos = env[ts >= 0]
        assert np.all(np.diff(pos) > 0)

    @pytest.mark.parametrize("t", [1e-8, 1e-5])
    def test_envelope_has_no_cancellation_near_zero(self, t):
        # cosh(t) - 1 reads 0.0 at t = 1e-8, and is 8.3e-8 off relative at t = 1e-5
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            exact = float(mpmath.cosh(mpmath.mpf(t)) - 1)
        for z in (t, -t):
            assert abs(EnvelopeSpec(1.0, 1.0).value(z) - exact) <= 2 * math.ulp(exact)

    def test_certificate_sweep_reproduces_certify(self):
        pert = perturb(COSH_LOG, "poly4", 1e-4)
        # 0.03 does not tile [-2, 2]: certify sweeps at the adjusted step 2/67
        for T, step in ((1.5, 0.05), (2.0, 0.03)):
            cert = certify(pert, T, step)
            ts, vals, branch, env, err = certificate_sweep(cert)
            axis = symmetric_grid(T, step)[1]
            assert np.array_equal(ts, axis[np.abs(axis) <= T - cert.inputs.h])
            assert np.array_equal(vals, pert(ts))
            assert float(np.max(err)) == cert.max_observed_error
            assert float(np.min(env - err)) == cert.max_envelope_margin
            assert np.array_equal(err, np.abs(vals - branch))

    def test_measured_defect_is_reused(self):
        pert = perturb(COSH_LOG, "poly4", 1e-4)
        # 0.03 does not tile [-2, 2]: the report carries the adjusted step 2/67
        rep = sup_defect(pert, 2.0, 0.03)
        assert certify(pert, 2.0, 0.03, defect=rep) == certify(pert, 2.0, 0.03)
        for T, step in ((1.5, 0.03), (2.0, 0.05)):
            with pytest.raises(DomainError, match="defect report"):
                certify(pert, T, step, defect=rep)

    def test_certify_sampled_cosh_table(self):
        # integer-multiple grid puts t = 0 exactly on a node
        ts = np.arange(-440, 441) * 0.005
        table = sample_table(LOG_LINE, ts, np.cosh(ts))
        cert = certify(table, 1.0, 0.05)
        assert cert.verified
        # a is the interpolant's own H''(0), 0.99999791..., not cosh's 1 (ROADMAP item 7)
        assert cert.inputs.a == table.derivative(0.0, 2)
        # the window's nodes are knots, where the table is cosh to the rounding, so the error
        # is the gap from cosh(t) to the branch cosh(sqrt(a) t): 1.09e-6
        gap = np.abs(np.cosh(cert.grid) - np.cosh(math.sqrt(cert.inputs.a) * cert.grid))
        assert cert.max_observed_error <= float(np.max(gap)) + 1e-12

    def test_soundness_on_builtin_members(self):
        handles = [
            make_family(FamilySpec("cosh-lambda", {"lambda": lam}), domain=LOG_LINE)
            for lam in (0.5, 1.0, 2.0)
        ] + [make_family(FamilySpec("powerlaw-w", {"lambda": 1.5}), domain=LOG_LINE)]
        for h in handles:
            cert = certify(h, 2.0, 0.05)
            assert cert.verified, h.name
            bound = 1e-9 * math.cosh(math.sqrt(cert.inputs.a) * 2.0)
            assert cert.max_observed_error <= bound, h.name


class TestPerturbationScaling:
    def test_epsilon_linear_in_amplitude(self):
        etas = [1e-4, 1e-3, 1e-2]
        ratios = []
        for eta in etas:
            pert = perturb(COSH_LOG, "poly4", eta)
            eps = sup_defect(pert, 1.0, 0.02).epsilon
            ratios.append(eps / eta)
        ref = ratios[0]
        for r in ratios[1:]:
            assert abs(r / ref - 1.0) <= 0.05


class TestScaleLaw:
    """H_c(t) = H(ct) on T/c at step/c, for c a power of two, has H's values at the same
    nodes, h/c for h, c^3 K for K and c^2 a for a: eps and delta/a do not move.  A verdict path
    with a dimensional slip, an absolute step or tolerance, breaks this law."""

    @pytest.mark.parametrize("family, params, scaled", [
        ("cosh-lambda", {"lambda": 1.5}, ("lambda",)),
        ("powerlaw-w", {"lambda": 1.5}, ("lambda",)),
        ("noisy-cosh", {"lambda": 1.0, "freq": 5.0, "mode": "sine"}, ("lambda", "freq")),
    ], ids=["cosh-lambda", "powerlaw-w", "noisy-cosh-sine"])
    @pytest.mark.parametrize("step", [0.05, 0.01])
    def test_a_rescaled_family_gets_the_same_certificate(self, family, params, scaled, step):
        T = 2.0
        ref = certify(make_family(FamilySpec(family, params), LOG_LINE), T, step)
        for c in (0.5, 2.0, 4.0):
            p = {key: c * v if key in scaled else v for key, v in params.items()}
            cert = certify(make_family(FamilySpec(family, p), LOG_LINE), T / c, step / c)
            assert cert.inputs.epsilon == ref.inputs.epsilon, c
            assert cert.verified == ref.verified, c
            scale, ref_scale = cert.delta / cert.inputs.a, ref.delta / ref.inputs.a
            assert abs(scale - ref_scale) <= 4 * math.ulp(ref_scale), c
            assert abs(c * cert.inputs.h - ref.inputs.h) <= 4 * math.ulp(ref.inputs.h), c


class TestCertifyRatio:
    def test_canonical_cost(self):
        f = make_family(FamilySpec("cosh-lambda", {"lambda": 1.0}))
        cert = certify_ratio(f, 2.0, 0.05)
        assert cert.verified
        assert abs(cert.inputs.a - 1.0) <= 1e-10
        assert cert.max_observed_error <= 1e-10
        assert cert.envelope.form == ENVELOPE_DELTA_TIMES_J

    def test_family_member(self):
        f = make_family(FamilySpec("cosh-lambda", {"lambda": 1.2}))
        cert = certify_ratio(f, 2.0, 0.05)
        assert cert.verified
        assert abs(cert.inputs.a - 1.44) <= 1e-8
        assert cert.envelope.form == ENVELOPE_COSH_BRANCH

    def test_quadlog_certificate_is_sound(self):
        # the bound is genuinely satisfied (large delta) or the verdict is negative
        f = make_family(FamilySpec("quadlog"))
        cert = certify_ratio(f, 2.0, 0.05)
        assert cert.max_envelope_margin >= 0.0 or not cert.verified

    def test_a_window_whose_x_overflows_is_refused(self):
        f = make_family(FamilySpec("quadlog"))  # evaluable on |t| <= 1e150
        with pytest.raises(RangeOverflowError, match=re.escape(
                "T is 710.0, outside cosh's range [-700, 700]")):
            certify_ratio(f, 710.0, 71.0)

    def test_a_narrow_support_is_refused_in_x_before_the_lift(self):
        # the refusal names certify_ratio and the ratio handle, not certify and lift(narrow)
        ts = np.linspace(-1.0, 1.0, 201)
        f = sample_table(POSITIVE_RATIOS, np.exp(ts), np.cosh(ts) - 1.0, name="narrow")
        with pytest.raises(DomainError) as info:
            certify_ratio(f, 2.0, 0.05)
        assert str(info.value) == ("narrow: certify_ratio needs evaluability on "
                                   "[e^-2T, e^2T] = [0.0183156, 54.5982]")

    def test_h_is_optimal_h(self):
        # as in certify, h minimizes delta(h) on the lifted handle's bounds
        f = make_family(FamilySpec("cosh-lambda", {"lambda": 1.2}))
        i = certify_ratio(f, 2.0, 0.05).inputs
        assert i.h == optimal_h(i.epsilon, i.B, i.K, i.T)

    def test_rejects_log_handle(self):
        with pytest.raises(DomainError):
            certify_ratio(COSH_LOG, 2.0, 0.05)

    def test_the_j_form_is_claimed_only_where_a_is_1(self):
        # the envelope bounds the distance to cosh(sqrt(a) t), which is J + 1 only at a = 1:
        # at a - 1 = 1e-12 the form delta * J would claim |F - J| <= delta J, which nothing bounds
        f = make_family(parse_family_spec("noisy-cosh,amplitude=1e-12,mode=sine,freq=1"),
                        domain=POSITIVE_RATIOS)
        cert = certify_ratio(f, 2.0, 0.05)
        assert 0.0 < cert.inputs.a - 1.0 < 1e-11
        assert cert.envelope.form == ENVELOPE_COSH_BRANCH

    @pytest.mark.parametrize("lam", [0.8, 1.0, 1.7])
    def test_consistent_with_lifted_certificate(self, lam):
        f = make_family(FamilySpec("cosh-lambda", {"lambda": lam}))
        cr = certify_ratio(f, 2.0, 0.05)
        cl = certify(lift_to_log(f), 2.0, 0.05)
        assert cr.verified == cl.verified
        assert abs(cr.delta - cl.delta) <= 1e-12 * cl.delta
