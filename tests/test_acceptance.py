"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the printed
values); every criterion asserts at its stated tolerance.
"""

import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from helpers import composite_simpson
from reccost import (
    ClassificationError,
    FamilySpec,
    LOG_LINE,
    certify,
    certify_ratio,
    chebyshev_cost,
    chebyshev_sequence,
    classify,
    defect_log,
    distance,
    estimate_kappa,
    golden_fixed_point,
    lift_to_log,
    make_family,
    ode_residual,
    perturb,
    sup_defect,
)
from reccost.stability import ENVELOPE_DELTA_TIMES_J

COSH_LOG = make_family(FamilySpec("cosh-lambda"), domain=LOG_LINE)


def _pass(n, msg):
    # bypass capture so the per-criterion line shows up in plain `pytest -v`
    print(f"ACCEPTANCE {n}: PASS - {msg}", file=sys.__stdout__)


def test_criterion_01_exact_solution_defect():
    t0 = time.perf_counter()
    rep = sup_defect(COSH_LOG, 3.0, 0.05)
    dt = time.perf_counter() - t0
    bound = 1e-10 * math.cosh(6.0)
    assert rep.epsilon <= bound
    assert dt < 1.0
    _pass(1, f"sup defect {rep.epsilon:.3e} <= {bound:.3e} in {dt:.3f}s")


def test_criterion_02_counterexample_closed_form():
    h = lift_to_log(make_family(FamilySpec("quadlog")))
    axis = np.linspace(-2.0, 2.0, 41)
    worst = 0.0
    for t in axis:
        for u in axis:
            d = defect_log(h, float(t), float(u))
            worst = max(worst, abs(d - (-0.5 * t * t * u * u)))
    assert worst <= 1e-12
    assert abs(defect_log(h, 1.0, 1.0) - (-0.5)) <= 1e-12
    _pass(2, f"max deviation from -t^2 u^2/2 on 41x41 grid: {worst:.3e}")


def test_criterion_03_calibration_recovery():
    for lam in (0.5, 1.0, 2.0):
        h = lift_to_log(make_family(FamilySpec("cosh-lambda", {"lambda": lam})))
        assert abs(estimate_kappa(h) - lam * lam) <= 1e-8 * lam * lam, lam
    assert abs(estimate_kappa(make_family(FamilySpec("cos-k", {"k": 0.7}))) - (-0.49)) <= 1e-8
    _pass(3, "kappa(F_lambda) = lambda^2 (rel 1e-8) and kappa(cos 0.7t) = -0.49 +- 1e-8")


def test_criterion_04_rigidity_classification():
    res = classify(make_family(FamilySpec("cosh-lambda", {"lambda": 2.0}), domain=LOG_LINE), 2.0)
    assert res.branch == "Cosh" and abs(res.k - 2.0) <= 1e-6 and res.residual <= 1e-8
    res = classify(make_family(FamilySpec("cos-k", {"k": 0.7})), 2.0)
    assert res.branch == "Cos" and abs(res.k - 0.7) <= 1e-6 and res.residual <= 1e-8
    res = classify(make_family(FamilySpec("constant-one")), 2.0)
    assert res.branch == "ConstantOne" and res.residual <= 1e-8
    try:
        classify(make_family(FamilySpec("quadlog"), domain=LOG_LINE), 2.0)
        raise AssertionError("quadlog must not classify")
    except ClassificationError:
        pass
    _pass(4, "cosh(2t)/cos(0.7t)/constant-1 classified; quadlog rejected")


def test_criterion_05_stability_certificate_soundness():
    t0 = time.perf_counter()
    eps_over_eta = []
    for eta in (1e-4, 1e-3):
        cert = certify(perturb(COSH_LOG, "poly4", eta), 1.0, 0.02)
        assert cert.verified
        assert cert.max_envelope_margin >= 0.0, eta
        eps_over_eta.append(cert.inputs.epsilon / eta)
    assert abs(eps_over_eta[1] / eps_over_eta[0] - 1.0) <= 0.05
    dt = time.perf_counter() - t0
    assert dt < 2.0
    _pass(5, f"envelope dominates for eta in {{1e-4, 1e-3}}; eps/eta ratio drift "
             f"{abs(eps_over_eta[1]/eps_over_eta[0]-1.0):.3%} in {dt:.3f}s")


def test_criterion_06_ratio_domain_bound():
    f = make_family(FamilySpec("cosh-lambda", {"lambda": 1.0}))
    cert = certify_ratio(f, 2.0, 0.05)
    assert abs(cert.inputs.a - 1.0) <= 1e-10
    assert cert.envelope.form == ENVELOPE_DELTA_TIMES_J
    assert cert.verified
    assert cert.max_observed_error <= 1e-10
    _pass(6, f"a = 1 {cert.inputs.a - 1.0:+.2e}; |F - J| <= delta*J with observed "
             f"error {cert.max_observed_error:.2e}")


def test_criterion_07_ode_residual():
    r = ode_residual(COSH_LOG, 1.0, 2.0, 0.05, 1e-4)
    assert r <= 1e-6
    _pass(7, f"central-difference residual of H'' = H: {r:.3e}")


def test_criterion_08_geometry():
    res = distance(1.0, math.e, 1e-10)
    oracle = composite_simpson(lambda u: math.sqrt(math.cosh(u)), 0.0, 1.0, 100_000)
    assert abs(res.value - oracle) <= 1e-10
    d1 = distance(2.0, 3.0, 1e-12).value
    d2 = distance(0.5, 1.0 / 3.0, 1e-12).value
    assert abs(d1 - d2) <= 1e-11
    dR = distance(1.0, 1e4, 1e-10).value
    assert abs(dR / (math.sqrt(2.0) * 100.0) - 1.0) <= 0.02
    _pass(8, f"d(1,e) = {res.value:.12f} matches Simpson oracle; reciprocal symmetry "
             f"{abs(d1 - d2):.2e}; growth ratio {dR/(math.sqrt(2.0)*100.0):.4f}")


def test_criterion_09_chebyshev():
    worst = max(chebyshev_cost(2.0, n).rel_discrepancy for n in range(16))
    assert worst <= 1e-9
    seq = chebyshev_sequence(math.cosh(1.0), 10)
    rel = abs(seq[-1] - math.cosh(10.0)) / math.cosh(10.0)
    assert rel <= 1e-9
    _pass(9, f"recursion vs direct discrepancy {worst:.2e}; H_10 vs cosh(10) rel {rel:.2e}")


def test_criterion_10_golden_ratio():
    phi, iters, cost = golden_fixed_point(1.0)
    assert abs(phi - 1.6180339887498949) <= 1e-12
    assert abs(cost - (phi - 1.5)) <= 1e-12
    _pass(10, f"phi = {phi!r} after {iters} iterations; J(phi) - (phi - 3/2) = "
              f"{cost - (phi - 1.5):+.2e}")


def test_criterion_11_full_invariant_suite_under_budget():
    root = Path(__file__).resolve().parent.parent
    t0 = time.perf_counter()
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "tests", "-q",
            "--ignore", str(root / "tests" / "test_acceptance.py"),
            "-p", "no:cacheprovider",
        ],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=600,
    )
    dt = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
    assert dt < 60.0
    _pass(11, f"full invariant suite green in {dt:.1f}s (< 60s)")
