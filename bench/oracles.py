"""Correctness oracles of the benchmark.

None of them reuses the kernels they check: defects are recomputed from
scalar handle calls at single points, certificate arithmetic from its own
formula, distances from scipy's QUADPACK, Chebyshev values from the closed
form.  Each oracle returns a list of failure messages, empty when the result
is right.  No oracle demands a verdict (``verified``, ``classified``) of an
input that is not an exact solution, so a change that makes the certificates
stricter does not trip them.
"""

from __future__ import annotations

import json
import math
import os

EPS = 2.0**-52
# scalar and vectorised libm paths may differ by a few ulps per term
ULPS = 32.0
REPORT_KEYS = {"command", "inputs", "results", "diagnostics", "status"}
STATUS_OF_EXIT = {0: "ok", 1: "verification-failed", 2: "input-error"}


def _grid_pairs(T: float, step: float, rng, count: int):
    """``count`` seeded node pairs of the uniform grid of [-T, T] nearest this step."""
    m = max(1, int(round(T / step)))
    for i, j in rng.integers(-m, m + 1, size=(count, 2)):
        yield T * int(i) / m, T * int(j) / m


def _defect_at(h, t: float, u: float) -> tuple[float, float]:
    """(|Delta_H(t, u)|, its rounding allowance) from four scalar handle calls."""
    a, b, c, d = h(t + u), h(t - u), h(t), h(u)
    return abs(a + b - 2.0 * c * d), ULPS * EPS * (abs(a) + abs(b) + 2.0 * abs(c * d))


def sup_defect(h, report, T: float, rng, samples: int = 256) -> list[str]:
    """|Delta| at the reported argmax equals epsilon, and no sampled grid pair exceeds it."""
    fails = []
    am = report.argmax
    value, allow = _defect_at(h, am.t, am.u)
    if abs(value - report.epsilon) > allow:
        fails.append(f"sup_defect: |Delta| at argmax is {value!r}, report says {report.epsilon!r}")
    for t, u in _grid_pairs(T, report.step, rng, samples):
        value, allow = _defect_at(h, t, u)
        if value > report.epsilon + allow:
            fails.append(f"sup_defect: |Delta({t!r}, {u!r})| = {value!r} exceeds eps {report.epsilon!r}")
            break
    return fails


def quadlog_epsilon(report, T: float) -> list[str]:
    """For H = 1 + t^2/2 the grid supremum is T^4/2, attained at the corners."""
    from reccost.fixtures import quadlog_defect_oracle

    expected = abs(quadlog_defect_oracle(T, T))
    if abs(report.epsilon - expected) > 1e-12 * expected:
        return [f"quadlog: epsilon {report.epsilon!r} differs from T^4/2 = {expected!r}"]
    return []


def identity_report(h, rep, T: float, step: float, rng, samples: int = 256) -> list[str]:
    """No sampled grid point violates an identity by more than the reported supremum."""
    for t, u in _grid_pairs(T, step, rng, samples):
        a, b, c, d = h(t + u), h(t - u), h(t), h(u)
        c2, d2 = c * c, d * d
        checks = (
            ("product_identity", abs(a * b - (c2 + d2 - 1.0)), abs(a * b) + c2 + d2 + 1.0),
            ("difference_square", abs((a - b) ** 2 - 4.0 * (c2 - 1.0) * (d2 - 1.0)),
             (abs(a) + abs(b)) ** 2 + 4.0 * (c2 + 1.0) * (d2 + 1.0)),
            ("double_angle", abs(h(2.0 * t) - (2.0 * c2 - 1.0)), abs(h(2.0 * t)) + 2.0 * c2 + 1.0),
            ("evenness", abs(h(-t) - c), abs(c)),
        )
        for field, value, scale in checks:
            reported = getattr(rep, field)
            if value > reported + ULPS * EPS * scale:
                return [f"identity_report: {field} at ({t!r}, {u!r}) is {value!r} > {reported!r}"]
    return []


def certificate(cert, exact: bool) -> list[str]:
    """delta = eps/h^2 + (1+B)Kh/3; verified iff the margin is >= 0; exact solutions verify."""
    fails = []
    ins = cert.inputs
    expected = ins.epsilon / (ins.h * ins.h) + (1.0 + ins.B) * ins.K * ins.h / 3.0
    if abs(cert.delta - expected) > 4.0 * EPS * expected:
        fails.append(f"certificate: delta {cert.delta!r} but delta(h) = {expected!r}")
    if bool(cert.verified) != (cert.max_envelope_margin >= 0.0):
        fails.append(
            f"certificate: verified={cert.verified} with margin {cert.max_envelope_margin!r}"
        )
    if exact and not cert.verified:
        fails.append("certificate: an exact solution did not verify")
    return fails


def exact_classification(branch: str, k, lam: float) -> list[str]:
    """An exact cosh(lam t) classifies as Cosh with k within 1e-9 of lam."""
    if branch != "Cosh" or k is None or abs(k - lam) > 1e-9:
        return [f"classify: exact cosh({lam!r} t) gave {branch}(k={k!r})"]
    return []


def distance_reference(x: float, y: float) -> float:
    """d_J(x, y) by QUADPACK on unit pieces of [ln x, ln y]."""
    from scipy import integrate

    lo, hi = sorted((math.log(x), math.log(y)))
    cuts = [lo] + [float(k) for k in range(math.ceil(lo), math.floor(hi) + 1) if lo < k < hi]
    cuts.append(hi)
    total = 0.0
    for p, q in zip(cuts, cuts[1:]):
        value, _ = integrate.quad(
            lambda u: math.sqrt(math.cosh(u)), p, q, epsabs=0.0, epsrel=1.2e-14, limit=200
        )
        total += value
    return total


def distance(value: float, reference: float, tol: float) -> list[str]:
    if not abs(value - reference) <= max(10.0 * tol, 1e-12 * reference):
        return [f"distance: {value!r} vs reference {reference!r} (tol {tol:g})"]
    return []


def local_ratio(value: float, reference: float) -> list[str]:
    if not abs(value - reference) <= 1e-12 * reference:
        return [f"local_equivalence_ratio: {value!r} vs reference {reference!r}"]
    return []


def chebyshev(check, x: float, n: int) -> list[str]:
    """J(x^n) = cosh(n arcosh(J(x) + 1)) - 1 = 2 sinh^2(n |ln x| / 2), both ways."""
    expected = 2.0 * math.sinh(0.5 * n * abs(math.log(x))) ** 2
    allow = 1e-10 * (1.0 + expected)
    fails = []
    for field in ("via_identity", "direct"):
        got = getattr(check, field)
        if not abs(got - expected) <= allow:
            fails.append(f"chebyshev: {field} = {got!r} for x={x!r}, n={n}, expected {expected!r}")
    return fails


def cli_report(path: str, code: int, expected_codes) -> tuple[dict | None, list[str]]:
    """Exit code as expected; the JSON report has exactly the five keys and a matching status."""
    fails = []
    if code not in expected_codes:
        fails.append(f"cli: exit code {code}, expected one of {sorted(expected_codes)}")
    if not os.path.exists(path):
        return None, fails + ["cli: no JSON report written"]
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    if set(report) != REPORT_KEYS:
        fails.append(f"cli: report keys {sorted(report)}")
    if report.get("status") != STATUS_OF_EXIT.get(code):
        fails.append(f"cli: status {report.get('status')!r} with exit code {code}")
    return report, fails
