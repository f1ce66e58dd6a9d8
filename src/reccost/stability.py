"""Quantitative stability certificates for approximate d'Alembert solutions.

For an even, three-times differentiable H on [-T, T] with H(0) = 1 and
a = H''(0) > 0, a bounded defect forces H close to the cosh branch:

    |H(t) - cosh(sqrt(a) t)| <= (delta(h)/a) (cosh(sqrt(a)|t|) - 1)

for every 0 < h <= T and |t| <= T - h, with

    delta(h) = eps/h^2 + (1 + B) K h / 3,
    eps = sup |Delta_H| on [-T, T]^2,  B = sup |H|,  K = sup |H'''|.

certify() estimates every ingredient on explicit grids, picks the h that
minimizes delta(h), sweeps the window and reports a verified/failed verdict with
margins.  The certificate keeps the window it judged, its nodes and H on
them, so certificate_sweep() reads the verdict's own sweep back without
evaluating H again.  Hypothesis violations (not even, H(0) != 1, a <= 0) are
errors, not warnings; the verdict is still judged only at the window's nodes.
a is always H''(0), read from the handle's own stack (estimate_kappa): the
Taylor step behind delta bounds H'' - H''(0) H, so the bound holds for no other a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .calibration import BRANCH_COSH, branch_values, estimate_kappa, require_normalized
from .core import require_cosh_range, require_finite, validate_positive
from .dalembert import DefectReport, sup_defect
from .errors import DomainError, PreconditionError
from .grids import symmetric_grid
from .handles import (LOG_LINE, POSITIVE_RATIOS, FunctionHandle, lift_to_log, require_domain,
                      require_window)

ENVELOPE_COSH_BRANCH = "cosh-branch"
ENVELOPE_DELTA_TIMES_J = "delta-times-J"


@dataclass(frozen=True)
class StabilityInputs:
    """The certificate ingredients: window, step h, and the bounds eps, B, K, a."""

    T: float
    h: float
    epsilon: float
    B: float
    K: float
    a: float


@dataclass(frozen=True)
class EnvelopeSpec:
    """The error envelope t -> scale * (cosh(rate |t|) - 1).

    form is "cosh-branch" in general; "delta-times-J" marks the ratio-domain
    case a = 1 where the bound reads |F(x) - J(x)| <= delta * J(x).
    """

    scale: float
    rate: float
    form: str = ENVELOPE_COSH_BRANCH

    def value(self, t):
        return self.scale * (np.cosh(self.rate * np.abs(t)) - 1.0)


@dataclass(frozen=True)
class StabilityCertificate:
    inputs: StabilityInputs
    delta: float
    envelope: EnvelopeSpec
    max_observed_error: float
    max_envelope_margin: float  # min over the grid of envelope - |error|
    verified: bool
    # the window |t| <= T - h of the grid and H on it, kept so the sweep is never replayed
    grid: np.ndarray = field(repr=False, compare=False)
    values: np.ndarray = field(repr=False, compare=False)


def estimate_bounds(h: FunctionHandle, T: float) -> tuple[float, float]:
    """(B, K) = (sup |H|, sup |H'''|) on the T/1000 grid of [-T, T].

    K reads the handle's own H''', so a handle without one (an ``analytic``
    stack shorter than four) is refused by its capability.  A sample table's H''' is its
    cubic interpolant's, constant on each piece: H'' is Lipschitz with
    constant sup |6 c0| over the pieces, which is all the paper's remainder
    needs (H''' bounded, not continuous).  Both bounds are grid suprema, not
    enclosures, until validated enclosures land (ROADMAP item 5).  A B or K that is not
    finite, from an H or H''' that overflows, is a range overflow (core.require_finite).
    """
    require_domain(h, LOG_LINE, "estimate_bounds")
    require_window(h, T, "estimate_bounds", cells=1000)
    _, grid = symmetric_grid(T, T / 1000.0)
    B, K = np.max(np.abs(h(grid))), np.max(np.abs(h.derivative(grid, 3)))
    return (require_finite(B, f"{h.name}: B = sup |H| on [-T, T]"),
            require_finite(K, f"{h.name}: K = sup |H'''| on [-T, T]"))


def _check_bounds(epsilon: float, B: float, K: float) -> tuple[float, float]:
    """(eps, (1 + B) K), delta's two coefficients, once eps, B and K are >= 0 and finite."""
    for nm, v in (("epsilon", epsilon), ("B", B), ("K", K)):
        if not (float(v) >= 0.0 and math.isfinite(float(v))):
            raise DomainError(f"{nm} must be >= 0 and finite, got {v}")
    B, K = float(B), float(K)
    return float(epsilon), require_finite((1.0 + B) * K, f"(1 + B) K at B = {B!r}, K = {K!r}")


def delta_of_h(epsilon: float, B: float, K: float, h: float) -> float:
    """delta(h) = eps/h^2 + (1 + B) K h / 3, for a positive, finite h whose square is normal,
    eps, B and K >= 0 and finite (DomainError) and a finite (1 + B) K (core.require_finite)."""
    h = validate_positive(h, "h")
    if not h * h >= np.finfo(float).tiny:
        raise DomainError(f"h = {h!r} has no normal square")
    epsilon, c = _check_bounds(epsilon, B, K)
    return epsilon / (h * h) + c * h / 3.0


def optimal_h(epsilon: float, B: float, K: float, T: float) -> float:
    """The h minimizing delta over (0, T].

    delta'(h) = -2 eps/h^3 + (1+B)K/3 vanishes at h = (6 eps / ((1+B)K))^(1/3),
    clamped to T.  With eps = 0 the infimum is at h -> 0; the policy floor
    h = T/100 keeps eps/h^2 below round-off noise.  With (1+B)K = 0 delta is
    decreasing, so h = T.  eps, B and K are refused as delta_of_h refuses them.
    """
    T = validate_positive(T, "T")
    epsilon, c = _check_bounds(epsilon, B, K)
    if epsilon == 0.0:
        return T / 100.0
    return T if c == 0.0 else min(T, (6.0 * epsilon / c) ** (1.0 / 3.0))


def certify(h: FunctionHandle, T: float, step: float,
            defect: DefectReport | None = None) -> StabilityCertificate:
    """Build a stability certificate for a log-line handle on [-T, T].

    Checks the hypotheses (even, H(0) = 1 within 1e-6, a > 0), measures
    eps, B, K on grids, takes h = optimal_h(eps, B, K, T), refuses a T whose h has no
    normal square, and sweeps |t| <= T - h comparing |H(t) - cosh(sqrt(a) t)| against the
    envelope.  A B, K, (1 + B) K or delta/a that is not finite (core.require_finite) and a
    sqrt(a) t on the window outside cosh's range are range overflows, not failed hypotheses.
    It refuses in that order: H(0), evenness, K (a stack without H''' by its
    capability), then a = estimate_kappa(h) = H''(0), finite or refused there.  defect,
    sup_defect(h, T, step), saves that sweep if the caller has it.
    """
    require_domain(h, LOG_LINE, "certify")
    require_window(h, T, "certify", reach=2.0)

    actual_step, axis = symmetric_grid(T, step)
    if defect is not None and (defect.T, defect.step) != (float(T), actual_step):
        raise DomainError(f"defect report grid {(defect.T, defect.step)} is not {(T, actual_step)}")
    vals = h(axis)
    require_normalized(float(vals[axis.size // 2]))  # the symmetric axis has t = 0 in its middle
    even_dev = float(np.max(np.abs(vals - vals[::-1])))
    if not even_dev <= 1e-6 * max(1.0, float(np.max(np.abs(vals)))):
        raise PreconditionError(
            f"handle is not even: sup|H(-t) - H(t)| = {even_dev:.3e} on the grid"
        )

    B, K = estimate_bounds(h, T)  # a handle without H''' is refused before the sweep
    a = estimate_kappa(h)
    if not a > 0.0:  # a is finite: estimate_kappa refuses a NaN or infinite H''(0)
        raise PreconditionError(f"curvature a = {a!r} violates the hypothesis a > 0")
    epsilon = (sup_defect(h, T, step) if defect is None else defect).epsilon
    h_used = optimal_h(epsilon, B, K, T)
    try:  # optimal_h checked eps, B and K: delta_of_h can refuse h alone
        delta = delta_of_h(epsilon, B, K, h_used)
    except DomainError as exc:
        raise PreconditionError(
            f"T = {T!r} is too narrow for a certificate: its step {exc}") from None

    envelope = EnvelopeSpec(rate=math.sqrt(a), scale=require_finite(
        delta / a, f"the envelope scale delta/a at a = {a!r}, delta = {delta!r}"))
    ts = _sweep_grid(axis, T - h_used)
    edge = float(ts[-1])  # the window's outermost node, where branch and envelope are largest
    require_cosh_range(envelope.rate * edge, f"sqrt(a) t at a = {a!r} and the edge t = {edge!r}")
    k = (axis.size - ts.size) // 2  # the window is the middle of the symmetric axis
    ts, window, _, env, err = _sweep(ts, vals[k: k + ts.size], envelope)
    min_margin = float(np.min(env - err))
    return StabilityCertificate(
        inputs=StabilityInputs(T=float(T), h=h_used, epsilon=epsilon, B=B, K=K, a=a),
        delta=delta,
        envelope=envelope,
        max_observed_error=float(np.max(err)),
        max_envelope_margin=min_margin,
        verified=bool(min_margin >= 0.0),
        grid=ts,
        values=window,
    )


def _sweep_grid(axis: np.ndarray, half_width: float) -> np.ndarray:
    # the window |t| <= T - h of the certificate's own grid
    return axis[np.abs(axis) <= half_width]


def _sweep(ts: np.ndarray, vals: np.ndarray, envelope: EnvelopeSpec):
    # the branch cosh(sqrt(a) t) shares the envelope's rate sqrt(a)
    branch = branch_values(BRANCH_COSH, envelope.rate, ts)
    return ts, vals, branch, envelope.value(ts), np.abs(vals - branch)


def certificate_sweep(cert: StabilityCertificate):
    """(t, H, branch, envelope, |error|) on the window the certificate judged: the same
    sweep, from the same nodes and values, that gave its error and margin."""
    return _sweep(cert.grid, cert.values, cert.envelope)


def certify_ratio(f: FunctionHandle, T: float, step: float) -> StabilityCertificate:
    """Certificate for a positive-ratio handle over x in (e^-(T-h), e^(T-h)), T in cosh's range.

    Lifts to log coordinates and certifies there, h and a = H''(0) being the lift's as in
    certify; the envelope in x reads (delta/a)(cosh(sqrt(a) |ln x|) - 1).  Only where a is
    exactly 1 is the branch J + 1, and the envelope reported in the form delta * J(x).
    """
    require_domain(f, POSITIVE_RATIOS, "certify_ratio")
    require_window(f, T, "certify_ratio", reach=2.0)  # stated in x, before the lift renames f
    require_cosh_range(T, "T")  # so the window's x = e^(T - h) is finite
    cert = certify(lift_to_log(f), T, step)
    if cert.inputs.a == 1.0:
        cert = replace(cert, envelope=replace(cert.envelope, form=ENVELOPE_DELTA_TIMES_J))
    return cert
