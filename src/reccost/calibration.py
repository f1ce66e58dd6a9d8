"""Log-curvature estimation and classification of calibrated solution branches.

The log-curvature of a handle H with H(0) = 1 is kappa = lim_{t->0} 2(H(t)-1)/t^2.
A continuous d'Alembert solution with that limit is exactly one of

    Zero          H = 0                      (only when H(0) = 0)
    ConstantOne   H = 1                      (kappa = 0)
    Cos           H(t) = cos(k t),  kappa = -k^2
    Cosh          H(t) = cosh(k t), kappa = +k^2

From finite data we report an extrapolated kappa plus an uncertainty and
never claim the limit exists; existence is the caller's modeling assumption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import COSH_T_MAX
from .errors import ClassificationError, DomainError, PrecisionError, RangeOverflowError
from .grids import symmetric_grid
from .handles import LOG_LINE, FunctionHandle, require_domain

BRANCH_ZERO = "Zero"
BRANCH_CONSTANT_ONE = "ConstantOne"
BRANCH_COS = "Cos"
BRANCH_COSH = "Cosh"

_FIT_MAX_STEPS = 100
_CONST_TOL = 1e-8  # classify's tolerance for H(0) and for kappa = 0
_LADDER_LEVELS = 6


class ScalarFit(NamedTuple):
    """A bounded 1-D minimum: the abscissa, its value and the evaluations spent."""

    x: float
    fun: float
    nfev: int


def minimize_scalar(branch: str, grid: np.ndarray, vals: np.ndarray, k0: float,
                    bounds: tuple[float, float]) -> ScalarFit:
    """Least-squares scale k of the Cos or Cosh branch: the minimum of
    sum (vals - branch(k grid))^2 by Gauss-Newton from k0 (Nocedal & Wright,
    Numerical Optimization, 2006, sec. 10.3).

    Each step is k += sum(slope r) / sum(slope^2), with r the residual and slope
    = d branch(k t)/dk = t sinh(k t) or -t sin(k t), clamped to bounds.  The map
    from one k to the next is fixed, so the iteration stops once a k repeats
    (converged, or cycling within round-off of the minimum), on a NaN step, or
    after _FIT_MAX_STEPS evaluations.  It returns k0 and its sum instead where
    the last k's sum is not at most k0's (a NaN fails too).
    """
    lo, hi = bounds
    k, seen = k0, []
    while True:
        r = vals - branch_values(branch, k, grid)
        slope = grid * (np.sinh(k * grid) if branch == BRANCH_COSH else -np.sin(k * grid))
        fun = float(np.dot(r, r))
        if not seen:
            first = fun
        seen.append(k)
        k_next = min(max(k + float(np.dot(slope, r) / np.dot(slope, slope)), lo), hi)
        if k_next in seen or math.isnan(k_next) or len(seen) == _FIT_MAX_STEPS:
            return ScalarFit(k, fun, len(seen)) if fun <= first else ScalarFit(k0, first, len(seen))
        k = k_next


def branch_values(branch: str, k: float | None, t):
    """The solution branch at t: cosh(k t), cos(k t), 1 or 0."""
    if branch == BRANCH_COSH:
        return np.cosh(k * t)
    if branch == BRANCH_COS:
        return np.cos(k * t)
    return np.ones_like(t) if branch == BRANCH_CONSTANT_ONE else np.zeros_like(t)


@dataclass(frozen=True)
class CurvatureEstimate:
    """Extrapolated log-curvature with its uncertainty and the raw ratio table.

    ratio_table holds the six (h, q(h)) pairs of the ladder, steps halving;
    levels is the extrapolation depth used, 6 unless noise_limited is set:
    the extrapolants stopped improving before the sixth (round-off
    dominated), and the best stable level is returned.
    """

    kappa: float
    uncertainty: float
    ratio_table: tuple[tuple[float, float], ...]
    levels: int
    noise_limited: bool = False


@dataclass(frozen=True)
class BranchClassification:
    """The fitted branch, its scale k (None for Zero/ConstantOne), and diagnostics.

    residual is the sup deviation from the fitted branch on the classification
    window; kappa_used is the curvature estimate that selected the branch.
    grid is the residual grid of the window and values the handle on it, kept
    so that a plot of the fit needs no second evaluation.
    """

    branch: str
    k: float | None
    residual: float
    kappa_used: float
    grid: np.ndarray = field(repr=False, compare=False)
    values: np.ndarray = field(repr=False, compare=False)


def quad_ratio(h: FunctionHandle, step) -> float | np.ndarray:
    """q(step) = 2 G(step) / step^2 with the symmetrized excess (G(step) + G(-step))/2,
    which cancels odd components exactly.  G = H - 1 is what the handle stores, so no
    1 is added and cancelled again: q keeps G's relative precision at every step.
    An array of steps gives an array of q from one evaluation per sign; one step takes
    that path too and gives a float, so quad_ratio(h, s) == quad_ratio(h, [s])[0]."""
    require_domain(h, LOG_LINE, "quad_ratio")
    s = np.abs(np.atleast_1d(np.asarray(step, dtype=float)))
    if not np.all(np.isfinite(s) & (s * s >= np.finfo(float).tiny)):  # no step^2 may underflow
        raise DomainError(f"step must be finite with a normal square, got {step}")
    q = 2.0 * (0.5 * (h.excess(s) + h.excess(-s))) / (s * s)
    return float(q[0]) if np.ndim(step) == 0 else q


def _ladder_start(h: FunctionHandle, window_T: float | None) -> float:
    """estimate_kappa's first step, min(0.25, window_T/2, reach); refuses, by name, a window or
    a support whose bound on it leaves the 6th step, h0/32, a subnormal square."""
    reach = min(-h.support[0], h.support[1])
    half = math.inf if window_T is None else 0.5 * window_T
    for bound, what in ((half, f"window T = {window_T!r}"),
                        (reach, f"{h.name}: the support {list(h.support)}, of reach {reach!r},")):
        # min(bound, 1) squares no float above 1, so no reach overflows the test
        if not (bound > 0.0 and (min(bound, 1.0) / 32.0) ** 2 >= np.finfo(float).tiny):
            raise DomainError(f"{what} is too narrow for a curvature ladder")
    return min(0.25, half, reach)


def estimate_kappa(h: FunctionHandle, *, window_T: float | None = None) -> CurvatureEstimate:
    """Richardson-extrapolated log-curvature from the six-step ratio table q(h0 * 2^-k).

    q(h) = kappa + c2 h^2 + c4 h^4 + ... for smooth handles, so Neville elimination with
    factors 4^j applies once h is small.  The ladder starts at h0 = min(0.25, reach), the reach
    of a support [lo, hi] about 0 being min(-lo, hi), so a steep handle's first ladder is read,
    not refused.  Given a window [-window_T, window_T], keyword only, it starts at
    min(0.25, window_T/2, reach): the curvature that classify, certify and report measure.  A
    window or a support whose 6th step h0/32 has a subnormal square is a DomainError that names
    it.  While some step s has |q(s)| s^2 = 2 |G_sym(s)| > 1
    and the smallest step's value is below the largest's, h0 halves, at most 64 times, unless
    a NaN or a next smallest step with a subnormal square ends it; ratio_table holds the steps
    used.  q is formed from the stored excess G = H - 1, so it keeps G's relative error: an
    exact handle gives kappa to the last bit from any h0.  The uncertainty is the change between
    the last two extrapolants.  Each ladder is one quad_ratio call: two handle evaluations.  A
    kappa that is not finite with no NaN in the table is a RangeOverflowError.
    """
    s = _ladder_start(h, window_T) * 2.0 ** -np.arange(_LADDER_LEVELS)
    q = quad_ratio(h, s)
    for _ in range(64):
        v = np.abs(q) * (s * s)
        if not (np.max(v) > 1.0 and v[-1] < v[0] and 0.25 * s[-1]**2 >= np.finfo(float).tiny):
            break
        s = 0.5 * s
        q = quad_ratio(h, s)
    steps, qs = s.tolist(), q.tolist()  # Python floats, as every field must be

    diag: list[float] = []
    prev: list[float] = []
    for k, q in enumerate(qs):
        cur = [q]
        for j in range(1, k + 1):
            f = 4.0**j
            cur.append((f * cur[j - 1] - prev[j - 1]) / (f - 1.0))
        diag.append(cur[-1])
        prev = cur

    unc = [abs(diag[k] - diag[k - 1]) for k in range(1, len(diag))]
    table = tuple(zip(steps, qs))
    floor = 1e-14 * (1.0 + max(abs(d) for d in diag))
    used = _LADDER_LEVELS
    for i in range(1, len(unc)):
        if unc[i] > unc[i - 1] and unc[i] > floor:
            # extrapolants started diverging: noise-dominated beyond level i
            used = i + 1
            break
    if not math.isfinite(diag[used - 1]) and not np.isnan(qs).any():
        raise RangeOverflowError(f"{h.name}: estimate_kappa overflows, kappa = {diag[used - 1]!r}, "
                                 f"on the ladder from h0 = {steps[0]!r}")
    return CurvatureEstimate(kappa=diag[used - 1], uncertainty=unc[used - 2], ratio_table=table,
                             levels=used, noise_limited=used < _LADDER_LEVELS)


def classify(h: FunctionHandle, window_T: float) -> BranchClassification:
    """Classify a normalized handle into its unique solution branch.

    A window, or a support, too narrow for estimate_kappa's ladder is refused before the
    window is read, and so is a window_T past COSH_T_MAX, where the threshold 1e-6 cosh(window_T)
    would overflow.  Requires h(0) within _CONST_TOL = 1e-8 of 0 (Zero) or of 1.  Otherwise a
    finite curvature, estimate_kappa(h, window_T=window_T) (RangeOverflowError if it overflows),
    selects the branch: ConstantOne when |kappa| <= _CONST_TOL, else Cos or Cosh by its sign,
    with k refined by a least-squares fit on the window, Gauss-Newton (minimize_scalar) from
    sqrt(|kappa|), because sampled data make the purely local limit noisy
    while the global fit is well conditioned.  One rule accepts every branch:
    the sup residual |H - branch| on the nodes of [-window_T, window_T] at step window_T / 100
    must be <= _CONST_TOL for Zero and 1e-6 cosh(window_T) for the others; any other
    residual, NaN included, raises ClassificationError (not near any branch).
    """
    require_domain(h, LOG_LINE, "classify")
    if not (window_T > 0 and math.isfinite(window_T)):
        raise DomainError(f"window_T must be positive and finite, got {window_T}")
    if window_T > COSH_T_MAX:
        raise RangeOverflowError(f"window_T = {window_T:g} exceeds {COSH_T_MAX:g}; the "
                                 "residual threshold 1e-6 cosh(window_T) would overflow")
    _ladder_start(h, window_T)  # a window or support too narrow for the ladder, before the grid
    grid = symmetric_grid(window_T, window_T / 100.0)[1]
    vals = h(grid)
    h_at_0 = float(vals[grid.size // 2])  # the symmetric grid has t = 0 in its middle

    if abs(h_at_0) <= _CONST_TOL:
        branch, k, kappa, threshold = BRANCH_ZERO, None, 0.0, _CONST_TOL
    elif not abs(h_at_0 - 1.0) <= _CONST_TOL:
        raise ClassificationError(
            f"H(0) = {h_at_0!r} is near neither 0 nor 1 (tolerance {_CONST_TOL:g}); "
            "only normalized handles are classified"
        )
    else:
        est = estimate_kappa(h, window_T=window_T)
        kappa, threshold = est.kappa, 1e-6 * math.cosh(window_T)
        if not math.isfinite(kappa):
            raise ClassificationError(f"curvature estimate {kappa!r} is not finite; "
                                      "cannot pick a branch")
        if est.noise_limited and est.uncertainty > max(abs(kappa), _CONST_TOL):
            raise PrecisionError(
                f"curvature estimate {kappa:.3e} +- {est.uncertainty:.3e} is round-off "
                "dominated; cannot pick a branch"
            )
        if abs(kappa) <= _CONST_TOL:
            branch, k = BRANCH_CONSTANT_ONE, None
        else:
            branch = BRANCH_COSH if kappa > 0 else BRANCH_COS
            k0 = math.sqrt(abs(kappa))
            bracket = (0.7 * k0, 1.3 * k0)
            if branch == BRANCH_COSH and bracket[1] * window_T > COSH_T_MAX:
                raise RangeOverflowError(
                    f"window_T = {window_T:g} is too wide for the fit: cosh(k t) at the "
                    f"bracket top k = {bracket[1]:.6g} exceeds cosh({COSH_T_MAX:g})")
            k = float(minimize_scalar(branch, grid, vals, k0, bracket).x)

    residual = float(np.max(np.abs(vals - branch_values(branch, k, grid))))
    if not residual <= threshold:  # a NaN residual fails too
        fitted = branch if k is None else f"{branch}(k={k:.6g})"
        raise ClassificationError(
            f"not near any branch: sup residual {residual:.3e} vs {fitted} "
            f"exceeds the acceptance threshold {threshold:.3e}"
        )
    return BranchClassification(branch, k, residual, kappa, grid, vals)
