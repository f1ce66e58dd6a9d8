"""Log-curvature and classification of calibrated solution branches.

The log-curvature of a handle H with H(0) = 1 is kappa = lim_{t->0} 2(H(t)-1)/t^2,
which for a twice-differentiable H is H''(0).  A continuous d'Alembert solution
with that curvature is exactly one of

    Zero          H = 0                      (only when H(0) = 0)
    ConstantOne   H = 1                      (kappa = 0)
    Cos           H(t) = cos(k t),  kappa = -k^2
    Cosh          H(t) = cosh(k t), kappa = +k^2

kappa is read from the handle's own derivative stack at t = 0, with no step
and no window: the paper's calibration (hypothesis (iii)) is kappa = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import COSH_T_MAX
from .errors import ClassificationError, PreconditionError, RangeOverflowError
from .grids import symmetric_grid
from .handles import LOG_LINE, FunctionHandle, require_domain, require_window

BRANCH_ZERO = "Zero"
BRANCH_CONSTANT_ONE = "ConstantOne"
BRANCH_COS = "Cos"
BRANCH_COSH = "Cosh"

_FIT_MAX_STEPS = 100
_CONST_TOL = 1e-8  # classify's tolerance for H(0) and for kappa = 0


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
    (converged, cycling within round-off of the minimum, or every slope 0), on a
    NaN step, or after _FIT_MAX_STEPS evaluations.  It returns k0 and its sum
    instead where the last k's sum is not at most k0's (a NaN fails too).
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
        curvature = np.dot(slope, slope)  # 0 where every slope underflows: k repeats
        k_next = min(max(k + float(np.dot(slope, r) / curvature), lo), hi) if curvature else k
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


def require_normalized(h_at_0: float) -> None:
    """PreconditionError unless H(0) is within 1e-6 of 1, which a NaN is not."""
    if not abs(h_at_0 - 1.0) <= 1e-6:
        raise PreconditionError(f"H(0) = {h_at_0!r} violates the normalization H(0) = 1 "
                                "(tolerance 1e-06)")


def estimate_kappa(h: FunctionHandle) -> float:
    """The log-curvature kappa = H''(0), read once from the handle's own stack at t = 0.

    A builtin's stack gives it in closed form and a sample table's is its cubic interpolant's
    own value, which is the a that certify's Taylor step needs.  H(0) off 1 is refused first.  A
    handle whose stack stops below order 2, or whose support leaves out 0, is a DomainError; an
    infinite H''(0) is a RangeOverflowError.  A NaN is returned, for the caller to refuse.
    """
    require_domain(h, LOG_LINE, "estimate_kappa")
    require_normalized(h(0.0))
    kappa = float(h.derivative(0.0, 2))
    if math.isinf(kappa):
        raise RangeOverflowError(f"{h.name}: estimate_kappa overflows, H''(0) = {kappa!r}")
    return kappa


def classify(h: FunctionHandle, window_T: float) -> BranchClassification:
    """Classify a normalized handle into its unique solution branch.

    A window_T past the handle's support or past COSH_T_MAX, where the threshold 1e-6
    cosh(window_T) would overflow, is refused by name before the window is read.  Requires h(0)
    within _CONST_TOL = 1e-8 of 0 (Zero) or of 1.  Otherwise the curvature estimate_kappa(h)
    = H''(0) (RangeOverflowError if it overflows, ClassificationError if it is NaN) selects
    the branch: ConstantOne when |kappa| <= _CONST_TOL, else Cos or Cosh by its sign, with k
    refined by a least-squares fit on the window, Gauss-Newton (minimize_scalar) from
    sqrt(|kappa|), because sampled data make the purely local value noisy while the global
    fit is well conditioned.  One rule accepts
    every branch: the sup residual |H - branch| on the nodes of [-window_T, window_T] at step
    window_T / 100 must be <= _CONST_TOL for Zero and 1e-6 cosh(window_T) for the others; any
    other residual, NaN included, raises ClassificationError (not near any branch).
    """
    require_domain(h, LOG_LINE, "classify")
    require_window(h, window_T, "classify", name="window_T", cells=100)
    if window_T > COSH_T_MAX:
        raise RangeOverflowError(f"window_T = {window_T:g} exceeds {COSH_T_MAX:g}; the "
                                 "residual threshold 1e-6 cosh(window_T) would overflow")
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
        kappa, threshold = estimate_kappa(h), 1e-6 * math.cosh(window_T)
        if math.isnan(kappa):
            raise ClassificationError("the curvature H''(0) is nan; cannot pick a branch")
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
