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

from .core import require_cosh_range, require_finite
from .errors import ClassificationError, PreconditionError
from .grids import symmetric_grid
from .handles import LOG_LINE, FunctionHandle, require_domain, require_window

BRANCH_ZERO = "Zero"
BRANCH_CONSTANT_ONE = "ConstantOne"
BRANCH_COS = "Cos"
BRANCH_COSH = "Cosh"

_FIT_MAX_STEPS = 100
_CONST_TOL = 1e-8  # classify's tolerance for H(0) = 0 and for kappa = 0


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
    # |r| <= |vals| + cosh(hi t) and |slope| <= |t| cosh(hi t): one exact power of two puts
    # both below 2^501, so 2^21 squares sum in range; fun is reported unscaled
    tmax = float(np.max(np.abs(grid)))
    size = (1.0 + tmax) * (math.cosh(min(hi * tmax, 710.0)) if branch == BRANCH_COSH else 1.0)
    scale = 2.0 ** -max(0, math.frexp(max(size, float(np.max(np.abs(vals)))))[1] - 500)
    k, seen = k0, []
    while True:
        r = (vals - branch_values(branch, k, grid)) * scale
        slope = (scale * grid) * (np.sinh(k * grid) if branch == BRANCH_COSH else -np.sin(k * grid))
        fun = float(np.dot(r, r))
        if not seen:
            first = fun
        seen.append(k)
        curvature = np.dot(slope, slope)  # 0 where every slope underflows: k repeats
        k_next = min(max(k + float(np.dot(slope, r) / curvature), lo), hi) if curvature else k
        if k_next in seen or math.isnan(k_next) or len(seen) == _FIT_MAX_STEPS:
            k, fun = (k, fun) if fun <= first else (k0, first)
            return ScalarFit(k, fun / scale / scale, len(seen))
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
    own value, which is the a that certify's Taylor step needs.  H(0) off 1 is refused first
    (require_normalized).  A handle whose stack stops below order 2, or whose support leaves
    out 0, is a DomainError; a NaN H''(0) is a PreconditionError and an infinite one a range
    overflow (core.require_finite), so every caller gets a finite kappa or this one refusal.
    """
    require_domain(h, LOG_LINE, "estimate_kappa")
    require_normalized(h(0.0))
    kappa = float(h.derivative(0.0, 2))
    if math.isnan(kappa):
        raise PreconditionError(f"{h.name}: H''(0) = nan is not a curvature")
    return require_finite(kappa, f"{h.name}: H''(0)")


def classify(h: FunctionHandle, window_T: float) -> BranchClassification:
    """Classify a normalized handle into its unique solution branch.

    A window_T past the handle's support or outside cosh's range is refused by name, and so is a
    Cosh fit whose bracket top k = 1.3 sqrt(kappa) takes k window_T out of that range.  An h(0)
    within _CONST_TOL = 1e-8 of 0 is Zero.  Otherwise the curvature estimate_kappa(h) = H''(0),
    which refuses an H(0) off 1 and a NaN or infinite H''(0) as it does for every caller,
    selects the branch: ConstantOne when |kappa| <= _CONST_TOL, else Cos or Cosh by its sign,
    with k refined by a least-squares fit on the window, Gauss-Newton (minimize_scalar) from
    sqrt(|kappa|), because sampled data make the purely local value noisy while the global fit
    is well conditioned.  One rule accepts every branch: the sup residual |H - branch| on the
    nodes of [-window_T, window_T] at step window_T / 100 must be <= the larger of _CONST_TOL
    and 1e-6 times the branch's own sup there (0, 1 or cosh(k window_T)); any other residual,
    NaN included, raises ClassificationError (not near any branch).
    """
    require_domain(h, LOG_LINE, "classify")
    require_window(h, window_T, "classify", name="window_T", cells=100)
    require_cosh_range(window_T, "window_T")
    grid = symmetric_grid(window_T, window_T / 100.0)[1]
    vals = h(grid)
    h_at_0 = float(vals[grid.size // 2])  # the symmetric grid has t = 0 in its middle

    if abs(h_at_0) <= _CONST_TOL:
        branch, k, kappa = BRANCH_ZERO, None, 0.0
    else:
        kappa = estimate_kappa(h)
        if abs(kappa) <= _CONST_TOL:
            branch, k = BRANCH_CONSTANT_ONE, None
        else:
            branch = BRANCH_COSH if kappa > 0 else BRANCH_COS
            k0 = math.sqrt(abs(kappa))
            bracket = (0.7 * k0, 1.3 * k0)
            if branch == BRANCH_COSH:  # the fit reads cosh(k t) up to the bracket's top
                require_cosh_range(bracket[1] * window_T, "k window_T at the fit's top k")
            k = float(minimize_scalar(branch, grid, vals, k0, bracket).x)

    branch_vals = branch_values(branch, k, grid)
    residual = float(np.max(np.abs(vals - branch_vals)))
    threshold = max(_CONST_TOL, 1e-6 * float(np.max(np.abs(branch_vals))))
    if not residual <= threshold:  # a NaN residual fails too
        fitted = branch if k is None else f"{branch}(k={k:.6g})"
        raise ClassificationError(
            f"not near any branch: sup residual {residual:.3e} vs {fitted} "
            f"exceeds the acceptance threshold {threshold:.3e}"
        )
    return BranchClassification(branch, k, residual, kappa, grid, vals)
