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
from typing import Callable, NamedTuple

import numpy as np

from .core import COSH_T_MAX
from .errors import (ClassificationError, DomainError, ParameterError, PrecisionError,
                     RangeOverflowError)
from .grids import symmetric_grid
from .handles import LOG_LINE, FunctionHandle, require_domain

BRANCH_ZERO = "Zero"
BRANCH_CONSTANT_ONE = "ConstantOne"
BRANCH_COS = "Cos"
BRANCH_COSH = "Cosh"

_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_SQRT_EPS = math.sqrt(2.2e-16)
_FIT_MAX_FEV = 500


class ScalarFit(NamedTuple):
    """A bounded 1-D minimum: the abscissa, its value and the evaluations spent."""

    x: float
    fun: float
    nfev: int


def minimize_scalar(f: Callable[[float], float], bounds: tuple[float, float],
                    xatol: float) -> ScalarFit:
    """Minimise f on [a, b] by Brent's method (parabolic steps guarded by golden
    sections; Brent, Algorithms for Minimization without Derivatives, 1973).

    The same iteration as scipy.optimize's bounded minimize_scalar (fminbound),
    without its display and status options: it returns the same x, fun and
    nfev, bit for bit, and stops at the same 500 evaluations.
    """
    a, b = bounds
    x = w = v = a + _GOLDEN * (b - a)  # best, second best, previous second best
    fx = fw = fv = f(x)
    nfev = 1
    d = e = 0.0  # the last step and the one before
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(x) + xatol / 3.0
    while abs(x - xm) > 2.0 * tol1 - 0.5 * (b - a) and nfev < _FIT_MAX_FEV:
        golden = True
        if abs(e) > tol1:  # try the parabola through x, w, v
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, d
            if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
                golden = False
                d = p / q
                u = x + d
                if u - a < 2.0 * tol1 or b - u < 2.0 * tol1:
                    d = tol1 if xm >= x else -tol1
        if golden:
            e = (a if x >= xm else b) - x
            d = _GOLDEN * e
        u = x + (-1.0 if d < 0.0 else 1.0) * max(abs(d), tol1)
        fu = f(u)
        nfev += 1
        if fu <= fx:
            a, b = (x, b) if u >= x else (a, x)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (a, u) if u >= x else (u, b)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(x) + xatol / 3.0
    return ScalarFit(x, fx, nfev)


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

    ratio_table holds (h, q(h)) pairs on a decreasing geometric sequence of
    steps; levels is the extrapolation depth actually used; noise_limited is
    set when the extrapolants stopped improving before the requested depth
    (round-off dominated), in which case the best stable level is returned.
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


def quad_ratio(h: FunctionHandle, step: float) -> float:
    """q(step) = 2 G(step) / step^2 with the symmetrized excess (G(step) + G(-step))/2,
    which cancels odd components exactly.  G = H - 1 is what the handle stores, so no
    1 is added and cancelled again: q keeps G's relative precision at every step."""
    require_domain(h, LOG_LINE, "quad_ratio")
    s = abs(float(step))
    if not (math.isfinite(s) and s * s >= np.finfo(float).tiny):  # step^2 must not underflow
        raise DomainError(f"step must be finite with a normal square, got {step}")
    sym = 0.5 * (h.excess(s) + h.excess(-s))
    return 2.0 * sym / (s * s)


def estimate_kappa(h: FunctionHandle, h0: float = 0.25, levels: int = 6) -> CurvatureEstimate:
    """Richardson-extrapolated log-curvature from the ratio table q(h0 * 2^-k).

    q(h) has an even-power error expansion q = kappa + c2 h^2 + c4 h^4 + ...
    for smooth handles, so Neville elimination with factors 4^j applies.  q is
    formed from the stored excess G = H - 1, so each entry carries G's
    relative error and none is amplified by 1/h^2; an exact handle gives kappa
    to the last bit at any h0.  The uncertainty is the change between the last
    two extrapolants.
    """
    if not (h0 > 0.0 and math.isfinite(h0)):
        raise ParameterError(f"h0 must be positive and finite, got {h0}")
    levels = int(levels)
    if levels < 2:
        raise ParameterError(f"levels must be >= 2, got {levels}")
    deepest = h0 * 2.0 ** (1 - levels)
    if deepest * deepest < np.finfo(float).tiny:  # quad_ratio would refuse the last step
        raise ParameterError(f"h0 * 2^-(levels - 1) = {deepest:g} for h0 = {h0:g}, levels = "
                             f"{levels}: its square underflows; raise h0 or lower levels")
    steps = [h0 * 2.0 ** (-k) for k in range(levels)]
    qs = [quad_ratio(h, s) for s in steps]

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
    table = tuple((float(s), float(q)) for s, q in zip(steps, qs))
    floor = 1e-14 * (1.0 + max(abs(d) for d in diag))
    used = levels
    for i in range(1, len(unc)):
        if unc[i] > unc[i - 1] and unc[i] > floor:
            # extrapolants started diverging: noise-dominated beyond level i
            used = i + 1
            break
    return CurvatureEstimate(kappa=diag[used - 1], uncertainty=unc[used - 2], ratio_table=table,
                             levels=used, noise_limited=used < levels)


def window_curvature(h: FunctionHandle, window_T: float,
                     curvature: CurvatureEstimate | None = None) -> CurvatureEstimate:
    """estimate_kappa(h, h0 = min(0.25, window_T/2)) at 6 levels, the curvature classify,
    certify and report use on [-window_T, window_T], or curvature if it was measured so."""
    h0 = min(0.25, 0.5 * window_T)
    if curvature is None:
        return estimate_kappa(h, h0=h0)
    got = (curvature.ratio_table[0][0], len(curvature.ratio_table))
    if got != (h0, 6):
        raise DomainError(f"curvature ratio table (h0, levels) {got} is not {(h0, 6)}")
    return curvature


def classify(
    h: FunctionHandle,
    window_T: float,
    const_tol: float = 1e-8,
    residual_grid_step: float | None = None,
    residual_tol: float | None = None,
    curvature: CurvatureEstimate | None = None,
) -> BranchClassification:
    """Classify a normalized handle into its unique solution branch.

    Requires h(0) within const_tol of 0 (Zero) or of 1.  Otherwise a finite
    curvature, window_curvature(h, window_T) if not given, selects the branch:
    ConstantOne when |kappa| <= const_tol, else Cos or Cosh by its sign, with k
    refined by a one-dimensional least-squares fit on the window, initialized at
    sqrt(|kappa|), because sampled data make the purely local limit noisy while
    the global fit is well conditioned.  One rule accepts every branch: the sup
    residual |H - branch| on the nodes of [-window_T, window_T] at
    residual_grid_step (window_T / 100 if None) must be <= const_tol for Zero and
    residual_tol (default 1e-6 * cosh(window_T)) for the others; any other
    residual, NaN included, raises ClassificationError (not near any branch).
    """
    require_domain(h, LOG_LINE, "classify")
    if not (window_T > 0 and math.isfinite(window_T)):
        raise DomainError(f"window_T must be positive and finite, got {window_T}")
    if not all(math.isfinite(v) and v >= 0 for v in (const_tol, residual_tol) if v is not None):
        raise ParameterError(f"const_tol and residual_tol must be finite and >= 0, got "
                             f"{const_tol}, {residual_tol}")
    if residual_tol is None and window_T > COSH_T_MAX:
        raise RangeOverflowError(f"window_T = {window_T:g} exceeds {COSH_T_MAX:g}; the default "
                                 "residual_tol 1e-6 cosh(window_T) would overflow")
    accept = residual_tol if residual_tol is not None else 1e-6 * math.cosh(window_T)
    step = window_T / 100.0 if residual_grid_step is None else residual_grid_step
    grid = symmetric_grid(window_T, step)[1]
    vals = h(grid)
    h_at_0 = float(vals[grid.size // 2])  # the symmetric grid has t = 0 in its middle

    if abs(h_at_0) <= const_tol:
        branch, k, kappa, threshold = BRANCH_ZERO, None, 0.0, const_tol
    elif not abs(h_at_0 - 1.0) <= const_tol:
        raise ClassificationError(
            f"H(0) = {h_at_0!r} is near neither 0 nor 1 (tolerance {const_tol:g}); "
            "only normalized handles are classified"
        )
    else:
        est = window_curvature(h, window_T, curvature)
        kappa, threshold = est.kappa, accept
        if not math.isfinite(kappa):
            raise ClassificationError(f"curvature estimate {kappa!r} is not finite; "
                                      "cannot pick a branch")
        if est.noise_limited and est.uncertainty > max(abs(kappa), const_tol):
            raise PrecisionError(
                f"curvature estimate {kappa:.3e} +- {est.uncertainty:.3e} is round-off "
                "dominated; cannot pick a branch"
            )
        if abs(kappa) <= const_tol:
            branch, k = BRANCH_CONSTANT_ONE, None
        else:
            branch = BRANCH_COSH if kappa > 0 else BRANCH_COS
            k0 = math.sqrt(abs(kappa))
            bracket = (0.7 * k0, 1.3 * k0)
            if branch == BRANCH_COSH and bracket[1] * window_T > COSH_T_MAX:
                raise RangeOverflowError(
                    f"window_T = {window_T:g} is too wide for the fit: cosh(k t) at the "
                    f"bracket top k = {bracket[1]:.6g} exceeds cosh({COSH_T_MAX:g})")

            def sq_residual(k: float) -> float:
                r = vals - branch_values(branch, k, grid)
                return float(np.dot(r, r))

            fit = minimize_scalar(sq_residual, bracket, 1e-12)
            k = float(fit.x) if fit.fun <= sq_residual(k0) else k0

    residual = float(np.max(np.abs(vals - branch_values(branch, k, grid))))
    if not residual <= threshold:  # a NaN residual fails too
        fitted = branch if k is None else f"{branch}(k={k:.6g})"
        raise ClassificationError(
            f"not near any branch: sup residual {residual:.3e} vs {fitted} "
            f"exceeds the acceptance threshold {threshold:.3e}"
        )
    return BranchClassification(branch, k, residual, kappa, grid, vals)
