"""Evaluable function handles: analytic families and interpolated sample tables.

Every handle stores one representation: the log-coordinate excess stack
``fns = (G, G', G'', G''')`` of ``G(t) = H(t) - 1 = F(e^t)``, as many
derivatives deep as the construction provides (3 for sample tables).  The
domain tag only says how callers address the handle:

    log-line         h(t) = G(t) + 1, derivatives G^(k)(t)
    positive-ratios  f(x) = G(ln x), derivatives by the chain rule below

so ``lift_to_log`` and ``to_ratio`` are coordinate changes that retag the
same stack; the lift is exact, ``H(t) = G(t) + 1`` with no round trip
through ``exp``/``log``.  Each handle also carries the interval on which it
may be evaluated.  Handles are immutable after construction and safe to
share across concurrent callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .core import LOG_LINE, POSITIVE_RATIOS
from .errors import DomainError

BUILTIN_FAMILY = "builtin-family"
SAMPLE_TABLE = "sample-table"

# exp() overflows just above 709.78; lifted handles stay clear of it
_EXP_MAX = 709.0

# With D = x d/dx = d/dt:  x^k F^(k) = sum_j s(k, j) G^(j)  (signed Stirling
# numbers of the first kind) and G^(k) = sum_j S(k, j) x^j F^(j) (second
# kind), j = 1..k.  These two tables are the whole log <-> ratio chain rule.
_RATIO_FROM_LOG = ((1.0,), (-1.0, 1.0), (2.0, -3.0, 1.0))
_LOG_FROM_RATIO = ((1.0,), (1.0, 1.0), (1.0, 3.0, 1.0))


@dataclass(frozen=True, eq=False)
class FunctionHandle:
    """A log-line excess stack plus the domain it is addressed in and its support.

    ``fns[k]`` is the k-th t-derivative of G = H - 1; all accept and return
    numpy arrays.  ``support`` is the closed interval of evaluable abscissas
    (in t for log-line handles, in x for positive-ratio handles).
    """

    kind: str
    domain: str
    name: str
    deriv_order: int
    support: tuple[float, float]
    fns: tuple[Callable, ...]

    def _check(self, arr: np.ndarray) -> None:
        if arr.size == 0:
            return
        if not np.all(np.isfinite(arr)):
            raise DomainError(f"{self.name}: non-finite abscissa")
        if self.domain == POSITIVE_RATIOS and float(np.min(arr)) <= 0.0:
            raise DomainError(f"{self.name}: positive-ratio handles require x > 0")
        lo, hi = self.support
        if float(np.min(arr)) < lo or float(np.max(arr)) > hi:
            raise DomainError(
                f"{self.name}: abscissa outside evaluable range [{lo:.6g}, {hi:.6g}]"
            )

    def _eval(self, z, order: int):
        arr = np.asarray(z, dtype=float)
        self._check(arr)
        if self.domain == LOG_LINE:
            out = self.fns[order](arr)
        elif order == 0:
            out = self.fns[0](np.log(arr))
        else:
            t = np.log(arr)
            coeffs = _RATIO_FROM_LOG[order - 1]
            out = sum(c * self.fns[j](t) for j, c in enumerate(coeffs, 1)) / arr**order
        out = np.asarray(out, dtype=float)
        return float(out) if arr.ndim == 0 else out

    def __call__(self, z):
        out = self._eval(z, 0)
        return out + 1.0 if self.domain == LOG_LINE else out

    def excess(self, z):
        """G(t) = H(t) - 1 on the log line; on positive ratios the value F(x) = G(ln x)."""
        return self._eval(z, 0)

    def derivative(self, z, order: int):
        if not 1 <= order <= self.deriv_order:
            raise DomainError(
                f"{self.name}: derivative of order {order} unavailable "
                f"(capability {self.deriv_order})"
            )
        return self._eval(z, order)

    def evaluable_on(self, lo: float, hi: float) -> bool:
        return self.support[0] <= lo and hi <= self.support[1]


def require_domain(h: FunctionHandle, domain: str, op: str) -> None:
    """Raise DomainError unless op was handed a handle addressed in ``domain``."""
    if h.domain != domain:
        noun = "log-line" if domain == LOG_LINE else "positive-ratio"
        raise DomainError(f"{op} needs a {noun} handle, got {h.domain}")


def _handle(kind, domain, name, fns, support) -> FunctionHandle:
    # the chain rule to x-derivatives stops at order 3
    order = len(fns) - 1 if domain == LOG_LINE else min(len(fns) - 1, 3)
    support = (float(support[0]), float(support[1]))
    return FunctionHandle(kind, domain, name, order, support, tuple(fns))


def _x_support(t_lo: float, t_hi: float) -> tuple[float, float]:
    return math.exp(max(t_lo, -_EXP_MAX + 1.0)), math.exp(min(t_hi, _EXP_MAX - 1.0))


def _t_support(x_lo: float, x_hi: float) -> tuple[float, float]:
    return max(math.log(x_lo), -_EXP_MAX), min(math.log(x_hi), _EXP_MAX)


def _excess_of_ratio(fns, k: int) -> Callable:
    """G^(k)(t) from a ratio-domain value/derivative stack, at x = e^t."""
    if k == 0:
        return lambda t: np.asarray(fns[0](np.exp(t)), dtype=float)

    def g(t):
        x = np.exp(t)
        return sum(c * fns[j](x) * x**j for j, c in enumerate(_LOG_FROM_RATIO[k - 1], 1))

    return g


def from_excess(domain: str, name: str, fns, t_support) -> FunctionHandle:
    """Builtin handle from a log-line excess stack (G, G', ...) on the t-interval t_support."""
    support = tuple(t_support) if domain == LOG_LINE else _x_support(*t_support)
    return _handle(BUILTIN_FAMILY, domain, name, fns, support)


def analytic(
    domain: str,
    name: str,
    fns,
    support=(-math.inf, math.inf),
) -> FunctionHandle:
    """Wrap a value callable plus optional derivative callables as a builtin handle.

    The callables and the support are given in the handle's own domain (H and
    its t-derivatives, or F and its x-derivatives); they are converted to the
    excess stack once, here.
    """
    if domain not in (LOG_LINE, POSITIVE_RATIOS):
        raise DomainError(f"unknown domain tag {domain!r}")
    lo, hi = float(support[0]), float(support[1])
    if domain == POSITIVE_RATIOS and not lo > 0.0:
        raise DomainError("positive-ratio support must have a positive lower edge")
    if domain == LOG_LINE:
        h0 = fns[0]
        gfns = (lambda t: np.asarray(h0(t), dtype=float) - 1.0,) + tuple(fns[1:])
    else:
        gfns = tuple(_excess_of_ratio(fns, k) for k in range(min(len(fns), 4)))
    return _handle(BUILTIN_FAMILY, domain, name, gfns, (lo, hi))


def _gtsv(dl: list, d: list, du: list, b: list) -> list:
    """LAPACK dgtsv on one right-hand side, in its elimination order with its
    partial pivoting: the tridiagonal solve of scipy's ``solve_banded((1, 1), ...)``."""
    n = len(d)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            b[i + 1] = b[i + 1] - fact * b[i]
            dl[i] = 0.0
        else:  # interchange rows i and i + 1; dl[i] takes the fill-in of row i
            fact = d[i] / dl[i]
            d[i], d[i + 1], du[i] = dl[i], du[i] - fact * d[i + 1], d[i + 1]
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            b[i], b[i + 1] = b[i + 1], b[i] - fact * b[i + 1]
    b[n - 1] = b[n - 1] / d[n - 1]
    b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    return b


def _cubic_spline(x: np.ndarray, y: np.ndarray) -> tuple[Callable, ...]:
    """``scipy.interpolate.CubicSpline(x, y)`` and its first three derivatives, not-a-knot.

    Bit for bit scipy's ``spline(z, nu)`` for n != 3.  Three rows give the
    interpolating parabola, whose slopes have a closed form; scipy solves a
    3x3 system for them instead, which lands within a few ulps.
    """
    n, dx = x.size, np.diff(x)
    slope = np.diff(y) / dx
    if n == 3:
        d0, d1, s0, s1 = float(dx[0]), float(dx[1]), float(slope[0]), float(slope[1])
        c = (s1 - s0) / (d0 + d1)
        s = [s0 - c * d0, (d1 * s0 + d0 * s1) / (d0 + d1), s1 + c * d1]
    elif n == 2:  # both end slopes clamped to the chord
        s = [float(slope[0])] * 2
    else:
        e, f = x[2] - x[0], x[-1] - x[-3]
        b = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        b0 = ((dx[0] + 2 * e) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / e
        bn = (dx[-1] ** 2 * slope[-2] + (2 * f + dx[-1]) * dx[-2] * slope[-1]) / f
        s = _gtsv(dx[1:].tolist() + [float(f)],
                  [float(dx[1])] + (2 * (dx[:-1] + dx[1:])).tolist() + [float(dx[-2])],
                  [float(e)] + dx[:-1].tolist(), [float(b0)] + b.tolist() + [float(bn)])
    s = np.array(s)
    # CubicHermiteSpline's coefficients, summed in PPoly's order: each sum starts from 0.0
    # (so -0.0 becomes 0.0) and the falling factorial multiplies last
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    c0, c1, c2, c3 = t / dx, (slope - s[:-1]) / dx - t, s[:-1] + 0.0, y[:-1] + 0.0

    def piece(z):
        z = np.asarray(z, dtype=float)
        i = np.clip(np.searchsorted(x, z, side="right") - 1, 0, n - 2)
        return i, z - x[i]

    def spline(z):
        i, h = piece(z)
        h2 = h * h
        return c3[i] + c2[i] * h + c1[i] * h2 + c0[i] * (h2 * h)

    def d1(z):
        i, h = piece(z)
        return c2[i] + c1[i] * h * 2.0 + c0[i] * (h * h) * 3.0

    def d2(z):
        i, h = piece(z)
        return c1[i] * 2.0 + 0.0 + c0[i] * h * 6.0

    def d3(z):
        return c0[piece(z)[0]] * 6.0 + 0.0

    return spline, d1, d2, d3


def sample_table(domain: str, xs, ys, name: str = "table") -> FunctionHandle:
    """Not-a-knot cubic interpolant over strictly increasing abscissas.

    Its values are those of ``scipy.interpolate.CubicSpline(xs, ys)`` (see
    ``_cubic_spline``), built in O(n) Python without scipy: 0.5 ms at 811
    rows and 54 ms at 1e5 (scipy: 0.6 ms and 8 ms, after a 0.5 s import).
    Queries outside [xs[0], xs[-1]] are a domain error, never extrapolated.
    The handle carries the interpolant's exact stack (G, G', G'', G'''), so
    its capability is 3.  On the log line G''' is piecewise constant; a
    positive-ratio table's stack is the chain rule of its x-spline.
    """
    if domain not in (LOG_LINE, POSITIVE_RATIOS):
        raise DomainError(f"unknown domain tag {domain!r}")
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
        raise DomainError("table needs two equal-length 1-D columns with >= 2 rows")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise DomainError("table contains non-finite entries")
    if np.any(np.diff(xs) <= 0):
        raise DomainError("table abscissas must be strictly increasing")
    if domain == POSITIVE_RATIOS and xs[0] <= 0.0:
        raise DomainError("positive-ratio table needs abscissas > 0")
    xs = xs.copy()  # the pieces look up their abscissas here; the coefficients are new arrays
    # interpolation is linear in the data, so the spline of ys - 1 is G = spline(ys) - 1
    stack = _cubic_spline(xs, ys - 1.0 if domain == LOG_LINE else ys)
    fns = stack if domain == LOG_LINE else tuple(_excess_of_ratio(stack, k) for k in range(4))
    return _handle(SAMPLE_TABLE, domain, name, fns, (xs[0], xs[-1]))


def lift_to_log(f: FunctionHandle) -> FunctionHandle:
    """Log-coordinate view H(t) = f(e^t) + 1 = G(t) + 1 of a positive-ratio handle.

    A retag of the same excess stack, so every derivative carries over.
    """
    require_domain(f, POSITIVE_RATIOS, "lift_to_log")
    return replace(f, domain=LOG_LINE, name=f"lift({f.name})", support=_t_support(*f.support))


def to_ratio(h: FunctionHandle) -> FunctionHandle:
    """Positive-ratio view F(x) = h(ln x) - 1 = G(ln x) of a log-line handle."""
    require_domain(h, LOG_LINE, "to_ratio")
    return replace(h, domain=POSITIVE_RATIOS, name=f"ratio({h.name})",
                   support=_x_support(*h.support), deriv_order=min(h.deriv_order, 3))
