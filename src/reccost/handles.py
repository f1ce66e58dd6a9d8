"""Evaluable function handles: analytic families and interpolated sample tables.

Every handle stores one representation: the log-coordinate excess stack
``fns = (G, G', G'', G''')`` of ``G(t) = H(t) - 1 = F(e^t)``, as many
derivatives deep as the construction provides (3 for sample tables).  A
handle's capability, its highest derivative, is the depth of that stack.
The domain tag only says how callers address the handle:

    log-line         h(t) = G(t) + 1, derivatives G^(k)(t)
    positive-ratios  f(x) = G(ln x), values only; lift_to_log reads its derivatives

Each handle also carries its support, the t-interval on which the stack may be
read, in t for both domains: a ratio query x is checked by ln x.  So
``lift_to_log`` and ``to_ratio`` retag the same stack and support, exactly:
``H(t) = G(t) + 1`` with no ``exp``/``log`` of either.  Handles are immutable
after construction and safe to share across concurrent callers.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .core import LOG_LINE, POSITIVE_RATIOS, validate_positive
from .errors import DomainError

# With D = x d/dx = d/dt:  G^(k) = sum_j S(k, j) x^j F^(j), j = 1..k (Stirling numbers
# of the second kind), the one chain rule: a stack given in x enters the log line by it.
_LOG_FROM_RATIO = ((1.0,), (1.0, 1.0), (1.0, 3.0, 1.0))


class FunctionHandle(NamedTuple):
    """A log-line excess stack plus the domain it is addressed in and its support.

    ``fns[k]`` is the k-th t-derivative of G = H - 1; all accept and return
    numpy arrays.  ``support`` is the closed t-interval on which the stack may
    be read, for both domains: a positive-ratio handle takes x with ln x in it.
    """

    domain: str
    name: str
    support: tuple[float, float]
    fns: tuple[Callable, ...]

    @property
    def deriv_order(self) -> int:
        """The highest derivative available: the stack's depth."""
        return len(self.fns) - 1

    def _eval(self, z, order: int):
        arr = np.asarray(z, dtype=float)
        ratio = self.domain == POSITIVE_RATIOS
        if arr.size and not np.all(np.isfinite(arr)):
            raise DomainError(f"{self.name}: non-finite abscissa")
        if arr.size and ratio and float(np.min(arr)) <= 0.0:
            raise DomainError(f"{self.name}: positive-ratio handles require x > 0")
        t = np.log(arr) if ratio else arr
        lo, hi = self.support
        if arr.size and (float(np.min(t)) < lo or float(np.max(t)) > hi):
            raise DomainError(f"{self.name}: {'ln x' if ratio else 'abscissa'} outside "
                              f"evaluable range [{lo:.6g}, {hi:.6g}]")
        out = np.asarray(self.fns[order](t), dtype=float)
        return float(out) if arr.ndim == 0 else out

    def __call__(self, z):
        out = self._eval(z, 0)
        return out + 1.0 if self.domain == LOG_LINE else out

    def excess(self, z):
        """G(t) = H(t) - 1 on the log line; on positive ratios the value F(x) = G(ln x)."""
        return self._eval(z, 0)

    def derivative(self, z, order: int):
        """G^(k)(t), k = order, of a log-line handle; lift_to_log gives a ratio handle's."""
        require_domain(self, LOG_LINE, "derivative")
        if not 1 <= order <= self.deriv_order:
            raise DomainError(
                f"{self.name}: derivative of order {order} unavailable "
                f"(capability {self.deriv_order})"
            )
        return self._eval(z, order)


def require_domain(h: FunctionHandle, domain: str, op: str) -> None:
    """Raise DomainError unless op was handed a handle addressed in ``domain``."""
    if h.domain != domain:
        noun = "log-line" if domain == LOG_LINE else "positive-ratio"
        raise DomainError(f"{op} needs a {noun} handle, got {h.domain}")


def require_window(h: FunctionHandle, T: float, op: str, name="T", reach=1.0, cells=0) -> None:
    """DomainError unless validate_positive(T, name) passes, T / cells (given cells) is not 0
    and h's support holds [-reach T, reach T]; a ratio handle is told its window in x."""
    T = validate_positive(T, name)
    if cells and T / cells == 0.0:  # a step of 0 that the caller never gave
        raise DomainError(f"{name} = {T!r} is too narrow: {name} / {cells} underflows to 0")
    lo, hi = -reach * T, reach * T
    if not (h.support[0] <= lo and hi <= h.support[1]):
        edge = name if reach == 1 else f"{reach:g}{name}"
        window = f"[-{edge}, {edge}]"
        if h.domain == POSITIVE_RATIOS:
            with np.errstate(over="ignore"):  # e^hi is inf past ln DBL_MAX
                window, lo, hi = f"[e^-{edge}, e^{edge}]", *np.exp([lo, hi]).tolist()
        raise DomainError(f"{h.name}: {op} needs evaluability on {window} = [{lo:g}, {hi:g}]")


def _excess_of_ratio(fns, k: int) -> Callable:
    """G^(k)(t) from a ratio-domain value/derivative stack, at x = e^t."""
    if k == 0:
        return lambda t: np.asarray(fns[0](np.exp(t)), dtype=float)

    def g(t):
        x = np.exp(t)
        return sum(c * fns[j](x) * x**j for j, c in enumerate(_LOG_FROM_RATIO[k - 1], 1))

    return g


def from_excess(domain: str, name: str, fns, t_support) -> FunctionHandle:
    """The one constructor: the excess stack (G, G', ...) on the t-interval t_support.

    It alone refuses a domain tag that is neither LOG_LINE nor POSITIVE_RATIOS."""
    if domain not in (LOG_LINE, POSITIVE_RATIOS):
        raise DomainError(f"unknown domain tag {domain!r}")
    return FunctionHandle(domain, name, (float(t_support[0]), float(t_support[1])), tuple(fns))


def analytic(
    domain: str,
    name: str,
    fns,
    support=(-math.inf, math.inf),
) -> FunctionHandle:
    """Wrap a value callable plus optional derivative callables as a builtin handle.

    The callables and the support are given in the handle's own domain (H and
    its t-derivatives, or F and its x-derivatives); they are converted to the
    excess stack and its t-support once, here.  An x-support's upper edge is
    capped at DBL_MAX, so the stack never reads F at x = inf.  Any tag but POSITIVE_RATIOS
    takes the log-line path, so from_excess refuses an unknown one before a log is taken.
    """
    if domain == POSITIVE_RATIOS and not float(support[0]) > 0.0:
        raise DomainError("positive-ratio support must have a positive lower edge")
    if domain != POSITIVE_RATIOS:
        h0 = fns[0]
        gfns = (lambda t: np.asarray(h0(t), dtype=float) - 1.0,) + tuple(fns[1:])
        return from_excess(domain, name, gfns, support)
    gfns = tuple(_excess_of_ratio(fns, k) for k in range(min(len(fns), 4)))
    return from_excess(domain, name, gfns, np.log(np.minimum(support, np.finfo(float).max)))


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
    # CubicHermiteSpline's coefficients of h^0..h^3 on each piece, h = z - x[i]; each is a new
    # array, so a caller that changes y afterwards leaves the spline as it was
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    coeffs = (y[:-1].copy(), s[:-1], (slope - s[:-1]) / dx - t, t / dx)

    def order(k):
        # the k-th derivative in PPoly's order: a sum from 0.0 (so -0.0 becomes 0.0) over j of
        # the coefficient of h^(j+k), times h^j, times the falling factorial (j+k)!/j!
        def g(z):
            z = np.asarray(z, dtype=float)
            i = np.clip(np.searchsorted(x, z, side="right") - 1, 0, n - 2)
            h = z - x[i]
            total, hj = 0.0, 1.0
            for j, c in enumerate(coeffs[k:]):
                # past the first term, at reads c as 0 at a node: a term in a positive power of
                # h drops there, as its +-0 leaves a sum as it is, where an inf c times 0 is NaN
                at = np.where(h == 0.0, 0.0, c[i]) if j else c[i]
                total = total + at * hj * math.perm(j + k, k)
                hj = hj * h
            return total

        return g

    return tuple(order(k) for k in range(4))


def sample_table(domain: str, xs, ys, name: str = "table") -> FunctionHandle:
    """Not-a-knot cubic interpolant over strictly increasing abscissas.

    Its values are those of ``scipy.interpolate.CubicSpline(xs, ys)`` (see
    ``_cubic_spline``), built in O(n) Python without scipy: 0.5 ms at 811
    rows and 54 ms at 1e5 (scipy: 0.6 ms and 8 ms, after a 0.5 s import).
    Queries outside [xs[0], xs[-1]] are a domain error, never extrapolated: the
    support is that interval, or for a ratio table [ln xs[0], ln xs[-1]] in t.
    The handle carries the interpolant's exact stack (G, G', G'', G'''), so
    its capability is 3.  On the log line G''' is piecewise constant; a
    positive-ratio table's stack is the chain rule of its x-spline.  An unknown domain tag is
    refused by from_excess.
    """
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
    if domain == POSITIVE_RATIOS:
        return analytic(domain, name, _cubic_spline(xs, ys), xs[[0, -1]])
    # interpolation is linear in the data, so the spline of ys - 1 is G = spline(ys) - 1
    return from_excess(domain, name, _cubic_spline(xs, ys - 1.0), xs[[0, -1]])


def lift_to_log(f: FunctionHandle) -> FunctionHandle:
    """Log-coordinate view H(t) = f(e^t) + 1 = G(t) + 1 of a positive-ratio handle.

    A retag of the same excess stack and t-support, so every derivative carries over.
    """
    require_domain(f, POSITIVE_RATIOS, "lift_to_log")
    return f._replace(domain=LOG_LINE, name=f"lift({f.name})")


def to_ratio(h: FunctionHandle) -> FunctionHandle:
    """Positive-ratio view F(x) = h(ln x) - 1 of a log-line handle: lift_to_log's inverse."""
    require_domain(h, LOG_LINE, "to_ratio")
    return h._replace(domain=POSITIVE_RATIOS, name=f"ratio({h.name})")
