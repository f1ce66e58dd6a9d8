"""Defect computation for the d'Alembert equation and its ratio-domain form.

The log-coordinate equation is H(t+u) + H(t-u) = 2 H(t) H(u); its defect is

    Delta_H(t, u) = H(t+u) + H(t-u) - 2 H(t) H(u),

zero exactly for solutions.  On positive ratios the equivalent composition
law reads F(xy) + F(x/y) = 2 F(x) F(y) + 2 F(x) + 2 F(y).  Both are one
kernel in the excess G(t) = H(t) - 1 = F(e^t) that every handle stores:

    Delta = G(t+u) + G(t-u) - 2 G(t) G(u) - 2 G(t) - 2 G(u),

which keeps the precision of G near t = 0 instead of cancelling 1s in H.

Suprema are reported over explicit uniform grids, never over the continuum;
every report carries the grid spec so certificates are explicit about the
discretization.  On the grid {k s} of [-T, T] every t + u, t - u and 2t is a
node k s of [-2T, 2T]: each sweep evaluates G once, on those nodes, reduces
the n x n tables in row blocks (memory O(n) plus one block), and its max
reductions are order-independent, so sweeps are deterministic.  When G is
bitwise even on the symmetric nodes (a NaN never is), as for solutions, Delta
is bitwise invariant under t -> -t and u -> -u: its first NaN, else first max
|Delta|, lies in the quadrant t, u <= 0, the (m + 1)^2 of n^2 = (2m + 1)^2
pairs sup_defect reduces.  identity_report's rounding is invariant only under
(t, u) -> (-t, -u): it reduces the (m + 1) n pairs of the rows t <= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import validate_log_coord, validate_positive_ratio
from .errors import DomainError
from .grids import symmetric_grid
from .handles import LOG_LINE, POSITIVE_RATIOS, FunctionHandle, require_domain

__all__ = [
    "DefectSample",
    "DefectReport",
    "IdentityViolations",
    "defect_log",
    "defect_ratio",
    "defect_grid",
    "sup_defect",
    "identity_report",
    "ode_residual",
]


@dataclass(frozen=True)
class DefectSample:
    """One evaluation of the defect: the point (t, u) and the signed value."""

    t: float
    u: float
    delta: float


@dataclass(frozen=True)
class DefectReport:
    """Grid supremum of |Delta_H| with the attaining sample and the grid spec."""

    epsilon: float
    argmax: DefectSample
    T: float
    step: float
    count: int


@dataclass(frozen=True)
class IdentityViolations:
    """Grid suprema of the absolute violation of four solution identities.

    product_identity:  H(t+u) H(t-u) = H(t)^2 + H(u)^2 - 1
    difference_square: (H(t+u) - H(t-u))^2 = 4 (H(t)^2 - 1)(H(u)^2 - 1)
    double_angle:      H(2t) = 2 H(t)^2 - 1
    evenness:          H(-t) = H(t)

    All four hold for every solution normalized by H(0) = 1; the trivial
    solution H = 0 satisfies the equation but not these identities.
    """

    product_identity: float
    difference_square: float
    double_angle: float
    evenness: float


_BLOCK_ELEMS = 1 << 16  # elements per row block: 512 KB of float64, so temporaries stay in cache


def _kernel(gs, gd, gt, gu):
    """Delta from G(t+u), G(t-u), G(t), G(u) into one new array; gt broadcasts down, gu across."""
    two_gt = 2.0 * gt  # doubling is exact: 2 (G(t) G(u) + G(t) + G(u)) in three passes
    cross = two_gt * gu
    cross += two_gt
    cross += 2.0 * gu
    out = gs + gd
    out -= cross
    return out


def _excess_sweep(h: FunctionHandle, T: float, step: float, op: str):
    """(step, axis, G(nodes), G(t), G(t+u), G(t-u), half) for the symmetric grid of [-T, T];
    the n x n tables are read-only views: t_i + u_j is node i + j, t_i - u_j node n - 1 + i - j."""
    require_domain(h, LOG_LINE, op)
    actual_step, axis = symmetric_grid(T, step)
    if not h.evaluable_on(-2.0 * T, 2.0 * T):
        raise DomainError(f"{h.name}: {op} needs evaluability on [-2T, 2T] = [{-2*T:g}, {2*T:g}]")
    n, m = axis.size, axis.size // 2
    far = symmetric_grid(2.0 * T, actual_step)[1][3 * m + 1:]  # k s for m < k < 2m, then 2T
    nodes = h.excess(np.concatenate([-far[::-1], axis, far]))  # +-T exact, where m s may not be
    half = m + 1 if np.array_equal(nodes, nodes[::-1]) else n  # the rows t <= 0 if G is even
    return (actual_step, axis, nodes, nodes[m: m + n], sliding_window_view(nodes, n),
            sliding_window_view(nodes[::-1], n)[::-1], half)


def _row_blocks(rows: int, width: int):
    """Slices of rows 0..rows of a table width wide, each about _BLOCK_ELEMS elements."""
    size = max(1, _BLOCK_ELEMS // width)
    return (slice(r0, min(r0 + size, rows)) for r0 in range(0, rows, size))


def _defect_blocks(h: FunctionHandle, T: float, step: float, mirror: bool = True):
    """(step, axis, w, blocks of (r0, Delta[r0:r1, :w])): w is n, or half when mirror."""
    actual_step, axis, _, g, sums, diffs, half = _excess_sweep(h, T, step, "sup_defect")
    w = half if mirror else axis.size
    blocks = ((r.start, _kernel(sums[r, :w], diffs[r, :w], g[r, None], g[:w]))
              for r in _row_blocks(w, w))
    return actual_step, axis, w, blocks


def defect_grid(h: FunctionHandle, T: float, step: float):
    """(step, axis, Delta) with Delta[i, j] = Delta_H(axis[i], axis[j]) on the grid of [-T, T]."""
    actual_step, axis, _, blocks = _defect_blocks(h, T, step, mirror=False)
    return actual_step, axis, np.concatenate([delta for _, delta in blocks])


def _defect_report(T: float, step: float, axis: np.ndarray, w: int, blocks) -> DefectReport:
    """The DefectReport of _defect_blocks: their first NaN, else first max |Delta|, row-major."""
    picks = []  # (row-major index, Delta) of each block's pick
    for r0, delta in blocks:
        k = int(np.argmax(np.abs(delta)))
        picks.append((r0 * w + k, float(delta.flat[k])))
    flat, worst_delta = picks[int(np.argmax([abs(d) for _, d in picks]))]  # the same across blocks
    i, j = divmod(flat, w)
    worst = DefectSample(float(axis[i]), float(axis[j]), worst_delta)
    return DefectReport(abs(worst_delta), worst, float(T), step, count=axis.size**2)


def defect_log(h: FunctionHandle, t: float, u: float) -> float:
    """Delta_H(t, u) = H(t+u) + H(t-u) - 2 H(t) H(u)."""
    require_domain(h, LOG_LINE, "defect_log")
    t, u = validate_log_coord(t), validate_log_coord(u)
    return float(_kernel(*h.excess(np.array([t + u, t - u, t, u]))))


def defect_ratio(f: FunctionHandle, x: float, y: float) -> float:
    """Composition-law defect F(xy) + F(x/y) - 2 F(x) F(y) - 2 F(x) - 2 F(y)."""
    require_domain(f, POSITIVE_RATIOS, "defect_ratio")
    x, y = validate_positive_ratio(x), validate_positive_ratio(y)
    return float(_kernel(*f.excess(np.array([x * y, x / y, x, y]))))


def sup_defect(h: FunctionHandle, T: float, step: float) -> DefectReport:
    """Max of |Delta_H| over the inclusive uniform grid {-T, ..., T}^2.

    Requires h evaluable on [-2T, 2T] since t + u reaches 2T at the corners.
    Ties at the max resolve to the first point in row-major order, so the
    report is deterministic.
    """
    return _defect_report(T, *_defect_blocks(h, T, step))


def identity_report(h: FunctionHandle, T: float, step: float) -> IdentityViolations:
    """Grid suprema of the four identity violations; see IdentityViolations.

    Evaluated in G = H - 1, where H^2 - 1 = G (G + 2).
    """
    _, _, nodes, g, sums, diffs, half = _excess_sweep(h, T, step, "identity_report")
    q = g * (g + 2.0)
    product_identity = difference_square = 0.0
    for r in _row_blocks(half, g.size):
        s, d = sums[r], diffs[r]
        # in place: numpy does not reliably reuse the temporaries of a longer expression
        product = s * d
        product += s
        product += d
        product -= q[r, None]
        product -= q
        square = s - d
        square *= square
        square -= np.outer(4.0 * q[r], q)
        # np.maximum, unlike max(), keeps a NaN
        product_identity = np.maximum(product_identity, _sup_abs(product))
        difference_square = np.maximum(difference_square, _sup_abs(square))
    return IdentityViolations(
        product_identity=float(product_identity),
        difference_square=float(difference_square),
        double_angle=_sup_abs(nodes[::2] - 2.0 * q),
        evenness=_sup_abs(g[::-1] - g),
    )


def _sup_abs(a: np.ndarray) -> float:
    """max |a|, overwriting a."""
    return float(np.max(np.abs(a, out=a)))


def ode_residual(h: FunctionHandle, a: float, T: float, step: float, fd_h: float) -> float:
    """Grid supremum of |D_fd(t) - a h(t)| with D the central second difference.

    D_fd(t) = (h(t + fd_h) - 2 h(t) + h(t - fd_h)) / fd_h^2.  Small when h
    solves h'' = a h with a the log-curvature; needs h evaluable on
    [-T - fd_h, T + fd_h].
    """
    require_domain(h, LOG_LINE, "ode_residual")
    a = float(a)
    if not math.isfinite(a):
        raise DomainError(f"curvature coefficient must be finite, got {a}")
    fd_h = float(fd_h)
    if not (fd_h > 0.0 and math.isfinite(fd_h)):
        raise DomainError(f"fd_h must be positive and finite, got {fd_h}")
    _, axis = symmetric_grid(T, step)
    center = h(axis)
    second = (h(axis + fd_h) - 2.0 * center + h(axis - fd_h)) / (fd_h * fd_h)
    return float(np.max(np.abs(second - a * center)))
