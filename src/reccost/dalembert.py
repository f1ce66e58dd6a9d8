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
the n x n tables in blocks written into two buffers allocated once (memory
O(n) plus two blocks: 1.2 MB traced at T = 2, step 0.001), and its max
reductions are order-independent, so sweeps are deterministic.  When G is
bitwise even on the symmetric nodes (a NaN never is), G(t+u) and G(t-u) swap
under t -> -t and under u -> -u and are each invariant under t <-> u.  Both
sweeps round every operation commutatively, with the doublings exact (so
also 2 G finite wherever G is): the defect forms (2 G(t)) G(u) +
(2 G(t) + 2 G(u)), the identities G+ G- + (G+ + G-) - (q(t) + q(u)) and
(G+ - G-)^2 - 4 (q(t) q(u)).  So every table is bitwise invariant under all
three maps, its first NaN, else first max, lies in the triangle j >= i of the
quadrant t, u <= 0, and both sweeps reduce about (m + 1)(m + 2)/2 of the
n^2 = (2m + 1)^2 pairs.  Each block of the triangle spans the columns from its
first row on; the pairs it holds below the diagonal mirror earlier pairs of
the same block, so they never move its first max.
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


_BLOCK_ELEMS = 1 << 16  # elements per block: 512 KB of float64, so the buffers stay in cache


def _kernel(gs, gd, gt, gu, out=None, cross=None):
    """Delta from G(t+u), G(t-u), G(t), G(u), gt broadcasting down and gu across, into out;
    cross = (2 G(t)) G(u) + (2 G(t) + 2 G(u)) into cross.  Both are new arrays where not given.
    The doublings are exact and the three rounded operations commutative, so Delta is bitwise
    symmetric in t <-> u wherever G(t - u) = G(u - t) and 2 G(t) does not overflow."""
    two_gt, two_gu = 2.0 * gt, 2.0 * gu
    cross = np.multiply(two_gt, gu, out=cross)
    cross += np.add(two_gt, two_gu, out=out)  # out as scratch
    out = np.add(gs, gd, out=out)
    out -= cross
    return out


def _sweep(h: FunctionHandle, T: float, step: float, op: str, whole: bool = False):
    """(step, axis, G on the nodes of [-2T, 2T], G on the axis, w, blocks) for the grid of
    [-T, T]: blocks yield (rows, cols, G(t+u), G(t-u), G(t), G(u)) for blocks of the w x w
    corner of the tables, as views: t_i + u_j is node i + j, t_i - u_j node n - 1 + i - j.
    When G is bitwise even (and 2 G finite wherever G is) and not whole, w is the quadrant's
    m + 1 and the blocks cover its triangle j >= i; else w = n and they cover the table."""
    require_domain(h, LOG_LINE, op)
    actual_step, axis = symmetric_grid(T, step)
    if not h.evaluable_on(-2.0 * T, 2.0 * T):
        raise DomainError(f"{h.name}: {op} needs evaluability on [-2T, 2T] = [{-2*T:g}, {2*T:g}]")
    n, m = axis.size, axis.size // 2
    far = symmetric_grid(2.0 * T, actual_step)[1][3 * m + 1:]  # k s for m < k < 2m, then 2T
    nodes = h.excess(np.concatenate([-far[::-1], axis, far]))  # +-T exact, where m s may not be
    g = nodes[m: m + n]
    sums, diffs = sliding_window_view(nodes, n), sliding_window_view(nodes[::-1], n)[::-1]
    fold = (not whole and np.array_equal(nodes, nodes[::-1])
            and np.array_equal(np.isinf(2.0 * g), np.isinf(g)))
    w = m + 1 if fold else n
    blocks = ((r, c, sums[r, c], diffs[r, c], g[r, None], g[c]) for r, c in _blocks(w, fold))
    return actual_step, axis, nodes, g, w, blocks


def _blocks(w: int, triangle: bool):
    """(rows, cols) slices of blocks of about _BLOCK_ELEMS elements, at most max(_BLOCK_ELEMS, w),
    covering a w x w table: row blocks of the whole width, or for its triangle j >= i, row
    blocks that start at the column of their first row."""
    r0 = 0
    while r0 < w:
        c0 = r0 if triangle else 0
        r1 = min(w, r0 + max(1, _BLOCK_ELEMS // (w - c0)))
        yield slice(r0, r1), slice(c0, w)
        r0 = r1


def _buffers(w: int):
    """A function of a block's (rows, cols) giving two views of its shape into two buffers
    allocated once, large enough for any block of a w-wide table."""
    flat = np.empty(max(_BLOCK_ELEMS, w)), np.empty(max(_BLOCK_ELEMS, w))

    def views(r: slice, c: slice):
        shape = (r.stop - r.start, c.stop - c.start)
        return tuple(b[: shape[0] * shape[1]].reshape(shape) for b in flat)

    return views


def defect_grid(h: FunctionHandle, T: float, step: float):
    """(step, axis, Delta) with Delta[i, j] = Delta_H(axis[i], axis[j]) on the grid of [-T, T]."""
    actual_step, axis, _, _, _, blocks = _sweep(h, T, step, "defect_grid", whole=True)
    return actual_step, axis, np.concatenate([_kernel(*b) for _, _, *b in blocks])


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
    actual_step, axis, _, _, w, blocks = _sweep(h, T, step, "sup_defect")
    views = _buffers(w)
    picks = []  # (i, j, Delta) of each block's first NaN, else first max |Delta|
    for r, c, gs, gd, gt, gu in blocks:
        delta, cross = views(r, c)
        _kernel(gs, gd, gt, gu, out=delta, cross=cross)
        a, b = divmod(int(np.argmax(np.abs(delta, out=delta))), c.stop - c.start)
        # Delta with the sign that the in-place |Delta| dropped, from the same two roundings
        signed = float(gs[a, b]) + float(gd[a, b]) - float(cross[a, b])
        picks.append((r.start + a, c.start + b, signed))
    i, j, worst_delta = picks[int(np.argmax([abs(d) for *_, d in picks]))]  # first across blocks
    worst = DefectSample(float(axis[i]), float(axis[j]), worst_delta)
    return DefectReport(abs(worst_delta), worst, float(T), actual_step, count=axis.size**2)


def identity_report(h: FunctionHandle, T: float, step: float) -> IdentityViolations:
    """Grid suprema of the four identity violations; see IdentityViolations.

    Evaluated in G = H - 1, where H^2 - 1 = G (G + 2).
    """
    _, _, nodes, g, w, blocks = _sweep(h, T, step, "identity_report")
    q = g * (g + 2.0)
    views = _buffers(w)
    product_identity = difference_square = 0.0
    for r, c, s, d, _, _ in blocks:
        # s d + (s + d) - (q(t) + q(u)) and (s - d)^2 - 4 (q(t) q(u)): every rounded operation
        # is commutative (and 4x exact), so both are symmetric in s <-> d and in t <-> u
        product, scratch = views(r, c)
        np.multiply(s, d, out=product)
        product += np.add(s, d, out=scratch)
        product -= np.add(q[r, None], q[c], out=scratch)
        square = np.subtract(s, d, out=scratch)
        square *= square
        product_identity = np.maximum(product_identity, _sup_abs(product))  # keeps a NaN
        cross = np.multiply(q[r, None], q[c], out=product)
        cross *= 4.0
        square -= cross
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
