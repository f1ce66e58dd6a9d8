"""Defect computation for the d'Alembert equation and its ratio-domain form.

The log-coordinate equation is H(t+u) + H(t-u) = 2 H(t) H(u); its defect is

    Delta_H(t, u) = H(t+u) + H(t-u) - 2 H(t) H(u),

zero exactly for solutions.  On positive ratios the equivalent composition
law reads F(xy) + F(x/y) = 2 F(x) F(y) + 2 F(x) + 2 F(y).  Both are one
kernel in the excess G(t) = H(t) - 1 = F(e^t) that every handle stores:

    Delta = G(t+u) + G(t-u) - 2 G(t) G(u) - 2 G(t) - 2 G(u),

which keeps the precision of G near t = 0 instead of cancelling 1s in H.

Suprema are reported over explicit uniform grids, never over the continuum, with
the grid spec; one that overflows where G is finite on every node raises
RangeOverflowError.  On the grid {k s} of [-T, T] every t + u, t - u and 2t is a
node k s of [-2T, 2T]: each sweep evaluates G once, on those nodes, reduces
the n x n tables in blocks of 2^16 / 3 elements written into three buffers that
share 512 KB, allocated once (memory O(n) plus three blocks: 0.84 MB traced at
T = 2, step 0.001, 0.87 MB for the identities), and its max reductions are
order-independent, so sweeps are deterministic.  Each block copies its two
windows, G(t + u) and G(t - u), into buffers before any arithmetic: numpy
buffers a ufunc over the window views, and G(t - u) is read from a reversed
copy of the nodes, so its rows run forward.  On a 16 x 2001 block the two
copies take 7 us each and an add of the copies 20 us, where the add of the two
views took 40 us (the reversed one alone copies in 14 us).  A block's outer
terms, (k a(t)) a(u) and k a(t) + k a(u) (a = G,
k = 2 for the defect; a = q, k = 1 for the identities), are two BLAS products
of rank-2 factors built once per table (_factors): each entry is one product
plus an exact term, so it is rounded once, as multiply and add round it.  Each
takes 14 us on a 16 x 2001 block, where einsum took 24 us and the broadcast
add 45 us (2 shared vCPUs).  Both sweeps round every operation commutatively,
with the doublings exact: the defect forms (2 G(t)) G(u) + (2 G(t) + 2 G(u)), the
identities G+ G- + (G+ + G-) - (q(t) + q(u)) and (G+ - G-)^2 - 4 (q(t) q(u)).
So where G equals its even part E = (nodes + nodes[::-1]) / 2, which is
bitwise even (mirrored entries add the same two numbers), the tables are
bitwise invariant under t <-> u, t -> -t and u -> -u, and the sweeps reduce
the triangle j >= i of the quadrant t, u <= 0, which holds the first NaN, else
first max (pairs a block holds below the diagonal mirror earlier ones of it).
Any other G is within omega of E: a forward error bound (Higham, Accuracy and
Stability of Numerical Algorithms, 3.1) gives each score a rho >= |fl score(G)
- fl score(E)|, so no pair whose E score is below theta = max_E - 2 rho holds
G's max.  The sweeps reduce E's triangle to each block's maxima, take theta
once from them all, keep the blocks whose maxima reach it, then score G on the
8 images under the three maps of the box of the pairs reaching theta in each
kept block, or, where rho is not finite or the kept blocks hold too many pairs,
the whole table.

A large sweep is split with one helper process (_split, and the module helper,
which owns the process and its lifecycle).  Where the triangle or the whole
table holds at least _HELPER_MIN_PAIRS = 200 000 pairs and helper.lease gives
the process's helper, the caller reduces the blocks [0, b0) while the helper
reduces [b0, end), b0 splitting the pairs in half.  The helper is forked at the
first such sweep and serves every later one: it receives the nodes and the op's
name, rebuilds aux(G) and the factors, keeps its three block buffers
(_answerer), and returns _reduce's picks of its blocks as raw bytes: a float64
array of (|score|, i, j) per block per score, the caller's format (both read
_BLOCK_ELEMS).  One rule (_select) chooses among the picks, split or not, for
the fold, the whole table and the even part's boxes: per score, a NaN, else the
largest |score|, ties to the smallest (i, j), over row blocks the table's first
NaN, else first max.  Every result is the serial loop's bit for bit; where the
helper has died, the caller reduces its blocks too.  The minimum is
the measured crossover: at T = 2 on cosh (2 shared vCPUs, one BLAS thread), a
split sup_defect took 0.93-1.31x the serial time (1.09x in the median of ten
runs) at 126 000-155 000 pairs, 0.94-0.99x at 164 000, 0.81-0.86x at 223 000
and 0.66x at 2 million, and a split identity_report 0.89-0.98x at
99 000-126 000 pairs and 0.78x at 164 000.  Smaller sweeps, such as the CLI's
at step 0.05 (861 pairs), the even part's rescoring of its kept boxes, and any
sweep that helper.lease refuses (no os.fork, one CPU in the affinity mask,
another Python thread, or the helper busy) run in the caller alone.  The helper
ignores floating-point warnings, so numpy warns of an overflow or NaN in its
blocks only where the caller's blocks have one too; the picks, and
RangeOverflowError, do not depend on the split.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import validate_log_coord, validate_positive_ratio
from .errors import RangeOverflowError
from .grids import symmetric_grid
from .handles import LOG_LINE, POSITIVE_RATIOS, FunctionHandle, require_domain, require_window

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


_BLOCK_ELEMS = (1 << 16) // 3  # elements per block: three buffers of float64 in 512 KB of cache
_HELPER_MIN_PAIRS = 200_000  # pairs of the smallest sweep split with the helper (_split)
_REQUEST = struct.Struct("<16s?q")  # to the helper: op name, triangle, first row


def _kernel(gs, gd, left, times, plus, out=None, cross=None, stage=None):
    """Delta from G(t+u), G(t-u) (tables, or broadcasting to one) and _factors(G, 2) of the rows
    and columns, into out; cross = (2 G(t)) G(u) + (2 G(t) + 2 G(u)) into cross.  Both are new
    arrays where not given.  G(t+u) is copied into out and, where stage is given, G(t-u) into
    stage, so the add reads two contiguous blocks, not the window views, which numpy buffers.
    The doublings are exact and the three rounded operations commutative (each product holds one
    rounded term and an exact one, so it rounds as multiply and add do, but gives +0 for a -0
    product, which no sum here can tell), so Delta is bitwise symmetric in t <-> u wherever
    G(t - u) = G(u - t) and 2 G(t) does not overflow."""
    cross = np.matmul(left, times, out=cross)
    out = np.matmul(left, plus, out=out)
    cross += out  # out as scratch
    np.copyto(out, gs)
    if stage is not None:
        np.copyto(stage, gd)
        gd = stage
    out += gd
    out -= cross
    return out


def _factors(a: np.ndarray, k: float):
    """A function of a block's (rows, cols) giving the rank-2 factors of its outer terms, built
    once per table from a on the axis: left[rows] of left = [k a, 1] (n x 2), and times[:, cols]
    and plus[:, cols] of times = [a; 0] and plus = [1; k a] (2 x n).  left @ times is
    (k a(t)) a(u) + 1 0 and left @ plus is (k a(t)) 1 + 1 (k a(u)): one rounded term and an exact
    one, so each entry is rounded once, as np.multiply and np.add round it, whatever the BLAS
    kernel's order, FMA or threads."""
    ka, one = k * a, np.ones_like(a)
    left, times, plus = np.stack([ka, one], 1), np.stack([a, np.zeros_like(a)]), np.stack([one, ka])
    return lambda r, c: (left[r], times[:, c], plus[:, c])


def _delta(gs, gd, gt, gu) -> float:
    """Delta at one pair from G(t + u), G(t - u), G(t) and G(u), by the sweeps' kernel."""
    return _kernel(gs, gd, *_factors(np.array([gt, gu]), 2.0)(slice(0, 1), slice(1, 2))).item()


def _sweep(h: FunctionHandle, T: float, step: float, op: str):
    """(step, axis, G on the nodes of [-2T, 2T], G on the axis) for the grid of [-T, T]."""
    require_domain(h, LOG_LINE, op)
    actual_step, axis = symmetric_grid(T, step)
    require_window(h, T, op, reach=2.0)
    n, m = axis.size, axis.size // 2
    far = symmetric_grid(2.0 * T, actual_step)[1][3 * m + 1:]  # k s for m < k < 2m, then 2T
    nodes = h.excess(np.concatenate([-far[::-1], axis, far]))  # +-T exact, where m s may not be
    return actual_step, axis, nodes, nodes[m: m + n]


def _blocks(w: int, triangle: bool, r0: int = 0):
    """(rows, cols) slices of blocks of about _BLOCK_ELEMS elements, at most max(_BLOCK_ELEMS, w),
    covering the rows from r0 on of a w x w table: row blocks of the whole width, or for its
    triangle j >= i, row blocks that start at the column of their first row."""
    while r0 < w:
        c0 = r0 if triangle else 0
        r1 = min(w, r0 + max(1, _BLOCK_ELEMS // (w - c0)))
        yield slice(r0, r1), slice(c0, w)
        r0 = r1


def _buffers(w: int):
    """A function of a block's (rows, cols) giving three views of its shape into three buffers
    allocated once, large enough for any block of a w-wide table."""
    flat = tuple(np.empty(max(_BLOCK_ELEMS, w)) for _ in range(3))

    def views(r: slice, c: slice):
        shape = (r.stop - r.start, c.stop - c.start)
        return tuple(b[: shape[0] * shape[1]].reshape(shape) for b in flat)

    return views


def _tables(nodes: np.ndarray, n: int):
    """The n x n tables of G(t + u) and G(t - u) on the grid, as views of G on its nodes:
    t_i + u_j is node i + j, t_i - u_j node n - 1 + i - j, read from a reversed copy of the
    nodes so that its rows, like G(t + u)'s, run forward in memory."""
    return sliding_window_view(nodes, n), sliding_window_view(nodes[::-1].copy(), n)[::-1]


def _scored(nodes: np.ndarray, a: np.ndarray, triangle: bool, scores=_kernel, views=None,
            k: float = 2.0, blocks=None):
    """(rows, cols, scores(G(t + u), G(t - u), left, times, plus, *views(rows, cols))) per block
    of the tables of G on nodes, with the factors _factors(a, k) of a on the axis for the block's
    rows and columns (by default Delta, a = G, k = 2): by default every row block of the triangle
    j >= i of the quadrant t, u <= 0, or of the whole table; views gives three blocks, by default
    of three buffers allocated here."""
    n = a.size
    w = n // 2 + 1 if triangle else n
    (sums, diffs), views, outer = _tables(nodes, n), views or _buffers(n), _factors(a[:w], k)
    for r, c in _blocks(w, triangle) if blocks is None else blocks:
        yield r, c, scores(sums[r, c], diffs[r, c], *outer(r, c), *views(r, c))


def _reduce(nodes: np.ndarray, a: np.ndarray, triangle: bool, scores, views, k: float, blocks):
    """The picks of the blocks: per block in order, per score, (|score|, i, j) at its first NaN,
    else first max, in a float64 array of blocks x scores x 3."""
    return np.array([[(x[i, j], r.start + i, c.start + j)
                      for x in xs for i, j in [divmod(int(np.argmax(x)), x.shape[1])]]
                     for r, c, xs in _scored(nodes, a, triangle, scores, views, k, blocks)])


def _select(picks: np.ndarray):
    """Per score, the (|score|, i, j) of picks (blocks x scores x 3) with a NaN, else the largest
    |score|, ties to the smallest (i, j): over row blocks, the first NaN, else first max."""
    return [(v, int(i), int(j)) for p in picks.transpose(1, 0, 2)
            for v, i, j in [min(p.tolist(), key=lambda q: (0.0, q[1], q[2]) if math.isnan(q[0])
                                else (1.0, -q[0], q[1], q[2]))]]


def _split(op: str, nodes: np.ndarray, a: np.ndarray, triangle: bool, views):
    """_reduce of the sweep op over every block of the triangle or of the whole table of G on
    nodes.  Where it holds at least _HELPER_MIN_PAIRS pairs and the helper process serves
    (helper.lease), the helper reduces the blocks [b0, end) while this process reduces [0, b0),
    b0 splitting the pairs in half, and where it has died this process reduces its blocks too."""
    _, k, scores = _ops(op)
    w = a.size // 2 + 1 if triangle else a.size
    blocks = list(_blocks(w, triangle))
    pairs = np.cumsum([(r.stop - r.start) * (c.stop - c.start) for r, c in blocks])
    worker = None
    if pairs[-1] >= _HELPER_MIN_PAIRS and len(blocks) > 1:
        from . import helper  # the process plumbing loads with the first sweep this large
        worker = helper.lease(_answerer)
    if worker is None:
        return _reduce(nodes, a, triangle, scores, views, k, blocks)
    b0 = max(1, int(np.searchsorted(pairs, pairs[-1] / 2)))
    with worker:
        sent = worker.send(_REQUEST.pack(op.encode(), triangle, blocks[b0][0].start),
                           np.ascontiguousarray(nodes, dtype=np.float64))
        head = _reduce(nodes, a, triangle, scores, views, k, blocks[:b0])
        reply = worker.receive() if sent else None
    tail = (_reduce(nodes, a, triangle, scores, views, k, blocks[b0:]) if reply is None
            else np.frombuffer(reply).reshape(-1, head.shape[1], 3))
    return np.concatenate([head, tail])


def _suprema(h: FunctionHandle, T: float, step: float, op: str, bounds):
    """(step, axis, nodes, G on the axis, picks): per score of the sweep op (_ops), (|score|, i, j)
    at its first NaN, else first max, in row-major order over the whole table.
    Where the even part E is G they are its triangle's, else E's (_even_part) or the table's.
    A pick that is not finite, where G is finite on every node, raises RangeOverflowError."""
    actual_step, axis, nodes, g = _sweep(h, T, step, op)
    e = (nodes + nodes[::-1]) * 0.5  # bitwise even: mirrored entries add the same two numbers
    a, views = _ops(op)[0](g), _buffers(axis.size)
    fold = np.array_equal(e, nodes)  # G bitwise even, 2 G finite: x + x overflows, NaN != NaN
    picks = None if fold else _even_part(op, nodes, e, a, bounds, views)
    if picks is None:
        picks = _select(_split(op, nodes, a, fold, views))
    _finite(h, op, [v for v, _, _ in picks], nodes, f" on [-2T, 2T] = [{-2*T:g}, {2*T:g}]")
    return actual_step, axis, nodes, g, picks


def _finite(h: FunctionHandle, op: str, value, g: np.ndarray, where: str = ""):
    """value, or RangeOverflowError where it is not finite though every G it is formed from is."""
    if not np.all(np.isfinite(value)) and np.all(np.isfinite(g)):
        raise RangeOverflowError(f"{h.name}: {op} overflows double precision, with max |G| = "
                                 f"{abs(g).max():.17g}{where}")
    return value


def _even_part(op: str, nodes: np.ndarray, e: np.ndarray, a: np.ndarray, bounds, views):
    """_suprema's picks through the even part e = E, or None where rho = bounds(max |G - E|, max |G|,
    max |a - a_E|, max(|a|, |a_E|)) is not finite or the blocks of E's triangle whose maxima
    reach theta hold over 2^18 pairs (four rows, where a row is wider).  E's triangle is reduced
    by _split; theta only rises with the blocks, so no order is needed to prune them."""
    aux, k, scores = _ops(op)
    n, m = a.size, a.size // 2
    ae = aux(e[m: m + n])
    rho = np.array(bounds(*(float(np.max(np.abs(x))) for x in (nodes - e, nodes, a - ae, [a, ae]))))
    if not np.all(np.isfinite(rho)):
        return None
    top = _split(op, e, ae, True, views)[:, :, 0]
    theta = np.nextafter(top.max(axis=0) - 2.0 * rho, -np.inf)
    kept = list(itertools.compress(_blocks(m + 1, True), np.any(top >= theta, axis=1)))
    budget = 4 * max(3 * _BLOCK_ELEMS, m + 1)
    if sum((r.stop - r.start) * (c.stop - c.start) for r, c in kept) > budget:
        return None
    boxes = []  # the 8 images of the box of the pairs reaching theta in each kept block
    for r, c, xs in _scored(e, ae, True, scores, views, k, kept):
        hit = np.logical_or.reduce([x >= t for x, t in zip(xs, theta)])
        i, j = np.flatnonzero(hit.any(axis=1)) + r.start, np.flatnonzero(hit.any(axis=0)) + c.start
        rows, cols = [(slice(x[0], x[-1] + 1), slice(n - 1 - x[-1], n - x[0])) for x in (i, j)]
        boxes += itertools.chain(itertools.product(rows, cols), itertools.product(cols, rows))
    return _select(_reduce(nodes, a, False, scores, views, k, boxes))


def _rho(spread: float, size: float, k: int) -> float:
    """>= |fl f(G) - fl f(E)| (2^-1060 for underflow) where |f(G) - f(E)| <= spread and f's terms,
    of up to k roundings each, sum to size; infinite where 4 size overflows, before f's values."""
    return (spread + k * 2.0**-54 * (4.0 * size)) * (1.0 + 2.0**-40) + 2.0**-1060


def _same(g):
    return g


def _q(g):
    """q = G (G + 2) = H^2 - 1."""
    return g * (g + 2.0)


def _defect_scores(*block):
    delta = _kernel(*block)
    return (np.abs(delta, out=delta),)


def _identity_scores(s, d, left, times, plus, a, b, c):
    # s d + (s + d) - (q(t) + q(u)) and (s - d)^2 - 4 (q(t) q(u)), symmetric in s <-> d, t <-> u,
    # from _factors(q, 1); s and d are copied into a and b first, so that no pass reads the
    # window views, and d again where s + d has used b
    np.copyto(a, s)
    np.copyto(b, d)
    np.multiply(a, b, out=c)
    c += np.add(a, b, out=b)
    c -= np.matmul(left, plus, out=b)
    yield np.abs(c, out=c)
    np.copyto(b, d)
    np.square(np.subtract(a, b, out=a), out=a)
    a -= np.multiply(np.matmul(left, times, out=b), 4.0, out=b)
    yield np.abs(a, out=a)


def _ops(op: str):
    """(aux, k, scores) of the sweep op: scores(G(t + u), G(t - u), left, times, plus, *three
    buffer blocks), with _factors(a, k) of a = aux(G on the axis), yields each |score| block in
    one of the buffers in turn: |Delta| for sup_defect, the product and difference-square
    violations for identity_report."""
    return {"sup_defect": (_same, 2.0, _defect_scores),
            "identity_report": (_q, 1.0, _identity_scores)}[op]


def _answerer():
    """The helper's side of _split (helper.lease): a function that answers a request, with the
    op, triangle and first row in its header and the nodes in its body, with _reduce's picks of
    the blocks from that row on, in three block buffers kept across requests."""
    width, views = 0, None

    def answer(header: bytes, body) -> bytes:
        nonlocal width, views
        op, triangle, row = _REQUEST.unpack(header)
        aux, k, scores = _ops(op.rstrip(b"\0").decode())
        nodes = np.frombuffer(body)
        n = (nodes.size + 1) // 2
        if n > width:  # buffers for any block of a table this wide or narrower
            width, views = n, _buffers(n)
        with np.errstate(all="ignore"):  # the caller's own roundings warn, not the helper's
            return _reduce(nodes, aux(nodes[n // 2: n // 2 + n]), triangle, scores, views, k,
                           _blocks(n // 2 + 1 if triangle else n, triangle, row)).tobytes()

    return answer


def defect_grid(h: FunctionHandle, T: float, step: float):
    """(step, axis, Delta) with Delta[i, j] = Delta_H(axis[i], axis[j]) on the grid of [-T, T]."""
    actual_step, axis, nodes, g = _sweep(h, T, step, "defect_grid")
    every = slice(None)
    return actual_step, axis, _kernel(*_tables(nodes, axis.size), *_factors(g, 2.0)(every, every))


def defect_log(h: FunctionHandle, t: float, u: float) -> float:
    """Delta_H(t, u) = H(t+u) + H(t-u) - 2 H(t) H(u); an overflow is refused as a sweep's is."""
    require_domain(h, LOG_LINE, "defect_log")
    t, u = validate_log_coord(t), validate_log_coord(u)
    s, d = t + u, t - u
    if not (math.isfinite(s) and math.isfinite(d)):
        raise RangeOverflowError(f"defect at t = {t!r}, u = {u!r} needs t + u and t - u finite, "
                                 f"got {s!r} and {d!r}")
    g = h.excess(np.array([s, d, t, u]))
    return _finite(h, "defect_log", _delta(*g), g)


def defect_ratio(f: FunctionHandle, x: float, y: float) -> float:
    """Composition-law defect F(xy) + F(x/y) - 2 F(x) F(y) - 2 F(x) - 2 F(y), as defect_log's."""
    require_domain(f, POSITIVE_RATIOS, "defect_ratio")
    x, y = validate_positive_ratio(x), validate_positive_ratio(y)
    p, q = x * y, x / y
    if not (0.0 < p < math.inf and 0.0 < q < math.inf):
        raise RangeOverflowError(f"defect at x = {x!r}, y = {y!r} needs x*y and x/y finite and "
                                 f"positive, got {p!r} and {q!r}")
    g = f.excess(np.array([p, q, x, y]))
    return _finite(f, "defect_ratio", _delta(*g), g)


def sup_defect(h: FunctionHandle, T: float, step: float) -> DefectReport:
    """Max of |Delta_H| over the inclusive uniform grid {-T, ..., T}^2.

    Requires h evaluable on [-2T, 2T], which t + u reaches at the corners.  Ties at the max
    resolve to the first point in row-major order, so the report is deterministic.  Where G is
    finite on every node of [-2T, 2T] but Delta overflows, raises RangeOverflowError.
    """
    # |Delta_G - Delta_E| <= 2 omega + 2 (2 M omega) + 4 omega; the terms sum to 6 M + 2 M^2
    actual_step, axis, nodes, g, [(_, i, j)] = _suprema(
        h, T, step, "sup_defect",
        lambda w, big, *_: (_rho(w * (6.0 + 4.0 * big), 6.0 * big + 2.0 * big * big, 3),))
    n = axis.size  # Delta with its sign, from the same roundings as the sweep
    delta = _delta(nodes[i + j], nodes[n - 1 + i - j], g[i], g[j])
    worst = DefectSample(float(axis[i]), float(axis[j]), delta)
    return DefectReport(abs(delta), worst, float(T), actual_step, count=n**2)


def identity_report(h: FunctionHandle, T: float, step: float) -> IdentityViolations:
    """Grid suprema of the four identity violations; see IdentityViolations.

    Evaluated in G = H - 1, where H^2 - 1 = G (G + 2).  Where G is finite on every node of
    [-2T, 2T] but a violation is not (H^2 or H(t+u) H(t-u) overflows), raises RangeOverflowError.
    """
    # with wq = max |q_G - q_E|, Q = max |q|, and |(s - d)_G^2 - (s - d)_E^2| <= 2 omega 4 M
    _, _, nodes, g, (product, square) = _suprema(
        h, T, step, "identity_report", lambda w, big, wq, mq: (
            _rho(w * (2.0 + 2.0 * big) + 2.0 * wq, big * big + 2.0 * (big + mq), 3),
            _rho(8.0 * (big * w + mq * wq), 4.0 * (big * big + mq * mq), 4)))
    return IdentityViolations(float(product[0]), float(square[0]),
                              float(np.max(np.abs(nodes[::2] - 2.0 * _q(g)))),
                              float(np.max(np.abs(g[::-1] - g))))

