"""The Hessian metric of the canonical cost, its geodesic distance, and the
Chebyshev structure of powers.

The generator cosh induces the line element ds^2 = cosh(t) dt^2 on the log
line, equivalently ds^2 = ((x^2 + 1)/(2 x^3)) dx^2 on positive ratios.  The
geodesic distance d_J(x, y) = |I(ln y) - I(ln x)| is an elliptic integral: with
S = sinh(|t|/2), I(t) = integral_0^t sqrt(cosh u) du is, in Carlson's symmetric
forms (computed by duplication; Carlson, Numer. Algorithms 10, 1995),

    I(t) = sign(t) (2 S R_F(1, 1+S^2, 1+2S^2) + (4/3) S^3 R_D(1+S^2, 1+2S^2, 1)).

Arcs at most 1 long take an 8-node Gauss-Legendre rule, which reaches rounding
because sqrt(cosh) is analytic in |Im u| < pi/2.  Powers of a ratio obey
J(x^n) = T_n(J(x) + 1) - 1 through the recursion H_{n+1} = 2 H_1 H_n - H_{n-1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .core import (canonical_cost, require_cosh_range, require_finite, validate_log_coord,
                   validate_positive)
from .errors import DomainError, ParameterError, RangeOverflowError

# sqrt halves the exponent, so sqrt(cosh t) fits in a double for |t| <= 1400
SQRT_COSH_T_MAX = 1400.0
# the Chebyshev recursion is an O(n) Python loop, and the CLI prints all n + 1 terms
CHEBYSHEV_N_MAX = 100_000
# Carlson's stopping constant (r/4)^(-1/6) of R_D for r = 2^-53; it also suffices for R_F
_CARLSON_Q = (0.25 * 2.0**-53) ** (-1.0 / 6.0)
# I(t) - sqrt(2) e^(|t|/2) -> -1.198, below half an ulp from |t| = 80; below it S^2 < 6e34
_ASYMPTOTIC_T = 80.0
# the 8-node Gauss-Legendre rule on [-1, 1], rounded to doubles: nodes +-x_i, weights w_i
_GL_NODES = (0.1834346424956498, 0.525532409916329, 0.7966664774136267, 0.9602898564975363)
_GL_WEIGHTS = (0.362683783378362, 0.31370664587788727, 0.22238103445337448, 0.10122853629037626)


class DistanceResult(NamedTuple):
    """A geodesic distance value, a bound on its error, and its cost."""

    value: float
    abs_error_estimate: float
    endpoints: tuple[float, float]
    evaluations: int


@dataclass(frozen=True)
class ChebyshevCheck:
    """J(x^n) computed two ways: by the Chebyshev recursion and directly."""

    x: float
    n: int
    via_identity: float
    direct: float
    rel_discrepancy: float
    sequence: list[float]  # chebyshev_sequence's terms H_0, ..., H_max(n, 1)


def _sqrt_cosh(t: float) -> float:
    a = abs(t)
    if a > 350.0:
        # cosh would overflow; sqrt(cosh t) = e^(|t|/2) sqrt((1 + e^(-2|t|))/2)
        return math.exp(0.5 * a) * math.sqrt(0.5 * (1.0 + math.exp(-2.0 * a)))
    return math.sqrt(math.cosh(a))


def metric_weight(t: float) -> float:
    """sqrt(cosh t), the metric weight in log coordinates."""
    t = validate_log_coord(t)
    if abs(t) > SQRT_COSH_T_MAX:
        raise RangeOverflowError(
            f"|t| = {abs(t):g} exceeds {SQRT_COSH_T_MAX:g}; sqrt(cosh) overflows"
        )
    return _sqrt_cosh(t)


def metric_weight_ratio(x: float) -> float:
    """sqrt((x^2 + 1)/(2 x^3)), the same weight in ratio coordinates.

    Evaluated as sqrt(cosh(ln x))/x, which agrees with the direct formula and
    stays in range until the weight itself overflows, below x ~ 2.5e-206.
    """
    x = validate_positive(x)
    return require_finite(metric_weight(math.log(x)) / x, f"the weight at x = {x!r}")


def _carlson(x: float, y: float, z: float) -> tuple[float, float, int]:
    """Carlson's R_F(x, y, z) and R_D(x, y, z) for positive arguments, and the steps
    of the duplication (x, y, z) -> ((x, y, z) + lam)/4 they share."""
    af, ad = (x + y + z) / 3.0, (x + y + 3.0 * z) / 5.0
    q = _CARLSON_Q * max(abs(a - v) for a in (af, ad) for v in (x, y, z))
    xf, yf, xd, yd = af - x, af - y, ad - x, ad - y
    scale, steps, tail = 1.0, 0, 0.0
    while q * scale >= min(af, ad):
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * sy + sy * sz + sz * sx
        tail += scale / (sz * (z + lam))
        x, y, z = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam)
        af, ad = 0.25 * (af + lam), 0.25 * (ad + lam)
        scale *= 0.25
        steps += 1
    X, Y = xf * scale / af, yf * scale / af
    e2, e3 = X * Y - (X + Y) ** 2, -X * Y * (X + Y)
    rf = (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0) / math.sqrt(af)
    X, Y = xd * scale / ad, yd * scale / ad
    xy, zz, Z = X * Y, (X + Y) ** 2 / 9.0, -(X + Y) / 3.0
    e2, e3, e4, e5 = xy - 6.0 * zz, (3.0 * xy - 8.0 * zz) * Z, 3.0 * (xy - zz) * zz, xy * zz * Z
    rd = (1.0 - 3.0 * e2 / 14.0 + e3 / 6.0 + 9.0 * e2 * e2 / 88.0 - 3.0 * e4 / 22.0
          - 9.0 * e2 * e3 / 52.0 + 3.0 * e5 / 26.0) * scale / (ad * math.sqrt(ad)) + 3.0 * tail
    return rf, rd, steps


def _antiderivative(t: float) -> tuple[float, int]:
    """I(t) = integral_0^t sqrt(cosh u) du and its duplication steps."""
    a = abs(t)
    if a >= _ASYMPTOTIC_T:
        return math.copysign(math.sqrt(2.0) * math.exp(0.5 * a), t), 1
    s = math.sinh(0.5 * a)
    rf, rd, steps = _carlson(1.0 + s * s, 1.0 + 2.0 * s * s, 1.0)
    return math.copysign(2.0 * s * rf + (4.0 / 3.0) * s**3 * rd, t), steps


def _arc_length(x: float, y: float) -> tuple[float, float, int, float]:
    """(integral of sqrt(cosh u) du between ln x and ln y, error bound, evaluations,
    |ln y - ln x|) for ratios x != y."""
    (x, lo), (y, hi) = sorted(((x, math.log(x)), (y, math.log(y))))
    eps = 16.0 * math.ulp(1.0)  # the error bound per magnitude summed; tests check it holds
    if hi - lo <= 1.0:
        # close x, y far from 1 share the leading digits of their logs, so hi - lo loses
        # the gap; y - x and the division round once each
        width = math.log1p((y - x) / x)
        c, r = 0.5 * (lo + hi), 0.5 * width
        value = r * sum(w * (_sqrt_cosh(c - r * z) + _sqrt_cosh(c + r * z))
                        for z, w in zip(_GL_NODES, _GL_WEIGHTS))
        # rounded logs move only the centre c, by about an ulp, and the weight's relative
        # slope there is |tanh c|/2 <= 1/2
        return value, value * (eps + math.ulp(c)), 2 * len(_GL_NODES), width
    # ln x and ln y may each be an ulp off, which moves the arc by the metric weight there
    slack = math.ulp(lo) * _sqrt_cosh(lo) + math.ulp(hi) * _sqrt_cosh(hi)
    (i_hi, n_hi), (i_lo, n_lo) = _antiderivative(hi), _antiderivative(lo)
    return i_hi - i_lo, eps * (abs(i_hi) + abs(i_lo)) + slack, n_hi + n_lo, hi - lo


def distance(x: float, y: float, tol: float = 1e-10) -> DistanceResult:
    """Geodesic distance d_J(x, y); symmetric in its arguments, zero at x = y.

    The value is accurate to abs_error_estimate whatever tol is; tol must pass
    validate_positive but steers nothing.  evaluations counts the rule's
    nodes, or the duplication steps of R_F and R_D (1 for an endpoint |ln x| >= 80).
    """
    x, y = validate_positive(x), validate_positive(y)
    validate_positive(tol, "tol")
    if x == y:
        return DistanceResult(0.0, 0.0, (x, y), 0)
    value, err, evals, _ = _arc_length(x, y)
    return DistanceResult(value, err, (x, y), evals)


def local_equivalence_ratio(x: float, y: float) -> float:
    """d_J(x, y) / |ln y - ln x|; tends to 1 as both arguments approach 1."""
    x, y = validate_positive(x), validate_positive(y)
    if x == y:
        raise DomainError("local equivalence ratio needs x != y")
    value, _, _, width = _arc_length(x, y)
    return value / width


def chebyshev_cost(x: float, n: int) -> ChebyshevCheck:
    """Check J(x^n) = T_n(J(x) + 1) - 1 numerically.

    via_identity is H_n - 1 from chebyshev_sequence(J(x) + 1, max(n, 1)),
    whose terms the check keeps (so n = 0 shares that call's range checks and
    raises once |ln x| > 700); direct evaluates J at
    x^n = exp(n ln x), which keeps the comparison meaningful when x^n is not
    exactly representable; an n ln x outside cosh's range is refused.  The
    discrepancy is relative because J(x^n) grows like x^n / 2.
    """
    x = validate_positive(x)
    n = int(n)
    if not 0 <= n <= CHEBYSHEV_N_MAX:
        raise ParameterError(f"n must be in [0, {CHEBYSHEV_N_MAX}], got {n}")
    t = n * math.log(x)
    require_cosh_range(t, "n ln x")
    seq = chebyshev_sequence(canonical_cost(x) + 1.0, max(n, 1))
    via = seq[n] - 1.0
    direct = canonical_cost(math.exp(t))
    rel = abs(via - direct) / (1.0 + abs(direct))
    return ChebyshevCheck(x=x, n=n, via_identity=via, direct=direct, rel_discrepancy=rel,
                          sequence=seq)


def chebyshev_sequence(H1: float, N: int) -> list[float]:
    """(H_0, ..., H_N) from the recursion H_{k+1} = 2 H_1 H_k - H_{k-1}, H_0 = 1.

    Requires H1 >= 1: values below 1 belong to the oscillatory cosine branch,
    which is incompatible with the canonical cost, and are rejected rather
    than silently accepted.  Each H_k equals cosh(k arcosh(H1)) up to round-off,
    so an N arcosh(H1) outside cosh's range is refused before the recursion.
    """
    H1 = float(H1)
    if not math.isfinite(H1):
        raise DomainError(f"H1 must be finite, got {H1}")
    if H1 < 1.0:
        raise DomainError(
            f"H1 = {H1!r} < 1 lies on the oscillatory branch, incompatible with the cost"
        )
    N = int(N)
    if not 1 <= N <= CHEBYSHEV_N_MAX:
        raise ParameterError(f"N must be in [1, {CHEBYSHEV_N_MAX}], got {N}")
    require_cosh_range(N * math.acosh(H1), "N arcosh(H1)")
    seq = [1.0, H1]
    append, prev, cur = seq.append, 1.0, H1
    for _ in range(N - 1):
        prev, cur = cur, 2.0 * H1 * cur - prev
        append(cur)
    return seq
