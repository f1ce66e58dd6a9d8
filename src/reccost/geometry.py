"""The Hessian metric of the canonical cost, its geodesic distance, and the
Chebyshev structure of powers.

The generator cosh induces the line element ds^2 = cosh(t) dt^2 on the log
line, equivalently ds^2 = ((x^2 + 1)/(2 x^3)) dx^2 on positive ratios.  The
geodesic distance is the one-dimensional integral

    d_J(x, y) = | integral_{ln x}^{ln y} sqrt(cosh u) du |,

computed by adaptive Simpson quadrature with an interval-doubling error
estimate.  Powers of a ratio obey J(x^n) = T_n(J(x) + 1) - 1 through the
three-term recursion H_{n+1} = 2 H_1 H_n - H_{n-1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import canonical_cost, validate_log_coord, validate_positive_ratio
from .errors import ConvergenceError, DomainError, ParameterError, RangeOverflowError

# sqrt halves the exponent, so sqrt(cosh t) fits in a double for |t| <= 1400
SQRT_COSH_T_MAX = 1400.0
DEFAULT_EVAL_BUDGET = 1_000_000
# the Chebyshev recursion is an O(n) Python loop, and the CLI prints all n + 1 terms
CHEBYSHEV_N_MAX = 100_000


@dataclass(frozen=True)
class DistanceResult:
    """A geodesic distance value with its quadrature error estimate and cost."""

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
    stays in range for extreme x.
    """
    x = validate_positive_ratio(x)
    return metric_weight(math.log(x)) / x


def _adaptive_simpson(a: float, b: float, tol: float, budget: int) -> tuple[float, float, int]:
    # Interval-doubling estimate: d = S(two halves) - S(whole) tracks the error
    # of the refined rule.  Acceptance demands |d| <= tol0 rather than the
    # asymptotic 15*tol0, and at least two refinement levels, because d can be
    # accidentally small on coarse grids when the fourth derivative of
    # sqrt(cosh) varies across the interval.
    f = _sqrt_cosh
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    evals = 3
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    # stack of (a, m, b, fa, fm, fb, S, local tol, depth); refinement is sequential
    stack = [(a, m, b, fa, fm, fb, whole, tol, 0)]
    total = 0.0
    err_total = 0.0
    min_width = 16.0 * math.ulp(max(abs(a), abs(b), 1.0))
    while stack:
        a0, m0, b0, fa0, fm0, fb0, s0, tol0, depth = stack.pop()
        lm = 0.5 * (a0 + m0)
        rm = 0.5 * (m0 + b0)
        flm, frm = f(lm), f(rm)
        evals += 2
        if evals > budget:
            raise ConvergenceError(
                f"quadrature budget of {budget} evaluations exhausted before "
                f"reaching tolerance {tol:g}"
            )
        s_left = (m0 - a0) / 6.0 * (fa0 + 4.0 * flm + fm0)
        s_right = (b0 - m0) / 6.0 * (fm0 + 4.0 * frm + fb0)
        d = s_left + s_right - s0
        if (abs(d) <= tol0 and depth >= 2) or (b0 - a0) <= min_width:
            total += s_left + s_right + d / 15.0
            err_total += abs(d) / 15.0
        else:
            stack.append((a0, lm, m0, fa0, flm, fm0, s_left, 0.5 * tol0, depth + 1))
            stack.append((m0, rm, b0, fm0, frm, fb0, s_right, 0.5 * tol0, depth + 1))
    return total, err_total, evals


def distance(
    x: float, y: float, tol: float, budget: int = DEFAULT_EVAL_BUDGET
) -> DistanceResult:
    """Geodesic distance d_J(x, y); symmetric in its arguments, zero iff x = y."""
    x = validate_positive_ratio(x)
    y = validate_positive_ratio(y)
    tol = float(tol)
    if not (tol > 0.0 and math.isfinite(tol)):
        raise DomainError(f"tol must be positive and finite, got {tol}")
    a, b = math.log(x), math.log(y)
    if a == b:
        return DistanceResult(0.0, 0.0, (x, y), 0)
    lo, hi = (a, b) if a < b else (b, a)
    value, err, evals = _adaptive_simpson(lo, hi, tol, int(budget))
    return DistanceResult(abs(value), err, (x, y), evals)


def local_equivalence_ratio(x: float, y: float) -> float:
    """d_J(x, y) / |ln y - ln x|; tends to 1 as both arguments approach 1."""
    x = validate_positive_ratio(x)
    y = validate_positive_ratio(y)
    gap = abs(math.log(y) - math.log(x))
    if gap == 0.0:
        raise DomainError("local equivalence ratio needs x != y")
    tol = max(1e-15, 1e-13 * gap)
    return distance(x, y, tol).value / gap


def chebyshev_cost(x: float, n: int) -> ChebyshevCheck:
    """Check J(x^n) = T_n(J(x) + 1) - 1 numerically.

    via_identity runs the recursion H_{k+1} = 2 H_1 H_k - H_{k-1} from
    H_0 = 1, H_1 = J(x) + 1; direct evaluates J at x^n = exp(n ln x), which
    keeps the comparison meaningful when x^n is not exactly representable.
    The discrepancy is relative because J(x^n) grows like x^n / 2.
    """
    x = validate_positive_ratio(x)
    n = int(n)
    if not 0 <= n <= CHEBYSHEV_N_MAX:
        raise ParameterError(f"n must be in [0, {CHEBYSHEV_N_MAX}], got {n}")
    t = n * math.log(x)
    if abs(t) > 700.0:
        raise RangeOverflowError(f"x^n = exp({t:g}) overflows double precision")
    h_prev, h_cur = 1.0, canonical_cost(x) + 1.0
    if n == 0:
        via = 0.0
    else:
        h1 = h_cur
        for _ in range(n - 1):
            h_prev, h_cur = h_cur, 2.0 * h1 * h_cur - h_prev
        via = h_cur - 1.0
    direct = canonical_cost(math.exp(t))
    rel = abs(via - direct) / (1.0 + abs(direct))
    return ChebyshevCheck(x=x, n=n, via_identity=via, direct=direct, rel_discrepancy=rel)


def chebyshev_sequence(H1: float, N: int) -> list[float]:
    """(H_0, ..., H_N) from the recursion H_{k+1} = 2 H_1 H_k - H_{k-1}, H_0 = 1.

    Requires H1 >= 1: values below 1 belong to the oscillatory cosine branch,
    which is incompatible with the canonical cost, and are rejected rather
    than silently accepted.  Each H_k equals cosh(k arcosh(H1)) up to
    accumulated round-off.
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
    if H1 > 1.0 and N * math.acosh(H1) > 700.0:
        raise RangeOverflowError("cosh(N arcosh(H1)) overflows double precision")
    seq = [1.0, H1]
    for _ in range(N - 1):
        seq.append(2.0 * H1 * seq[-1] - seq[-2])
    return seq
