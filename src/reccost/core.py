"""Exact evaluation of the canonical reciprocal cost and its companion forms.

The canonical cost of a positive ratio x is

    J(x) = (x + 1/x)/2 - 1 = (x - 1)^2 / (2x),

nonnegative with its unique zero at the equilibrium x = 1.  In logarithmic
coordinates t = ln x it reads J(e^t) = cosh(t) - 1.  The second form above
is the one evaluated here: it avoids the catastrophic cancellation of
(x + 1/x)/2 - 1 near x = 1.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError, RangeOverflowError

# cosh's range: cosh(t) and exp(t) stay normal doubles for |t| <= 700 (cosh overflows at 710.48)
COSH_T_MAX = 700.0

# the two domain tags: a function of t = ln x, or of the positive ratio x
LOG_LINE = "log-line"
POSITIVE_RATIOS = "positive-ratios"


def validate_positive(x: float, name: str = "positive ratio") -> float:
    """Return x as a float, or raise DomainError naming it by name unless it is finite and
    > 0 (a NaN is not): the one rule for every ratio, window, step h and tolerance."""
    x = float(x)
    if not (x > 0.0 and math.isfinite(x)):
        raise DomainError(f"{name} must be positive and finite, got {x}")
    return x


def validate_log_coord(t: float) -> float:
    """Return t as a float after checking finiteness."""
    t = float(t)
    if not math.isfinite(t):
        raise DomainError(f"log coordinate must be finite, got {t}")
    return t


def require_cosh_range(x: float, what: str) -> None:
    """RangeOverflowError, naming x by what, unless |x| <= COSH_T_MAX (a NaN is not): the one
    rule for where cosh, and so J(e^t) and every certificate envelope, leaves double range."""
    if not abs(x) <= COSH_T_MAX:
        raise RangeOverflowError(f"{what} is {x!r}, outside cosh's range [-{COSH_T_MAX:g}, "
                                 f"{COSH_T_MAX:g}]; cosh overflows double precision near 710.5")


def require_finite(x: float, what: str) -> float:
    """float(x), or RangeOverflowError naming it by what unless it is finite (a NaN is not)."""
    x = float(x)
    if not math.isfinite(x):
        raise RangeOverflowError(f"{what} is {x!r}, which overflows double precision")
    return x


def _cosh_minus_1(t: float) -> float:
    # cosh(t) - 1 = 2 sinh(t/2)^2, stable near t = 0
    s = math.sinh(0.5 * t)
    return 2.0 * s * s


class LogForms(NamedTuple):
    G: float
    H: float


class AmGmDecomposition(NamedTuple):
    am: float
    gm: float
    diff: float


class GoldenResult(NamedTuple):
    phi: float
    iterations: int
    cost_at_phi: float


def canonical_cost(x: float) -> float:
    """J(x) = (x-1)^2/(2x); equals (x + 1/x)/2 - 1 to within one ulp.  Past sqrt(DBL_MAX),
    where (x-1)^2 overflows but J ~ x/2 does not, it is ((x-1)/2) ((x-1)/x), within 2 ulps."""
    x = validate_positive(x)
    u = x - 1.0
    return (u * u) / (2.0 * x) if u * u < math.inf else (0.5 * u) * (u / x)


def log_forms(t: float) -> LogForms:
    """The log-coordinate pair (G, H) = (cosh t - 1, cosh t) of the canonical cost."""
    t = validate_log_coord(t)
    require_cosh_range(t, "t")
    g = _cosh_minus_1(t)
    return LogForms(G=g, H=g + 1.0)


def am_gm_decomposition(x: float) -> AmGmDecomposition:
    """Arithmetic and geometric means of (x, 1/x); their gap is the canonical cost."""
    x = validate_positive(x)
    am = 0.5 * (x + 1.0 / x)
    return AmGmDecomposition(am=am, gm=1.0, diff=canonical_cost(x))


def bregman_divergence(t: float) -> float:
    """Bregman divergence of the generator cosh at reference point 0.

    cosh(t) - cosh(0) - sinh(0) * t = cosh(t) - 1, identical to log_forms(t).G
    by construction (same code path).
    """
    return log_forms(t).G


def golden_fixed_point(x0: float) -> GoldenResult:
    """Iterate x -> 1 + 1/x from x0 > 0 until the next iterate equals the current one.

    Returns that double, the number of maps applied and J there.  It is (1 + sqrt 5)/2
    itself: near phi the map shrinks the distance to phi by 1/phi^2 per step and rounds by
    under an ulp, so a cycle could only lie within a few ulps of phi, and every double within
    20 000 ulps of phi maps to phi.  So the loop needs no tolerance and no budget; from every
    start tried it takes at most 41 maps.
    """
    x, n = validate_positive(x0), 1
    while (x_next := 1.0 + 1.0 / x) != x:
        x, n = x_next, n + 1
    return GoldenResult(phi=x, iterations=n, cost_at_phi=canonical_cost(x))
