"""Independent oracles used to freeze expected values.

Everything here stays deliberately separate from the library code paths it
checks: series evaluation instead of libm, composite instead of adaptive
quadrature, scalar loops instead of vectorized sweeps.
"""

import math

import numpy as np


def cosh_series(t: float) -> float:
    """cosh by its Taylor series, summed to convergence."""
    t2 = t * t
    term = 1.0
    total = 1.0
    k = 0
    while True:
        k += 1
        term *= t2 / ((2 * k - 1) * (2 * k))
        new = total + term
        if new == total:
            return total
        total = new


def composite_simpson(f, a: float, b: float, n: int) -> float:
    """Composite Simpson rule with n (even) intervals."""
    if n % 2:
        n += 1
    xs = np.linspace(a, b, n + 1)
    ys = np.array([f(x) for x in xs])
    h = (b - a) / n
    return h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum())


def brute_sup_defect(value_at, axis) -> tuple[float, tuple[float, float]]:
    """Scalar double-loop defect sweep: max |H(t+u)+H(t-u)-2H(t)H(u)| on axis^2."""
    cache = {float(t): value_at(float(t)) for t in axis}
    for t in axis:
        for u in axis:
            for p in (float(t) + float(u), float(t) - float(u)):
                if p not in cache:
                    cache[p] = value_at(p)
    best = -1.0
    arg = (math.nan, math.nan)
    for t in axis:
        t = float(t)
        for u in axis:
            u = float(u)
            d = abs(cache[t + u] + cache[t - u] - 2.0 * cache[t] * cache[u])
            if d > best:
                best = d
                arg = (t, u)
    return best, arg


def brute_identities(value_at, axis) -> tuple[float, float, float, float]:
    """Scalar-loop suprema of the four identity violations on axis (and axis^2), in H form.

    Returns (product_identity, difference_square, double_angle, evenness) for
    H(t+u) H(t-u) = H(t)^2 + H(u)^2 - 1, (H(t+u) - H(t-u))^2 = 4 (H(t)^2 - 1)(H(u)^2 - 1),
    H(2t) = 2 H(t)^2 - 1 and H(-t) = H(t).
    """
    axis = [float(t) for t in axis]
    product = square = double = even = 0.0
    for t in axis:
        ht = value_at(t)
        double = max(double, abs(value_at(2.0 * t) - (2.0 * ht * ht - 1.0)))
        even = max(even, abs(value_at(-t) - ht))
        for u in axis:
            hu = value_at(u)
            hs, hd = value_at(t + u), value_at(t - u)
            product = max(product, abs(hs * hd - (ht * ht + hu * hu - 1.0)))
            square = max(square, abs((hs - hd) ** 2 - 4.0 * (ht * ht - 1.0) * (hu * hu - 1.0)))
    return product, square, double, even
