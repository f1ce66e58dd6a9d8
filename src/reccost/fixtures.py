"""Built-in analytic families, counterexample profiles and smooth perturbations.

Each family is written once, as its log-line excess stack
G(t) = h(t) - 1 with analytic derivatives to order 3; the positive-ratio
form F(x) = G(ln x) is the same stack viewed through handles.from_excess.
Every transcendental stack, cos-k's, cosh-lambda's (noisy-cosh's base too),
powerlaw-w's and the sine and trig perturbations', is one call of ``_trig_sum``,
a * sum_j c_j times 1 - cos js_j t, cosh js_j t - 1 or J(e^(js_j |t|)).  Every
builtin is bitwise even, G(-t) = G(t) bit for bit, so dalembert folds its sweeps.

    cosh-lambda   G(t) = 2 sinh^2(lambda t / 2)      exact solution branch
    cos-k         G(t) = -2 sin^2(k t / 2)           oscillatory solution branch
    constant-one  G(t) = 0                           degenerate solution
    zero          G(t) = -1                          trivial solution (h = 0)
    quadlog       G(t) = t^2/2                       calibrated non-solution
    noisy-cosh    cosh-lambda plus a smooth even perturbation
    powerlaw-w    G(t) = (W - 1)^2 / (2W) with W = e^(lambda |t|), evaluated via W

One table, ``_TABLE``, gives each family's natural domain and its parameters
with their defaults; a value takes its default's type:

    cosh-lambda, powerlaw-w        lambda = 1.0
    cos-k                          k = 1.0
    noisy-cosh                     lambda = 1.0, amplitude = 1e-3, freq = 5.0,
                                   mode = sine (poly4, sine or trig), seed = 0
    constant-one, zero, quadlog    none

lambda, k and freq must be finite and > 0, amplitude finite and >= 0, seed an
integer >= 0.  A key the family does not take, or a key given twice, is a
ParameterError (the CLI exits 2) rather than being ignored.

cosh-lambda and powerlaw-w are the same function computed along different
routes; agreement between them is asserted by the test suite.  Handles are
immutable; noisy-cosh noise coefficients are materialized at construction
from the seed, so evaluation order cannot change values.  numpy and
``handles`` load only where a stack is built, so a spec is parsed and
checked without them.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, NamedTuple

from .core import COSH_T_MAX, LOG_LINE, POSITIVE_RATIOS
from .errors import ParameterError

if TYPE_CHECKING:
    from .handles import FunctionHandle

PERTURB_MODES = ("poly4", "sine", "trig")
# the parameters of a perturbation, shared by perturb and noisy-cosh
_PERTURBATION = {"amplitude": 1e-3, "freq": 5.0, "mode": "sine", "seed": 0}
_NONNEGATIVE = ("amplitude", "seed")  # every other number must be > 0

# family: (natural domain, parameters with their defaults, handle name, excess stack of the
# checked parameters); a family with a lambda grows like cosh(lambda t), so |t| <= 700/lambda
_TABLE = {
    "cosh-lambda": (POSITIVE_RATIOS, {"lambda": 1.0}, "cosh-lambda({lambda:g})",
                    lambda p: _trig_sum(1.0, [1.0], [p["lambda"]], "cosh")),
    "cos-k": (LOG_LINE, {"k": 1.0}, "cos-k({k:g})", lambda p: _trig_sum(-1.0, [1.0], [p["k"]])),
    "constant-one": (LOG_LINE, {}, "constant-one", lambda p: _constant_excess(0.0)),
    "zero": (LOG_LINE, {}, "zero", lambda p: _constant_excess(-1.0)),
    "quadlog": (POSITIVE_RATIOS, {}, "quadlog", lambda p: _quadlog_excess()),
    "noisy-cosh": (LOG_LINE, {"lambda": 1.0, **_PERTURBATION},
                   "noisy-cosh({lambda:g},{mode},{amplitude:g})",
                   lambda p: _sum_fns(_trig_sum(1.0, [1.0], [p["lambda"]], "cosh"),
                                      _perturbation_fns(p), 3)),
    "powerlaw-w": (POSITIVE_RATIOS, {"lambda": 1.0}, "powerlaw-w({lambda:g})",
                   lambda p: _trig_sum(1.0, [1.0], [p["lambda"]], "w")),
}
FAMILIES = tuple(_TABLE)

_ALIASES = {"cosh": "cosh-lambda", "cos": "cos-k"}

_LOG_SUPPORT_HUGE = 1e150


class FamilySpec(NamedTuple):
    """A family name plus its validated parameters; by default none, in a read-only mapping."""

    family: str
    params: Mapping[str, float | str | int] = MappingProxyType({})


def _known(family: str) -> str:
    fam = _ALIASES.get(family, family)
    if fam not in _TABLE:
        raise ParameterError(f"unknown family {family!r}; known: {', '.join(FAMILIES)}")
    return fam


def _params(who: str, defaults: Mapping, given: Mapping) -> dict:
    """The defaults updated by given, each value of its default's type, all checked."""
    p = dict(defaults)
    for key, value in given.items():
        if key not in defaults:
            raise ParameterError(f"{who} takes no parameter {key!r}; its parameters: "
                                 f"{', '.join(defaults) or 'none'}")
        kind = type(defaults[key])
        try:
            p[key] = kind(value)  # int("1.5") raises; int(1.5) must not truncate
            if kind is int and not isinstance(value, str) and p[key] != value:
                raise ValueError
        except (TypeError, ValueError, OverflowError):
            noun = "an integer" if kind is int else "a number"
            raise ParameterError(f"{key} must be {noun}, got {value!r}") from None
    for key, v in p.items():
        if key == "mode":
            if v not in PERTURB_MODES:
                raise ParameterError(f"{who} needs mode in {PERTURB_MODES}, got {v!r}")
        elif not ((v >= 0 if key in _NONNEGATIVE else v > 0) and v < math.inf):  # nan fails
            bound = ">= 0" if key in _NONNEGATIVE else "> 0"
            raise ParameterError(f"{who} needs {key} {bound} and finite, got {v!r}")
    return p


def _trig_sum(a: float, c, js, shape: str = "cos"):
    """The stack of G(t) = a * sum_j c_j wave(js_j t): order k is a * sum_j c_j js_j^k times
    the k-th wave of the shape, then its scale (last: 2a may overflow).  Shapes and waves:
    "cos", every circular excess: 2 sin^2(z/2), sin, cos, -sin;
    "cosh", the hyperbolic ones: 2 sinh^2(z/2), sinh, cosh, sinh;
    "w", powerlaw-w's route through W = e^|z|: (W - 1)/2 ((W - 1)/W), then (W -+ 1/W)/2
    with the odd orders signed by z.  Order 0 does not cancel near t = 0 in "cos" and "cosh",
    and in "w" (W - 1)/W <= 1 keeps it finite wherever W is."""
    import numpy as np

    if shape == "w":
        def via_w(k):
            def wave(z):
                w = np.exp(np.abs(z))
                if k == 0:
                    return 0.5 * (w - 1.0) * ((w - 1.0) / w)
                return np.copysign(0.5 * (w - 1.0 / w), z) if k % 2 else 0.5 * (w + 1.0 / w)

            return wave

        scales, waves = (1.0,) * 4, [via_w(k) for k in range(4)]
    else:
        odd, even = (np.sinh, np.cosh) if shape == "cosh" else (np.sin, np.cos)
        scales = (2.0, 1.0, 1.0, 1.0 if shape == "cosh" else -1.0)
        waves = (lambda z: odd(0.5 * z) ** 2, odd, even, odd)

    def term(power, scale, wave):
        with np.errstate(over="ignore"):  # a coefficient past the double range is inf
            w = (c * np.power(js, power)).tolist()
        return lambda t: scale * (a * sum(wj * wave(j * t) for wj, j in zip(w, js)))

    return tuple(term(k, scale, wave) for k, (scale, wave) in enumerate(zip(scales, waves)))


def _constant_excess(value: float):
    import numpy as np

    return (lambda t: np.full_like(t, value),) + (lambda t: np.zeros_like(t),) * 3


def _quadlog_excess():
    import numpy as np

    return (lambda t: 0.5 * t * t, lambda t: t,
            lambda t: np.ones_like(t), lambda t: np.zeros_like(t))


def _perturbation_fns(p: Mapping):
    """Even, smooth perturbation with value 0 at t = 0 and analytic derivatives to order 3,
    from the checked parameters p (amplitude, freq, mode, seed)."""
    import numpy as np

    a, f = p["amplitude"], p["freq"]
    if p["mode"] == "poly4":
        return (
            lambda t: a * ((t * t) * (t * t)),  # bitwise even, unlike numpy's t**4
            lambda t: 4.0 * a * np.copysign(np.abs(t) ** 3, t),  # bitwise odd, unlike t**3
            lambda t: 12.0 * a * t * t,
            lambda t: 24.0 * a * t,
        )
    if p["mode"] == "sine":
        return _trig_sum(a, [1.0], [f])
    # trig: a seeded random even trig sum, coefficients fixed at construction
    raw = np.random.default_rng(p["seed"]).random(5)
    return _trig_sum(a, raw / raw.sum(), f * np.arange(1, 6))


def _sum_fns(base_fns, pert_fns, order: int):
    def make(k):
        b, p = base_fns[k], pert_fns[k]
        return lambda t: b(t) + p(t)

    return tuple(make(k) for k in range(order + 1))


def make_family(spec: FamilySpec, domain: str | None = None) -> FunctionHandle:
    """Construct a handle for a builtin family in the requested domain.

    With domain None the family's natural domain is used.  Every family is
    constructible on both the log line and positive ratios; both are views of
    the one log-line excess stack, consistent under t = ln x.  Any other domain tag is
    refused by from_excess, as a DomainError, after the parameters are checked.
    """
    fam = _known(spec.family)
    natural, defaults, name, excess = _TABLE[fam]
    p = _params(fam, defaults, spec.params)
    from .handles import from_excess  # numpy loads with the stack, after the checks

    t_max = COSH_T_MAX / p["lambda"] if "lambda" in p else _LOG_SUPPORT_HUGE
    return from_excess(domain or natural, name.format_map(p), excess(p), (-t_max, t_max))


def parse_family_spec(text: str) -> FamilySpec:
    """Parse the textual family form used by the CLI.

    Accepted shapes: a bare name ("cosh", "quadlog"), or comma-separated
    key=value pairs ("family=cosh-lambda,lambda=2"); a bare token is
    shorthand for family=<token>.  The keys must be parameters of the family,
    each given once, and the values are checked as make_family checks them.
    """
    given: dict[str, str] = {}
    for token in str(text).split(","):
        token = token.strip()
        if not token:
            continue
        key, eq, value = token.partition("=")
        key, value = (key.strip(), value.strip()) if eq else ("family", token)
        if key in given:
            raise ParameterError(f"family spec {text!r} names two families" if key == "family"
                                 else f"family spec {text!r} gives {key!r} twice")
        given[key] = value
    if "family" not in given:
        raise ParameterError(f"family spec {text!r} does not name a family")
    family = _known(given.pop("family"))
    p = _params(family, _TABLE[family][1], given)
    return FamilySpec(family, {key: p[key] for key in given})


def quadlog_defect_oracle(t, u):
    """Closed-form d'Alembert defect of h(t) = 1 + t^2/2, namely -t^2 u^2 / 2."""
    import numpy as np

    t = np.asarray(t, dtype=float)
    u = np.asarray(u, dtype=float)
    out = -0.5 * (t * t) * (u * u)
    return float(out) if out.ndim == 0 else out


def perturb(
    base: FunctionHandle,
    mode: str,
    amplitude: float,
    freq: float = 1.0,
) -> FunctionHandle:
    """Add a smooth even perturbation vanishing at t = 0 to a log-line handle.

    poly4 adds amplitude * t^4; sine adds amplitude * (1 - cos(freq t)); trig
    adds noisy-cosh's seed-0 trig sum at base frequency freq.  All preserve
    H(0) = 1 and evenness exactly.  The parameters are checked as noisy-cosh's
    are: freq must be finite and > 0 in every mode.
    """
    from .handles import from_excess, require_domain

    require_domain(base, LOG_LINE, "perturb")
    p = _params("perturb", _PERTURBATION, {"mode": mode, "amplitude": amplitude, "freq": freq})
    fns = _sum_fns(base.fns, _perturbation_fns(p), min(base.deriv_order, 3))
    tag = p["mode"] if p["mode"] == "poly4" else f"{p['mode']}({p['freq']:g})"
    return from_excess(LOG_LINE, f"{base.name}+{tag}*{p['amplitude']:g}", fns, base.support)
