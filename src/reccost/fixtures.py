"""Built-in analytic families, counterexample profiles and smooth perturbations.

Each family is written once, as its log-line excess stack
G(t) = h(t) - 1 with analytic derivatives to order 3; the positive-ratio
form F(x) = G(ln x) is the same stack viewed through handles.from_excess.

    cosh-lambda   G(t) = 2 sinh^2(lambda t / 2)      exact solution branch
    cos-k         G(t) = -2 sin^2(k t / 2)           oscillatory solution branch
    constant-one  G(t) = 0                           degenerate solution
    zero          G(t) = -1                          trivial solution (h = 0)
    quadlog       G(t) = t^2/2                       calibrated non-solution
    noisy-cosh    cosh-lambda plus a smooth even perturbation
    powerlaw-w    G(t) = (W - 1)^2 / (2W) with W = e^(lambda t), evaluated via W

cosh-lambda and powerlaw-w are the same function computed along different
routes; agreement between them is asserted by the test suite.  Handles are
immutable; noisy-cosh noise coefficients are materialized at construction
from the seed, so evaluation order cannot change values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import DomainError, ParameterError
from .handles import LOG_LINE, POSITIVE_RATIOS, FunctionHandle, from_excess

FAMILY_COSH_LAMBDA = "cosh-lambda"
FAMILY_COS_K = "cos-k"
FAMILY_CONSTANT_ONE = "constant-one"
FAMILY_ZERO = "zero"
FAMILY_QUADLOG = "quadlog"
FAMILY_NOISY_COSH = "noisy-cosh"
FAMILY_POWERLAW_W = "powerlaw-w"

FAMILIES = (
    FAMILY_COSH_LAMBDA,
    FAMILY_COS_K,
    FAMILY_CONSTANT_ONE,
    FAMILY_ZERO,
    FAMILY_QUADLOG,
    FAMILY_NOISY_COSH,
    FAMILY_POWERLAW_W,
)

_ALIASES = {"cosh": FAMILY_COSH_LAMBDA, "cos": FAMILY_COS_K}

NATURAL_DOMAIN = {
    FAMILY_COSH_LAMBDA: POSITIVE_RATIOS,
    FAMILY_COS_K: LOG_LINE,
    FAMILY_CONSTANT_ONE: LOG_LINE,
    FAMILY_ZERO: LOG_LINE,
    FAMILY_QUADLOG: POSITIVE_RATIOS,
    FAMILY_NOISY_COSH: LOG_LINE,
    FAMILY_POWERLAW_W: POSITIVE_RATIOS,
}

PERTURB_MODES = ("poly4", "sine")
_NOISY_MODES = ("poly4", "sine", "trig")

_COSH_T_MAX = 700.0
_LOG_SUPPORT_HUGE = 1e150


@dataclass(frozen=True)
class FamilySpec:
    """A family name plus its validated parameters."""

    family: str
    params: Mapping[str, float] = field(default_factory=dict)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ParameterError(msg)


def _float_param(params, key, default):
    v = float(params.get(key, default))
    if not math.isfinite(v):
        raise ParameterError(f"parameter {key} must be finite, got {v}")
    return v


def _positive_param(params, key, family):
    v = _float_param(params, key, 1.0)
    _require(v > 0, f"{family} needs {key} > 0, got {v}")
    return v


def _cosh_excess(lam: float):
    # 2 sinh^2(lam t / 2) = cosh(lam t) - 1 without the cancellation near t = 0
    return (
        lambda t: 2.0 * np.sinh(0.5 * lam * t) ** 2,
        lambda t: lam * np.sinh(lam * t),
        lambda t: lam * lam * np.cosh(lam * t),
        lambda t: lam**3 * np.sinh(lam * t),
    )


def _cos_excess(k: float):
    return (
        lambda t: -2.0 * np.sin(0.5 * k * t) ** 2,
        lambda t: -k * np.sin(k * t),
        lambda t: -k * k * np.cos(k * t),
        lambda t: k**3 * np.sin(k * t),
    )


def _constant_excess(value: float):
    return (lambda t: np.full_like(t, value),) + (lambda t: np.zeros_like(t),) * 3


_QUADLOG_EXCESS = (
    lambda t: 0.5 * t * t,
    lambda t: t,
    lambda t: np.ones_like(t),
    lambda t: np.zeros_like(t),
)


def _powerlaw_excess(lam: float):
    # honest "via W" route, W = e^(lambda t): G = J(W) = (W - 1)^2 / (2W) and
    # G^(k) = lambda^k (W - 1/W) / 2 for odd k, lambda^k (W + 1/W) / 2 for even k
    def via_w(k):
        def g(t):
            w = np.exp(lam * t)
            if k == 0:
                return (w - 1.0) ** 2 / (2.0 * w)
            return 0.5 * lam**k * (w - 1.0 / w if k % 2 else w + 1.0 / w)

        return g

    return tuple(via_w(k) for k in range(4))


def _perturbation_fns(mode: str, amplitude: float, freq: float, seed: int = 0):
    """Even, smooth perturbation p with p(0) = 0 and analytic derivatives to order 3."""
    a = amplitude
    if mode == "poly4":
        return (
            lambda t: a * ((t * t) * (t * t)),  # bitwise even, unlike numpy's t**4
            lambda t: 4.0 * a * t**3,
            lambda t: 12.0 * a * t * t,
            lambda t: 24.0 * a * t,
        )
    if mode == "sine":
        f = freq
        return (
            lambda t: a * (1.0 - np.cos(f * t)),
            lambda t: a * f * np.sin(f * t),
            lambda t: a * f * f * np.cos(f * t),
            lambda t: -a * f**3 * np.sin(f * t),
        )
    if mode == "trig":
        # seeded random even trig sum, coefficients fixed at construction
        rng = np.random.default_rng(seed)
        raw = rng.random(5)
        c = raw / raw.sum()
        js = freq * np.arange(1, 6)

        def term(power, sign, wave):
            # sign * a * sum_j c_j js_j^power wave(js_j t)
            w = (c * js**power)[:, None]
            return lambda t: sign * a * np.sum(
                w * wave(np.outer(js, np.ravel(t))), axis=0).reshape(np.shape(t))

        return (term(0, 1.0, lambda z: 1.0 - np.cos(z)), term(1, 1.0, np.sin),
                term(2, 1.0, np.cos), term(3, -1.0, np.sin))
    raise ParameterError(f"unknown perturbation mode {mode!r}")


def _sum_fns(base_fns, pert_fns, order: int):
    def make(k):
        b, p = base_fns[k], pert_fns[k]
        return lambda t: b(t) + p(t)

    return tuple(make(k) for k in range(order + 1))


def make_family(spec: FamilySpec, domain: str | None = None) -> FunctionHandle:
    """Construct a handle for a builtin family in the requested domain.

    With domain None the family's natural domain is used.  Every family is
    constructible on both the log line and positive ratios; both are views of
    the one log-line excess stack, consistent under t = ln x.
    """
    fam = _ALIASES.get(spec.family, spec.family)
    if fam not in FAMILIES:
        raise ParameterError(f"unknown family {spec.family!r}; known: {', '.join(FAMILIES)}")
    domain = domain or NATURAL_DOMAIN[fam]
    if domain not in (LOG_LINE, POSITIVE_RATIOS):
        raise ParameterError(f"unknown domain {domain!r}")
    p = spec.params
    t_max = _LOG_SUPPORT_HUGE

    if fam in (FAMILY_COSH_LAMBDA, FAMILY_POWERLAW_W):
        lam = _positive_param(p, "lambda", fam)
        t_max = _COSH_T_MAX / lam
        name = f"{fam}({lam:g})"
        fns = _cosh_excess(lam) if fam == FAMILY_COSH_LAMBDA else _powerlaw_excess(lam)
    elif fam == FAMILY_COS_K:
        k = _positive_param(p, "k", fam)
        name, fns = f"cos-k({k:g})", _cos_excess(k)
    elif fam == FAMILY_CONSTANT_ONE:
        name, fns = fam, _constant_excess(0.0)
    elif fam == FAMILY_ZERO:
        name, fns = fam, _constant_excess(-1.0)
    elif fam == FAMILY_QUADLOG:
        name, fns = fam, _QUADLOG_EXCESS
    else:
        lam = _float_param(p, "lambda", 1.0)
        amp = _float_param(p, "amplitude", 1e-3)
        freq = _float_param(p, "freq", 5.0)
        mode = str(p.get("mode", "sine"))
        seed = int(p.get("seed", 0))
        _require(lam > 0, f"noisy-cosh needs lambda > 0, got {lam}")
        _require(amp >= 0, f"noisy-cosh needs amplitude >= 0, got {amp}")
        _require(freq > 0, f"noisy-cosh needs freq > 0, got {freq}")
        _require(mode in _NOISY_MODES, f"noisy-cosh mode must be one of {_NOISY_MODES}")
        _require(seed >= 0, f"noisy-cosh needs seed >= 0, got {seed}")
        t_max = _COSH_T_MAX / lam
        name = f"noisy-cosh({lam:g},{mode},{amp:g})"
        fns = _sum_fns(_cosh_excess(lam), _perturbation_fns(mode, amp, freq, seed), 3)
    return from_excess(domain, name, fns, (-t_max, t_max))


_SPEC_FLOAT_KEYS = ("lambda", "k", "amplitude", "freq")
_SPEC_KEYS = ("family",) + _SPEC_FLOAT_KEYS + ("mode", "seed")


def parse_family_spec(text: str) -> FamilySpec:
    """Parse the textual family form used by the CLI.

    Accepted shapes: a bare name ("cosh", "quadlog"), or comma-separated
    key=value pairs ("family=cosh-lambda,lambda=2"); a bare leading token is
    shorthand for family=<token>.
    """
    family = None
    params: dict[str, float | str] = {}
    for token in str(text).split(","):
        token = token.strip()
        if not token:
            continue
        if "=" not in token:
            if family is not None:
                raise ParameterError(f"family spec {text!r} names two families")
            family = token
            continue
        key, _, value = token.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SPEC_KEYS:
            raise ParameterError(f"unknown family-spec key {key!r}; known: {', '.join(_SPEC_KEYS)}")
        if key == "family":
            family = value
        elif key == "mode":
            params["mode"] = value
        elif key == "seed":
            try:
                params["seed"] = int(value)
            except ValueError:
                raise ParameterError(f"seed must be an integer, got {value!r}") from None
        else:
            try:
                params[key] = float(value)
            except ValueError:
                raise ParameterError(f"{key} must be a number, got {value!r}") from None
    if family is None:
        raise ParameterError(f"family spec {text!r} does not name a family")
    family = _ALIASES.get(family, family)
    if family not in FAMILIES:
        raise ParameterError(f"unknown family {family!r}; known: {', '.join(FAMILIES)}")
    return FamilySpec(family, params)


def family_spec_text(spec: FamilySpec) -> str:
    """Canonical textual form of a family spec (inverse of parse_family_spec)."""
    parts = [f"family={spec.family}"]
    for key in sorted(spec.params):
        parts.append(f"{key}={spec.params[key]}")
    return ",".join(parts)


def quadlog_defect_oracle(t, u):
    """Closed-form d'Alembert defect of h(t) = 1 + t^2/2, namely -t^2 u^2 / 2."""
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

    poly4 adds amplitude * t^4; sine adds amplitude * (1 - cos(freq t)); both
    preserve H(0) = 1 and evenness exactly.
    """
    if base.domain != LOG_LINE:
        raise DomainError("perturb operates on log-line handles")
    if mode not in PERTURB_MODES:
        raise ParameterError(f"perturb mode must be one of {PERTURB_MODES}, got {mode!r}")
    amplitude = float(amplitude)
    if not (amplitude >= 0.0 and math.isfinite(amplitude)):
        raise ParameterError(f"amplitude must be >= 0 and finite, got {amplitude}")
    freq = float(freq)
    if mode == "sine" and not (freq > 0.0 and math.isfinite(freq)):
        raise ParameterError(f"sine mode needs freq > 0, got {freq}")
    pert = _perturbation_fns(mode, amplitude, freq)
    fns = _sum_fns(base.fns, pert, min(base.deriv_order, 3))
    tag = f"{mode}({freq:g})" if mode == "sine" else mode
    return from_excess(LOG_LINE, f"{base.name}+{tag}*{amplitude:g}", fns, base.support)
