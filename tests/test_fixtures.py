import hashlib
import math
import re
import warnings

import numpy as np
import pytest

from reccost import (
    FAMILIES,
    LOG_LINE,
    POSITIVE_RATIOS,
    DomainError,
    FamilySpec,
    ParameterError,
    canonical_cost,
    defect_ratio,
    estimate_kappa,
    lift_to_log,
    make_family,
    parse_family_spec,
    perturb,
    quadlog_defect_oracle,
    sup_defect,
    to_ratio,
)
from reccost.core import COSH_T_MAX
from reccost.grids import symmetric_grid


class TestMakeFamily:
    def test_cosh_lambda_one_is_canonical_cost(self):
        f = make_family(FamilySpec("cosh-lambda", {"lambda": 1.0}))
        assert f.domain == POSITIVE_RATIOS
        for x in np.exp(np.linspace(-3, 3, 121)):
            j = canonical_cost(float(x))
            assert abs(f(float(x)) - j) <= 1e-12 * (1.0 + j)

    def test_quadlog_at_e_squared(self):
        f = make_family(FamilySpec("quadlog"))
        assert abs(f(math.exp(2.0)) - 2.0) <= 1e-13

    def test_powerlaw_at_three(self):
        f = make_family(FamilySpec("powerlaw-w", {"lambda": 2.0}))
        expected = (9.0 + 1.0 / 9.0) / 2.0 - 1.0
        assert abs(f(3.0) - expected) <= 1e-14

    @pytest.mark.parametrize("lam", [0.5, 2.0])
    def test_powerlaw_matches_cosh_lambda(self, lam):
        fw = make_family(FamilySpec("powerlaw-w", {"lambda": lam}))
        fl = make_family(FamilySpec("cosh-lambda", {"lambda": lam}))
        xs = np.exp(np.linspace(-3, 3, 241))
        assert np.max(np.abs(fw(xs) - fl(xs))) <= 1e-12 * math.cosh(3 * lam)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_powerlaw_stays_finite_where_its_square_overflows(self):
        # (W - 1)^2 would overflow from W = 2^512 on; G reads (W - 1)/2 ((W - 1)/W) instead
        fw = make_family(FamilySpec("powerlaw-w", {"lambda": 170.0}), domain=LOG_LINE)
        fl = make_family(FamilySpec("cosh-lambda", {"lambda": 170.0}), domain=LOG_LINE)
        ts = np.array([1.0, 2.0, 2.5, 4.0])  # W = e^170, e^340 > 2^512, e^425, e^680
        assert np.all(np.abs(fw(ts) / fl(ts) - 1.0) <= 1e-12)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_cosh_lambda_solves_composition_law(self, lam, rng):
        f = make_family(FamilySpec("cosh-lambda", {"lambda": lam}))
        xs = np.exp(rng.uniform(-2, 2, size=40))
        ys = np.exp(rng.uniform(-2, 2, size=40))
        for x, y in zip(xs, ys):
            d = defect_ratio(f, float(x), float(y))
            scale = 1.0 + 2.0 * (f(float(x)) + 1.0) * (f(float(y)) + 1.0)
            assert abs(d) <= 1e-10 * scale

    def test_quadlog_three_way_property(self):
        # normalized and unit-calibrated, yet not a solution
        f = make_family(FamilySpec("quadlog"))
        assert f(1.0) == 0.0
        assert estimate_kappa(lift_to_log(f)) == 1.0
        h = make_family(FamilySpec("quadlog"), domain=LOG_LINE)
        rep = sup_defect(h, 1.0, 0.5)
        assert rep.epsilon > 0.1

    def test_unknown_domain_rejected(self):
        # refused by from_excess, the one constructor, as every handle's tag is
        with pytest.raises(DomainError, match="^unknown domain tag 'ratios'$"):
            make_family(FamilySpec("cosh-lambda"), domain="ratios")

    def test_zero_family_ratio_form(self):
        f = make_family(FamilySpec("zero"), domain=POSITIVE_RATIOS)
        assert f(3.0) == -1.0

    def test_constant_one_both_domains(self):
        h = make_family(FamilySpec("constant-one"))
        assert h(17.0) == 1.0
        f = make_family(FamilySpec("constant-one"), domain=POSITIVE_RATIOS)
        assert f(17.0) == 0.0

    def test_noisy_cosh_deterministic_given_seed(self):
        spec = FamilySpec("noisy-cosh", {"lambda": 1.0, "amplitude": 1e-3, "mode": "trig", "seed": 7})
        a = make_family(spec, domain=LOG_LINE)
        b = make_family(spec, domain=LOG_LINE)
        ts = np.linspace(-2, 2, 101)
        assert np.array_equal(a(ts), b(ts))
        other = make_family(
            FamilySpec("noisy-cosh", {"lambda": 1.0, "amplitude": 1e-3, "mode": "trig", "seed": 8}),
            domain=LOG_LINE,
        )
        assert np.max(np.abs(a(ts) - other(ts))) > 0

    def test_noisy_cosh_keeps_hypotheses(self):
        h = make_family(FamilySpec("noisy-cosh", {"amplitude": 1e-3, "mode": "sine", "freq": 5.0}),
                        domain=LOG_LINE)
        assert h(0.0) == 1.0
        ts = np.linspace(0.01, 2, 57)
        assert np.max(np.abs(h(ts) - h(-ts))) <= 1e-15

    @pytest.mark.parametrize(
        "spec",
        [
            FamilySpec("no-such-family"),
            FamilySpec("cosh-lambda", {"lambda": 0.0}),
            FamilySpec("cos-k", {"k": -1.0}),
            FamilySpec("noisy-cosh", {"amplitude": -1e-3}),
            FamilySpec("noisy-cosh", {"mode": "square"}),
            FamilySpec("powerlaw-w", {"lambda": -2.0}),
        ],
    )
    def test_parameter_errors(self, spec):
        with pytest.raises(ParameterError):
            make_family(spec)

    @pytest.mark.parametrize("spec", ["cosh-lambda,lambda=1e103", "cos-k,k=1e103",
                                      "noisy-cosh,freq=1e103", "noisy-cosh,mode=trig,freq=1e103"])
    def test_construction_is_warning_free(self, spec):
        # a derivative's coefficient past the double range is inf, without a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for domain in (LOG_LINE, POSITIVE_RATIOS):
                make_family(parse_family_spec(spec), domain)


class TestQuadlogDefectOracle:
    def test_reference_points(self):
        assert quadlog_defect_oracle(1.0, 1.0) == -0.5
        assert quadlog_defect_oracle(1.7, 0.0) == 0.0
        assert quadlog_defect_oracle(2.0, 3.0) == -18.0

    def test_matches_handle_defect(self, rng):
        from reccost import defect_log

        h = make_family(FamilySpec("quadlog"), domain=LOG_LINE)
        for t, u in rng.uniform(-2, 2, size=(100, 2)):
            d = defect_log(h, float(t), float(u))
            assert abs(d - quadlog_defect_oracle(float(t), float(u))) <= 1e-12


class TestPerturb:
    def base(self):
        return make_family(FamilySpec("cosh-lambda"), domain=LOG_LINE)

    def test_zero_amplitude_is_identity(self):
        p = perturb(self.base(), "poly4", 0.0)
        ts = np.linspace(-2, 2, 101)
        assert np.max(np.abs(p(ts) - self.base()(ts))) <= 1e-15

    def test_poly4_value(self):
        p = perturb(self.base(), "poly4", 1e-3)
        assert abs(p(1.0) - (math.cosh(1.0) + 1e-3)) <= 1e-15

    def test_sine_preserves_hypotheses(self):
        p = perturb(self.base(), "sine", 1e-3, freq=5.0)
        assert p(0.0) == 1.0
        ts = np.linspace(0.03, 2, 41)
        assert np.max(np.abs(p(ts) - p(-ts))) <= 1e-15

    @pytest.mark.parametrize("mode", ["sine", "trig"])
    @pytest.mark.parametrize("t", [1e-9, 1e-150])
    def test_small_perturbations_keep_their_relative_precision(self, mode, t):
        # each value is formed as 2 sin^2(z / 2), not 1 - cos z, which rounds to 0 once
        # z < 1e-8; here z <= 25 t, so the excess is G''(0) t^2 / 2 to the last bits
        p = perturb(make_family(FamilySpec("constant-one")), mode, 1.0, freq=5.0)
        want = 0.5 * p.derivative(0.0, 2) * t * t
        assert abs(p.excess(t) - want) <= 4 * np.spacing(want)

    @pytest.mark.parametrize("mode", ["sine", "trig"])
    def test_a_largest_amplitude_keeps_its_value(self, mode):
        # the amplitude scales last: 2a overflows from a = DBL_MAX / 2, and 2a sin^2(0) was NaN
        big, unit = (perturb(make_family(FamilySpec("constant-one")), mode, a, freq=5.0)
                     for a in (1e308, 1.0))
        assert big.excess(0.0) == 0.0 and big(0.0) == 1.0
        g = big.excess(0.01)
        assert abs(g - 1e308 * unit.excess(0.01)) <= 2 * np.spacing(g)

    def test_derivatives_exposed(self):
        p = perturb(self.base(), "poly4", 1e-2)
        assert abs(p.derivative(1.0, 3) - (math.sinh(1.0) + 24.0 * 1e-2)) <= 1e-12

    def test_positive_ratio_handle_rejected(self):
        ratio = make_family(FamilySpec("cosh-lambda"), domain=POSITIVE_RATIOS)
        with pytest.raises(DomainError, match="^perturb needs a log-line handle, got "
                                              "positive-ratios$"):
            perturb(ratio, "poly4", 1e-3)

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            perturb(self.base(), "poly5", 1e-3)
        with pytest.raises(ParameterError):
            perturb(self.base(), "poly4", -1.0)

    @pytest.mark.parametrize("mode", ["poly4", "sine", "trig"])
    def test_freq_is_checked_in_every_mode(self, mode):
        # the one rule perturb shares with noisy-cosh; poly4 once took any freq
        with pytest.raises(ParameterError, match=re.escape("perturb needs freq > 0 and finite")):
            perturb(self.base(), mode, 1e-3, freq=-1.0)


class TestFamilySpecText:
    def test_bare_name(self):
        spec = parse_family_spec("cosh")
        assert spec.family == "cosh-lambda"
        assert make_family(spec, domain=LOG_LINE)(0.0) == 1.0

    def test_full_form(self):
        spec = parse_family_spec("family=cosh-lambda,lambda=2")
        assert spec.family == "cosh-lambda"
        assert spec.params["lambda"] == 2.0

    def test_leading_token_shorthand(self):
        spec = parse_family_spec("cos-k,k=0.7")
        assert spec.family == "cos-k"
        assert spec.params["k"] == 0.7

    @pytest.mark.parametrize("bad", ["", "family=nope", "cosh,shape=3", "cosh,lambda=abc", "cosh,cos"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ParameterError):
            parse_family_spec(bad)


# the parameters each family takes, as documented; every other key is refused
PARAMS = {
    "cosh-lambda": ("lambda",),
    "cos-k": ("k",),
    "constant-one": (),
    "zero": (),
    "quadlog": (),
    "noisy-cosh": ("lambda", "amplitude", "freq", "mode", "seed"),
    "powerlaw-w": ("lambda",),
}
# a value each key would accept, as text and as the type make_family takes
VALUES = {"lambda": "2", "k": "2", "amplitude": "1e-3", "freq": "5", "mode": "sine", "seed": "3"}
TYPED = {"lambda": 2.0, "k": 2.0, "amplitude": 1e-3, "freq": 5.0, "mode": "sine", "seed": 3}

# name and sha256 prefix of H and derivatives 1..3 on TS, or of F alone on e^TS, of handles
# built before the family table existed (powerlaw-w's since it reads W = e^(lambda |t|)); the
# table must rebuild them bit for bit, and the other domain's view of each must have its twin's
# values (a ratio row's lift, its twin's stack)
TS = np.linspace(-2.0, 2.0, 41)
PINNED = [
    ("cosh-lambda", LOG_LINE, "cosh-lambda(1)", "1ae0e9563ce32251"),
    ("cosh-lambda", POSITIVE_RATIOS, "cosh-lambda(1)", "e5f586747bc14df1"),
    ("cos-k", LOG_LINE, "cos-k(1)", "d929b0c298134099"),
    ("cos-k", POSITIVE_RATIOS, "cos-k(1)", "c73269968f5cdf83"),
    ("constant-one", LOG_LINE, "constant-one", "364bf864b3b12a79"),
    ("constant-one", POSITIVE_RATIOS, "constant-one", "7b4499c3cc6e82a9"),
    ("zero", LOG_LINE, "zero", "2c7663e809c9827d"),
    ("zero", POSITIVE_RATIOS, "zero", "4679cdef7ebce79a"),
    ("quadlog", LOG_LINE, "quadlog", "89dd045eb5333739"),
    ("quadlog", POSITIVE_RATIOS, "quadlog", "86ae4420cfff62da"),
    ("noisy-cosh", LOG_LINE, "noisy-cosh(1,sine,0.001)", "54ec1d5eccc29ee5"),
    ("noisy-cosh", POSITIVE_RATIOS, "noisy-cosh(1,sine,0.001)", "7dfd46da809f2c3e"),
    ("powerlaw-w", LOG_LINE, "powerlaw-w(1)", "d54d26dfa0ee5699"),
    ("powerlaw-w", POSITIVE_RATIOS, "powerlaw-w(1)", "e83284e70acbc346"),
    ("cosh-lambda,lambda=2", LOG_LINE, "cosh-lambda(2)", "2741088c17376f6e"),
    ("cosh-lambda,lambda=2", POSITIVE_RATIOS, "cosh-lambda(2)", "3c8a717187aa4853"),
    ("cos,k=0.7", LOG_LINE, "cos-k(0.7)", "7b2e24ba817cb7ba"),
    ("cos,k=0.7", POSITIVE_RATIOS, "cos-k(0.7)", "11eb6a81dc30cee1"),
    ("noisy-cosh,mode=poly4,amplitude=0.01", LOG_LINE,
     "noisy-cosh(1,poly4,0.01)", "4db837ce413c43c4"),
    ("noisy-cosh,mode=poly4,amplitude=0.01", POSITIVE_RATIOS,
     "noisy-cosh(1,poly4,0.01)", "f3da8d524affab2c"),
    ("noisy-cosh,mode=trig,seed=7,freq=2", LOG_LINE,
     "noisy-cosh(1,trig,0.001)", "462df319e67d95e8"),
    ("noisy-cosh,mode=trig,seed=7,freq=2", POSITIVE_RATIOS,
     "noisy-cosh(1,trig,0.001)", "54b36c669f401593"),
    ("powerlaw-w,lambda=0.5", LOG_LINE, "powerlaw-w(0.5)", "8dab1fae58d32b86"),
    ("powerlaw-w,lambda=0.5", POSITIVE_RATIOS, "powerlaw-w(0.5)", "2e1182947edeca23"),
]


def digest(h) -> str:
    if h.domain == LOG_LINE:
        stack = np.stack([h(TS)] + [h.derivative(TS, k) for k in (1, 2, 3)])
    else:  # a ratio handle has values only; its derivatives are its lift's
        stack = h(np.exp(TS))
    return hashlib.sha256(stack.tobytes()).hexdigest()[:16]


class TestFamilyTable:
    @pytest.mark.parametrize("family, key", [(f, k) for f, keys in PARAMS.items()
                                             for k in VALUES if k not in keys])
    def test_a_key_the_family_does_not_take_is_refused(self, family, key):
        listed = ", ".join(PARAMS[family]) or "none"
        message = f"{family} takes no parameter '{key}'; its parameters: {listed}"
        with pytest.raises(ParameterError, match=re.escape(message)):
            parse_family_spec(f"{family},{key}={VALUES[key]}")
        with pytest.raises(ParameterError, match=re.escape(message)):
            make_family(FamilySpec(family, {key: TYPED[key]}))

    @pytest.mark.parametrize("key", ["lambda", "amplitude", "freq", "mode", "seed", "family"])
    def test_a_key_given_twice_is_refused(self, key):
        # a FamilySpec's params are a mapping, so only the text can repeat a key
        value = "noisy-cosh" if key == "family" else VALUES[key]
        with pytest.raises(ParameterError, match="twice|two families"):
            parse_family_spec(f"noisy-cosh,{key}={value},{key}={value}")

    @pytest.mark.parametrize("family, key, value, message", [
        ("noisy-cosh", "seed", 1.5, "seed must be an integer"),
        ("noisy-cosh", "seed", -1, "noisy-cosh needs seed >= 0"),
        ("cosh-lambda", "lambda", "abc", "lambda must be a number"),
        ("cos-k", "k", math.inf, "cos-k needs k > 0 and finite"),
        ("noisy-cosh", "freq", 0.0, "noisy-cosh needs freq > 0 and finite"),
        ("noisy-cosh", "amplitude", math.nan, "noisy-cosh needs amplitude >= 0 and finite"),
        ("noisy-cosh", "mode", "banana", "noisy-cosh needs mode in"),
    ])
    def test_a_bad_value_is_refused(self, family, key, value, message):
        with pytest.raises(ParameterError, match=re.escape(message)):
            parse_family_spec(f"{family},{key}={value}")
        with pytest.raises(ParameterError, match=re.escape(message)):
            make_family(FamilySpec(family, {key: value}))

    def test_a_seed_past_the_double_range_is_an_integer_like_any_other(self):
        text = "noisy-cosh,mode=trig,seed=" + "7" * 400
        assert parse_family_spec(text).params["seed"] == int("7" * 400)
        make_family(FamilySpec("noisy-cosh", {"mode": "trig", "seed": 10**400}))

    @pytest.mark.parametrize("spec, domain, name, pinned", PINNED,
                             ids=[f"{s}-{d}" for s, d, _, _ in PINNED])
    def test_handles_are_bit_identical_to_the_pinned_ones(self, spec, domain, name, pinned):
        h = make_family(parse_family_spec(spec), domain)
        assert h.name == name
        assert digest(h) == pinned
        view = to_ratio(h) if domain == LOG_LINE else lift_to_log(h)
        twin = next(d for s, dom, _, d in PINNED if s == spec and dom != domain)
        assert digest(view) == twin

    @pytest.mark.parametrize("spec, domain", [row[:2] for row in PINNED],
                             ids=[f"{s}-{d}" for s, d, _, _ in PINNED])
    def test_support_is_the_t_interval_in_both_domains(self, spec, domain):
        parsed = parse_family_spec(spec)
        h = make_family(parsed, domain)
        # cosh(lambda t) stays finite on |t| <= 700 / lambda (lambda = 1 by default)
        t_max = (COSH_T_MAX / parsed.params.get("lambda", 1.0)
                 if "lambda" in PARAMS[parsed.family] else 1e150)
        assert h.support == (-t_max, t_max)

    @pytest.mark.parametrize("mode", ["poly4", "sine", "trig"])
    def test_noisy_cosh_is_perturbed_cosh(self, mode):
        noisy = make_family(FamilySpec("noisy-cosh", {"mode": mode, "amplitude": 3e-3,
                                                      "freq": 2.5}), LOG_LINE)
        cosh = make_family(FamilySpec("cosh-lambda"), LOG_LINE)
        perturbed = perturb(cosh, mode, 3e-3, freq=2.5)
        assert perturbed.support == noisy.support
        assert np.array_equal(perturbed(TS), noisy(TS))
        for k in (1, 2, 3):
            assert np.array_equal(perturbed.derivative(TS, k), noisy.derivative(TS, k))


# every builtin at its defaults, each perturbation mode, and lambdas and a k off the default
EVEN_SPECS = list(FAMILIES) + [
    "noisy-cosh,mode=poly4,amplitude=0.01", "noisy-cosh,mode=sine,freq=4.5,amplitude=5e-4",
    "noisy-cosh,mode=trig,seed=7,freq=3", "cosh-lambda,lambda=0.7", "cos-k,k=3",
    "powerlaw-w,lambda=0.7", "powerlaw-w,lambda=3"]


@pytest.mark.parametrize("spec", EVEN_SPECS)
def test_every_even_builtin_is_bitwise_even_on_the_sweep_nodes(spec):
    """G(-t) is G(t) bit for bit on a sweep's nodes, which is what lets dalembert fold its
    sweeps onto the triangle t >= u; so are the even orders, and the odd ones are odd by value
    (+0 and -0 differ in bytes)."""
    _, nodes = symmetric_grid(4.0, 0.001)
    h = make_family(parse_family_spec(spec), LOG_LINE)
    g = h.excess(nodes)
    assert g.tobytes() == g[::-1].tobytes()
    for k in (1, 2, 3):
        d = h.derivative(nodes, k)
        assert np.array_equal(d, -d[::-1]) if k % 2 else d.tobytes() == d[::-1].tobytes(), k


# each circular or hyperbolic stack as its terms (a, c, s, hyperbolic): G is the sum of
# a c (cosh(s t) - 1) over hyperbolic terms and a c (1 - cos(s t)) over circular ones;
# powerlaw-w's J(e^(lambda |t|)) is cosh(lambda t) - 1
_RAW = np.random.default_rng(7).random(5)
TERMS = {
    "cosh-lambda,lambda=0.5": [(1.0, 1.0, 0.5, True)],
    "cosh-lambda,lambda=2": [(1.0, 1.0, 2.0, True)],
    "cosh-lambda,lambda=30": [(1.0, 1.0, 30.0, True)],
    "powerlaw-w,lambda=0.5": [(1.0, 1.0, 0.5, True)],
    "powerlaw-w,lambda=2": [(1.0, 1.0, 2.0, True)],
    "powerlaw-w,lambda=30": [(1.0, 1.0, 30.0, True)],
    "cos-k,k=1": [(-1.0, 1.0, 1.0, False)],
    "cos-k,k=30": [(-1.0, 1.0, 30.0, False)],
    "noisy-cosh,amplitude=1e-3,freq=5": [(1.0, 1.0, 1.0, True), (1e-3, 1.0, 5.0, False)],
    "noisy-cosh,amplitude=1e-3,freq=62.83185307179586": [
        (1.0, 1.0, 1.0, True), (1e-3, 1.0, 62.83185307179586, False)],
    "noisy-cosh,amplitude=0.37,freq=7.3": [(1.0, 1.0, 1.0, True), (0.37, 1.0, 7.3, False)],
    "noisy-cosh,mode=trig,seed=7,freq=2,amplitude=0.01": [(1.0, 1.0, 1.0, True)] + [
        (0.01, c, s, False) for c, s in zip(_RAW / _RAW.sum(), 2.0 * np.arange(1, 6))],
}


@pytest.mark.parametrize("spec", TERMS)
def test_stacks_match_50_digit_values(spec):
    """Orders 0-3 at 60 seeded t lie within 4 eps * sum |a c s^k| w (1 + |s t|) of the
    50-digit value, w = cosh(s t) for a hyperbolic term and 1 for a circular one; the
    last factor covers the rounding of s t."""
    mpmath = pytest.importorskip("mpmath")
    h = make_family(parse_family_spec(spec), LOG_LINE)
    end = min(h.support[1], 4.0)
    ts = np.random.default_rng(0).uniform(-end, end, 60)
    eps = np.finfo(float).eps
    for k in range(4):
        got = h.excess(ts) if k == 0 else h.derivative(ts, k)
        for t, value in zip(ts, got):
            exact, bound = mpmath.mpf(0), 0.0
            with mpmath.workdps(50):
                for a, c, s, hyperbolic in TERMS[spec]:
                    z = mpmath.mpf(s) * mpmath.mpf(t)
                    if hyperbolic:
                        wave = mpmath.cosh(z) - 1 if k == 0 else (mpmath.cosh, mpmath.sinh)[k % 2](z)
                    else:
                        wave = (1 - mpmath.cos(z), mpmath.sin(z), mpmath.cos(z), -mpmath.sin(z))[k]
                    exact += mpmath.mpf(a) * mpmath.mpf(c) * mpmath.mpf(s) ** k * wave
                    w = math.cosh(s * t) if hyperbolic else 1.0
                    bound += 4 * eps * abs(a * c * s**k) * w * (1 + abs(s * t))
                assert abs(mpmath.mpf(value) - exact) <= bound, (k, t)


def _py_pow(x: float, k: int) -> float:
    """x**k as a Python float power, inf where it overflows."""
    try:
        return x**k
    except OverflowError:
        return math.inf


@pytest.mark.parametrize("lam", [100.0, 1e6, 1e120])
def test_steep_stacks_are_their_closed_forms(lam):
    """cosh-lambda's and powerlaw-w's stacks at nodes inside the support |t| <= 700/lambda,
    bit for bit and NaN included: at 1e120, lambda^3 overflows and meets the odd waves' 0 at
    t = 0."""
    ts = COSH_T_MAX / lam * np.array([-1.0, -0.5, -0.1, -1e-3, -1e-9, 0.0, 1e-9, 1e-3, 0.1,
                                      0.5, 1.0])
    cosh = make_family(FamilySpec("cosh-lambda", {"lambda": lam}), LOG_LINE)
    power = make_family(FamilySpec("powerlaw-w", {"lambda": lam}), LOG_LINE)
    with np.errstate(over="ignore", invalid="ignore"):
        z, w = lam * ts, np.exp(np.abs(lam * ts))
        stacks = [  # (handle, its closed forms of orders 0-3)
            (cosh, [2.0 * np.sinh(0.5 * lam * ts) ** 2, lam * np.sinh(z),
                    lam * lam * np.cosh(z), _py_pow(lam, 3) * np.sinh(z)]),
            (power, [0.5 * (w - 1.0) * ((w - 1.0) / w)] + [
                _py_pow(lam, k) * (np.copysign(0.5 * (w - 1.0 / w), z) if k % 2
                                   else 0.5 * (w + 1.0 / w)) for k in (1, 2, 3)]),
        ]
        for h, stack in stacks:
            for k, want in enumerate(stack):
                got = h.excess(ts) if k == 0 else h.derivative(ts, k)
                assert got.tobytes() == want.tobytes(), (h.name, k)
    assert np.isnan(stacks[0][1][3]).any() == (lam == 1e120)
