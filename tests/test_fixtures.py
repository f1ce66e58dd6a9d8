import hashlib
import math
import re

import numpy as np
import pytest

from reccost import (
    LOG_LINE,
    POSITIVE_RATIOS,
    DomainError,
    FamilySpec,
    ParameterError,
    canonical_cost,
    defect_ratio,
    estimate_kappa,
    family_spec_text,
    lift_to_log,
    make_family,
    parse_family_spec,
    perturb,
    quadlog_defect_oracle,
    sup_defect,
)


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
        est = estimate_kappa(lift_to_log(f))
        assert abs(est.kappa - 1.0) <= 1e-10
        h = make_family(FamilySpec("quadlog"), domain=LOG_LINE)
        rep = sup_defect(h, 1.0, 0.5)
        assert rep.epsilon > 0.1

    def test_unknown_domain_rejected(self):
        with pytest.raises(ParameterError, match="unknown domain 'ratios'"):
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

    def test_derivatives_exposed(self):
        p = perturb(self.base(), "poly4", 1e-2)
        assert abs(p.derivative(1.0, 3) - (math.sinh(1.0) + 24.0 * 1e-2)) <= 1e-12

    def test_positive_ratio_handle_rejected(self):
        ratio = make_family(FamilySpec("cosh-lambda"), domain=POSITIVE_RATIOS)
        with pytest.raises(DomainError, match="perturb operates on log-line handles"):
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

    def test_round_trip(self):
        spec = parse_family_spec("family=noisy-cosh,lambda=1.5,amplitude=0.001,mode=sine,freq=5.0")
        again = parse_family_spec(family_spec_text(spec))
        assert again == spec

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

# name and sha256 prefix of (support, H or F and derivatives 1..3 on TS) of handles built
# before the family table existed; the table must rebuild them bit for bit
TS = np.linspace(-2.0, 2.0, 41)
PINNED = [
    ("cosh-lambda", LOG_LINE, "cosh-lambda(1)", "682b6f452d423743"),
    ("cosh-lambda", POSITIVE_RATIOS, "cosh-lambda(1)", "5f3267cbf33f1732"),
    ("cos-k", LOG_LINE, "cos-k(1)", "c7d642e4520de4e7"),
    ("cos-k", POSITIVE_RATIOS, "cos-k(1)", "3ee7c50662f66752"),
    ("constant-one", LOG_LINE, "constant-one", "d322724437df0d62"),
    ("constant-one", POSITIVE_RATIOS, "constant-one", "14907fc809fb074c"),
    ("zero", LOG_LINE, "zero", "b40e6c2daa8a1630"),
    ("zero", POSITIVE_RATIOS, "zero", "a43c65c98e06b8ae"),
    ("quadlog", LOG_LINE, "quadlog", "8ae116d0943c7d6e"),
    ("quadlog", POSITIVE_RATIOS, "quadlog", "f6da8a122c89ffcc"),
    ("noisy-cosh", LOG_LINE, "noisy-cosh(1,sine,0.001)", "84f7ace69bbbd52c"),
    ("noisy-cosh", POSITIVE_RATIOS, "noisy-cosh(1,sine,0.001)", "1b1d42b5d3a20234"),
    ("powerlaw-w", LOG_LINE, "powerlaw-w(1)", "8768a0b561a75b29"),
    ("powerlaw-w", POSITIVE_RATIOS, "powerlaw-w(1)", "1e57cf0e9d3e8ac6"),
    ("cosh-lambda,lambda=2", LOG_LINE, "cosh-lambda(2)", "a2badc9c80126a03"),
    ("cosh-lambda,lambda=2", POSITIVE_RATIOS, "cosh-lambda(2)", "6b964a945ab9d431"),
    ("cos,k=0.7", LOG_LINE, "cos-k(0.7)", "94e4f5330c2e171e"),
    ("cos,k=0.7", POSITIVE_RATIOS, "cos-k(0.7)", "c0056d2cc0188ab8"),
    ("noisy-cosh,mode=poly4,amplitude=0.01", LOG_LINE,
     "noisy-cosh(1,poly4,0.01)", "29d5f117c115e041"),
    ("noisy-cosh,mode=poly4,amplitude=0.01", POSITIVE_RATIOS,
     "noisy-cosh(1,poly4,0.01)", "54e02ed37b4a2810"),
    ("noisy-cosh,mode=trig,seed=7,freq=2", LOG_LINE,
     "noisy-cosh(1,trig,0.001)", "c54be195e0d8ac9d"),
    ("noisy-cosh,mode=trig,seed=7,freq=2", POSITIVE_RATIOS,
     "noisy-cosh(1,trig,0.001)", "d33be0562cb41740"),
    ("powerlaw-w,lambda=0.5", LOG_LINE, "powerlaw-w(0.5)", "f65313a692252628"),
    ("powerlaw-w,lambda=0.5", POSITIVE_RATIOS, "powerlaw-w(0.5)", "9a0d282899450d56"),
]


def digest(h) -> str:
    z = TS if h.domain == LOG_LINE else np.exp(TS)
    stack = np.stack([h(z)] + [h.derivative(z, k) for k in (1, 2, 3)])
    return hashlib.sha256(np.array(h.support).tobytes() + stack.tobytes()).hexdigest()[:16]


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
