"""The soundness ledger: ROADMAP's reproducers, each as the property a sound answer has.

A `verified` certificate claims |H(t) - cosh(sqrt(a) t)| <= (delta/a) (cosh(sqrt(a) |t|) - 1)
+ floor on its whole window |t| <= T - h, floor being 0 for a certificate that reports none.
Each certificate test runs a reproducer as the CLI runs it and, where the answer is `verified`,
checks that the claim is not vacuous and holds off the grid: the window has a node t != 0,
delta/a < 1, so that the envelope lies below the branch's own excess cosh(sqrt(a) t) - 1, and
the envelope holds on a grid 20x finer than the certificate's, out to t = +-(T - h): the
census's own re-check, scripts/soundness_census.py's fine_sweep.  A `not verified` answer, or a
refusal, asserts nothing, because a sound method may rightly refuse these inputs; item 3's
tables, which a sound method must verify, are the exception.  Other answers are checked by
their own claims:

- an accepted branch's sup residual on its window is at most 1e-6 sup |branch| there;
- a certificate's K bounds |H'''| on a grid 20x finer than the one that measured it;
- the curvature of cos(k t) is -k^2, to 1e-6 relative, and classify accepts cos(k t) as
  Cos(k).

The checks use only the handle's values and derivatives, and numpy.

A reproducer that is still unsound is an expected failure, strictly: the change that mends it
turns its test into an unexpected pass, and takes the mark off in the same change.

The census gate runs scripts/soundness_census.py at a fixed budget (seed 0, 30 draws per set
and step) and finds no verified draw whose envelope breaks on the fine grid, so an unsound
verdict on new inputs fails tier-1 too, not only on the reproducers above.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from helpers import load_script
from reccost import LOG_LINE, make_family, parse_family_spec
from reccost.cli import load_samples, run

soundness_census = load_script("soundness_census")


def family(spec):
    return make_family(parse_family_spec(spec), domain=LOG_LINE)


def assert_sound(argv, handle, step, must_verify=False):
    """Run argv; where its certificate is verified, check its claim on handle.  With
    must_verify, a certificate that is not verified fails too."""
    _, report = run(argv)
    results = report.results or {}
    cert = results.get("certificate", results)  # report's section, or certify's results
    if not cert.get("verified"):
        assert not must_verify, ("not verified: margin "
                                 f"{cert.get('max_envelope_margin', report.diagnostics)!r}")
        return
    T, h, a = (cert["inputs"][k] for k in ("T", "h", "a"))
    scale, floor = cert["delta"] / a, cert.get("floor", 0.0)
    nodes = np.linspace(-T, T, 2 * round(T / step) + 1)
    window = nodes[np.abs(nodes) <= T - h]
    assert np.any(window != 0.0), f"the window {window} has no node t != 0"
    # scale < 1 is scale (cosh(rate t) - 1) < cosh(rate t) - 1, without a product to overflow
    assert scale < 1.0, f"delta/a = {scale:.3g}: the envelope lies above the branch's excess"
    fields = SimpleNamespace(inputs=SimpleNamespace(**cert["inputs"]), delta=cert["delta"])
    error, envelope = soundness_census.fine_sweep(handle, fields, step)  # the census's re-check
    broken = error > envelope + floor
    assert not np.any(broken), (f"the envelope breaks at {np.count_nonzero(broken)} of "
                                f"{error.size} points of a 20x finer grid")


def assert_branch_sound(argv, spec, T):
    """Run argv; where it accepts a branch on [-T, T], check the branch's sup residual on the
    window's default grid, of step T/100, against 1e-6 times the branch's own sup there."""
    _, report = run(argv)
    results = report.results or {}
    if not results.get("classified"):
        return
    nodes = np.linspace(-T, T, 201)
    if results["branch"] in ("Cosh", "Cos"):
        branch = (np.cosh if results["branch"] == "Cosh" else np.cos)(results["k"] * nodes)
    else:  # ConstantOne or Zero
        branch = np.full_like(nodes, float(results["branch"] == "ConstantOne"))
    handle = family(spec)
    residual, size = np.max(np.abs(handle(nodes) - branch)), np.max(np.abs(branch))
    assert residual <= 1e-6 * size, (f"{results['branch']}(k={results['k']}) is accepted with "
                                     f"residual {residual:.3g}, on a branch of sup {size:.3g}")


ALIASED = "noisy-cosh,amplitude=1e-3,mode=sine,freq=62.83185307179586"


def test_reproducer_a_aliased_sine():
    # the grid's nodes sit on the zeros of the sine, so the grid epsilon aliases (ROADMAP item
    # 2b), but against the handle's own a = H''(0) = 4.95 the error breaks the envelope anyway
    assert_sound(["certify", "--family", ALIASED, "--T", "2", "--step", "0.1"],
                 family(ALIASED), 0.1)


@pytest.mark.xfail(strict=True, reason="ROADMAP items 2a and 9: h = T leaves only t = 0 in the "
                   "window, and a vacuous window is reported as a pass")
def test_reproducer_b_vacuous_window():
    assert_sound(["report", "--family", "quadlog", "--T", "50"], family("quadlog"), 0.05)


def test_reproducer_b_classify_refuses_a_far_branch():
    # Cosh(k=0.7) leaves residual 7.9e14, as large as its own sup cosh(35)
    assert_branch_sound(["classify", "--family", "quadlog", "--window-T", "50"], "quadlog", 50.0)


@pytest.mark.xfail(strict=True, reason="ROADMAP items 2a and 9: delta/a = 1.26e12, so the "
                   "envelope lies above the branch's own excess")
def test_reproducer_c_vacuous_envelope():
    assert_sound(["certify", "--family", "cosh-lambda,lambda=10", "--T", "2", "--step", "0.005"],
                 family("cosh-lambda,lambda=10"), 0.005)


@pytest.mark.xfail(strict=True, reason="ROADMAP items 2a and 9: delta/a = 1.2e233 and 3.6e289, "
                   "so the envelope lies above the branch's own excess")
@pytest.mark.parametrize("spec, T", [("cosh-lambda,lambda=100", "3"),
                                     ("powerlaw-w,lambda=170", "2")],
                         ids=["cosh-lambda-100", "powerlaw-w-170"])
def test_steep_reports_vacuous_envelope(spec, T):
    assert_sound(["report", "--family", spec, "--T", T, "--step", "0.5"], family(spec), 0.5)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2b: the verdict reads the nodes, the last "
                   "at 1.95 and 1.99, and the window |t| <= T - h reaches past it to 1.9986 and "
                   "1.9998, where the envelope breaks")
@pytest.mark.parametrize("spec, step", [
    ("noisy-cosh,amplitude=1.5615291284961455e-06,mode=sine,freq=376.91809467553014", "0.05"),
    ("noisy-cosh,amplitude=1.6063429941375496e-07,mode=trig,freq=1256.6755740106655", "0.01"),
], ids=["sine-0.05", "trig-0.01"])
def test_reproducer_d_window_edge_past_the_last_node(spec, step):
    # two aliasing draws of scripts/soundness_census.py (seed 0); h = 1.4e-3 and 2.3e-4
    assert_sound(["certify", "--family", spec, "--T", "2", "--step", step], family(spec),
                 float(step))


FAST_SINE = "noisy-cosh,amplitude=1e-9,mode=sine,freq=1570.7963267948965"  # freq = pi / 0.002


@pytest.mark.xfail(strict=True, reason="ROADMAP item 5b: K = 3.63 is a sup over the T/1000 grid, "
                   "whose nodes sit on the zeros of the sine; |H'''| reaches 7.50 between them")
def test_item_5b_k_bounds_the_third_derivative():
    _, report = run(["certify", "--family", FAST_SINE, "--T", "2", "--step", "0.05"])
    K = report.results["inputs"]["K"]
    fine = np.linspace(-2.0, 2.0, 40001)  # step 1e-4: 20x finer than K's grid, of step 2e-3
    handle = make_family(parse_family_spec(FAST_SINE), domain=LOG_LINE)
    third = np.max(np.abs(handle.derivative(fine, 3)))
    assert K >= third, f"K = {K:.5g} is below max |H'''| = {third:.5g} on a 20x finer grid"


@pytest.mark.parametrize("k", ["30", "100", "300", "1000", "1e4"])
def test_calibrate_cos_k_answers_minus_k_squared(k):
    # a Richardson ladder from h0 = 0.25 once answered -0.2819, -2.537, -28.19 and -8.013 for
    # k = 100, 300, 1000 and 1e4, with exit 0
    _, report = run(["calibrate", "--family", f"cos-k,k={k}"])
    kappa, want = report.results["kappa"], -float(k) ** 2
    assert abs(kappa - want) <= 1e-6 * abs(want), f"kappa = {kappa!r}, not -k^2 = {want!r}"


def test_classify_accepts_an_exact_cos_k():
    # the same ladder once sent cos(100 t) to the Cosh fit, which refused it with exit 1
    code, report = run(["classify", "--family", "cos-k,k=100", "--window-T", "1"])
    assert code == 0, report.results
    assert report.results["branch"] == "Cos"
    assert abs(report.results["k"] - 100.0) <= 1e-9


def write_item_3_table(path, values):
    """A t,H table of values(t) on 811 bitwise-symmetric nodes of [-4.05, 4.05], step 0.01."""
    half = np.arange(406) * 0.01
    ts = np.concatenate([-half[:0:-1], half])
    rows = "".join(f"{t!r},{v!r}\n" for t, v in zip(ts.tolist(), values(ts).tolist()))
    path.write_text("t,H\n" + rows, encoding="utf-8")
    return str(path)


def cosh_five_ulps_at_0(ts):
    return np.where(ts == 0.0, 1.0 + 5 * np.finfo(float).eps, np.cosh(ts))


def cosh_plus_cos_3t(ts):
    return np.cosh(ts) + 1e-12 * np.cos(3.0 * ts)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
@pytest.mark.parametrize("values", [cosh_five_ulps_at_0, cosh_plus_cos_3t],
                         ids=["cosh-five-ulps-at-0", "cosh-plus-1e-12-cos-3t"])
def test_item_3_table_verifies(values, tmp_path):
    # H(0) != 1 by 5 ulps or by 1e-12, where the envelope is 0: margins -1.11e-15 and -1.00e-12
    path = write_item_3_table(tmp_path / "table.csv", values)
    assert_sound(["certify", "--input", path, "--T", "2", "--step", "0.01"], load_samples(path),
                 0.01, must_verify=True)


# the census gate: --draws changes the draws themselves, so the budget is part of the test.
# Raise it once reproducer D is closed, if tier-1's time allows; never lower it
CENSUS_SEED, CENSUS_DRAWS = 0, 30


def test_the_census_gate_finds_no_unsound_certificate():
    counts = soundness_census.census(CENSUS_SEED, CENSUS_DRAWS)
    assert len(counts) == 10  # three sets of draws and two table sizes, at two steps each
    assert {key: c["unsound"] for key, c in counts.items()} == dict.fromkeys(counts, 0)
