"""The soundness ledger: ROADMAP's reproducers, each as the property a sound answer has.

A `verified` certificate claims |H(t) - cosh(sqrt(a) t)| <= (delta/a) (cosh(sqrt(a) |t|) - 1)
on its whole window |t| <= T - h.  Each test runs a reproducer as the CLI runs it and, where the
answer is `verified`, checks that the claim is not vacuous and holds off the grid: the window
has a node t != 0, the envelope lies below the branch's own excess cosh(sqrt(a) t) - 1 there,
and it holds on a grid 20x finer than the certificate's.  The checks use only the handle's
values and numpy.  A `not verified` answer, or a refusal, asserts nothing, because a sound
method may rightly refuse these inputs.

A reproducer that is still unsound is an expected failure, strictly: the change that mends it
turns its test into an unexpected pass, and takes the mark off in the same change.
"""

import numpy as np
import pytest

from reccost import LOG_LINE, make_family, parse_family_spec
from reccost.cli import run


def assert_sound(argv, spec, step):
    """Run argv; where its certificate is verified, check its claim on the handle of spec."""
    _, report = run(argv)
    results = report.results or {}
    cert = results.get("certificate", results)  # report's section, or certify's results
    if not cert.get("verified"):
        return
    T, h, a = (cert["inputs"][k] for k in ("T", "h", "a"))
    scale, rate = cert["delta"] / a, np.sqrt(a)
    handle = make_family(parse_family_spec(spec), domain=LOG_LINE)
    nodes = np.linspace(-T, T, 2 * round(T / step) + 1)
    window = nodes[np.abs(nodes) <= T - h]
    assert np.any(window != 0.0), f"the window {window} has no node t != 0"
    excess = np.cosh(rate * window) - 1.0
    assert np.all(scale * excess < excess, where=window != 0.0), \
        f"delta/a = {scale:.3g}: the envelope lies above the branch's excess"
    fine = np.arange(-(k := int((T - h) / (step / 20))), k + 1) * (step / 20)
    error = np.abs(handle(fine) - np.cosh(rate * fine))
    broken = error > scale * (np.cosh(rate * np.abs(fine)) - 1.0)
    assert not np.any(broken), (f"the envelope breaks at {np.count_nonzero(broken)} of "
                                f"{fine.size} points of a 20x finer grid")


ALIASED = "noisy-cosh,amplitude=1e-3,mode=sine,freq=62.83185307179586"


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2b: the grid's nodes sit on the zeros of "
                   "the sine, so the grid epsilon aliases; item 9: a = 1 is not H''(0) = 4.95")
def test_reproducer_a_aliased_sine():
    assert_sound(["certify", "--family", ALIASED, "--T", "2", "--step", "0.1", "--a", "1"],
                 ALIASED, 0.1)


@pytest.mark.xfail(strict=True, reason="ROADMAP items 2a and 9: h = T leaves only t = 0 in the "
                   "window, and a vacuous window is reported as a pass")
def test_reproducer_b_vacuous_window():
    assert_sound(["report", "--family", "quadlog", "--T", "50"], "quadlog", 0.05)


@pytest.mark.xfail(strict=True, reason="ROADMAP items 2a and 9: delta/a = 1.26e12, so the "
                   "envelope lies above the branch's own excess")
def test_reproducer_c_vacuous_envelope():
    assert_sound(["certify", "--family", "cosh-lambda,lambda=10", "--T", "2", "--step", "0.005"],
                 "cosh-lambda,lambda=10", 0.005)
