#!/usr/bin/env python3
"""Verdict-path mutants of reccost's source, each run against tier-1 and its census gate.

Each mutant is one textual edit of one file under ``src/reccost``: M1-M9 (ROADMAP item
28's) and M11 edit ``stability.py``, M10 edits ``handles.py``.
For each, the repository's files (without .git) are copied into a temporary directory, the
edit is made in the copy alone, and tier-1 runs there: python -m pytest over tests and
bench, without test_criterion_11_full_invariant_suite_under_budget (it reruns the suite).
From pytest's JUnit XML it counts the census gate test (at the budget that test sets) apart
from the other failures, and a strict xfail that passes (XPASS(strict)) apart again: that
is not a kill.  A run that times out or leaves no readable XML is a kill too.

A mutant is killed when the gate or another test fails.  The first row, "none", is the
unmutated copy, which must pass.  It prints a markdown table, one row per mutant as it
finishes, and exits 1 if a mutant survives or the unmutated copy fails, 2 if an edit no
longer matches the source.  Standard library only; one pytest process at a time.

    python scripts/mutants.py
    python scripts/mutants.py M1 M7
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from xml.etree import ElementTree

ROOT = Path(__file__).resolve().parent.parent
STABILITY = Path("src") / "reccost" / "stability.py"
HANDLES = Path("src") / "reccost" / "handles.py"
DESELECT = "tests/test_acceptance.py::test_criterion_11_full_invariant_suite_under_budget"
GATE = ("tests.test_soundness_ledger", "test_the_census_gate_finds_no_unsound_certificate")

# name: (what it does, the file it edits, the source text, its replacement); each source
# text occurs once in its file
MUTANTS = {
    "M1": ("verdict min_margin >= -1e-9", STABILITY,
           "verified=bool(min_margin >= 0.0)", "verified=bool(min_margin >= -1e-9)"),
    "M2": ("remainder (1+B)Kh/6", STABILITY,
           "return epsilon / (h * h) + c * h / 3.0", "return epsilon / (h * h) + c * h / 6.0"),
    "M3": ("eps/4", STABILITY,
           "defect).epsilon\n", "defect).epsilon / 4.0\n"),
    "M4": ("eps on [-T/2, T/2]^2", STABILITY,
           "(sup_defect(h, T, step) if", "(sup_defect(h, T / 2.0, step) if"),
    "M5": ("K/2", STABILITY,
           "B, K = estimate_bounds(h, T)  #", "B, K = estimate_bounds(h, T); K = K / 2.0  #"),
    "M6": ("a x 1.01", STABILITY,
           "    a = estimate_kappa(h)\n", "    a = estimate_kappa(h) * 1.01\n"),
    "M7": ("envelope scale delta/(2a)", STABILITY,
           "require_finite(\n        delta / a,", "require_finite(\n        delta / (2.0 * a),"),
    "M8": ("(1+B)K -> K", STABILITY,
           "require_finite((1.0 + B) * K,", "require_finite(K,"),
    "M9": ("K on the T/50 grid", STABILITY,
           "symmetric_grid(T, T / 1000.0)", "symmetric_grid(T, T / 50.0)"),
    "M10": ("table derivatives without their falling factorial", HANDLES,
            "total + at * hj * math.perm(j + k, k)", "total + at * hj"),
    "M11": ("envelope as cosh(rate |t|) - 1", STABILITY,
            "2.0 * np.sinh(0.5 * self.rate * np.abs(t)) ** 2",
            "np.cosh(self.rate * np.abs(t)) - 1.0"),
}


def copy_tree(dest: Path) -> Path:
    """The repository's files under dest/repo, without .git and caches."""
    tree = dest / "repo"
    shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_work"))
    return tree


def mutate(tree: Path, target: Path, old: str, new: str) -> None:
    path = tree / target
    source = path.read_text(encoding="utf-8")
    if source.count(old) != 1:
        print(f"stale mutant: {old!r} occurs {source.count(old)} times in {target}",
              file=sys.stderr)
        sys.exit(2)
    path.write_text(source.replace(old, new), encoding="utf-8")


def tier1(tree: Path, env: dict) -> tuple[str, int, int, int]:
    """The census gate's outcome ("passed", "failed" or "missing") and the other tests'
    (failed, strict XPASS, passed) of tier-1 on tree, read from pytest's JUnit XML, which
    keeps a strict XPASS's message whole; ("timeout" or "crashed", 0, 0, 0) if there is no
    XML to read."""
    report = tree / "tier1.xml"
    try:
        subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                        "--continue-on-collection-errors", f"--junitxml={report}",
                        "--deselect", DESELECT], cwd=tree, env=env, capture_output=True,
                       timeout=1800)
        cases = list(ElementTree.parse(report).iter("testcase"))
    except subprocess.TimeoutExpired:
        return "timeout", 0, 0, 0
    except (OSError, ElementTree.ParseError):
        return "crashed", 0, 0, 0
    gate, failed, xpass, passed = "missing", 0, 0, 0
    for case in cases:
        outcome = {child.tag: child for child in case}
        bad = outcome.get("failure", outcome.get("error"))
        if (case.get("classname"), case.get("name")) == GATE:
            gate = "passed" if bad is None else "failed"
        elif bad is None:
            passed += "skipped" not in outcome
        elif bad.get("message", "").startswith("[XPASS(strict)]"):
            xpass += 1
        else:
            failed += 1
    return gate, failed, xpass, passed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("names", nargs="*", metavar="NAME",
                    help=f"mutants to run, of {', '.join(MUTANTS)} (default: all); "
                    "the unmutated copy always runs")
    names = ap.parse_args().names or list(MUTANTS)
    if unknown := [name for name in names if name not in MUTANTS]:
        ap.error(f"unknown mutants {unknown}; known: {', '.join(MUTANTS)}")
    print("| mutant | edit | census gate | other tests failed | strict XPASS | verdict |")
    print("|---|---|---|---|---|---|")
    survivors = 0
    for name in ["none", *names]:
        with tempfile.TemporaryDirectory(prefix="reccost-mutant-") as tmp:
            tree = copy_tree(Path(tmp))
            what = "unmutated"
            if name != "none":
                what, target, old, new = MUTANTS[name]
                mutate(tree, target, old, new)
            env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
            gate, failed, xpass, passed = tier1(tree, env)
        killed = gate != "passed" or failed > 0
        if name == "none":
            verdict = "clean" if not (killed or xpass) else "FAILS UNMUTATED"
            survivors += killed or xpass
        else:
            verdict = "killed" if killed else "SURVIVED"
            survivors += not killed
        print(f"| {name} | {what} | {gate} | {failed} ({passed} passed) | {xpass} | "
              f"{verdict} |", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
