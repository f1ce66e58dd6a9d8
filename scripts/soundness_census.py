#!/usr/bin/env python3
"""Soundness and vacuity census of default-flag certificates over seeded draws.

Certifies three sets of draws at T = 2, each at steps 0.05 and 0.01, from one
``numpy.random.default_rng(seed)`` (the counts depend on the order of the
draws):

    noisy-cosh   300 random noisy-cosh: lambda log-uniform in [0.5, 3],
                 amplitude log-uniform in [1e-7, 1e-2], freq uniform in
                 [1, 400], modes cycling sine, trig, poly4
    aliasing     300 noisy-cosh with lambda = 1, amplitude log-uniform in
                 [1e-9, 1e-3] and freq = 2 pi j / step (1 + 1e-4 N(0, 1)),
                 j in {1, 2, 3}, modes cycling sine, trig
    cosh-lambda  200 exact solutions, lambda log-uniform in [0.5, 20]

Each ``verified`` certificate is re-checked from its own fields on a grid 20x
finer than the step: |H(t) - cosh(sqrt(a) t)| <= (delta/a) (cosh(sqrt(a) |t|) - 1)
on |t| <= T - h, with H read from the handle.  It prints one JSON object: per
set and step, the draws, verified, vacuous (verified with delta/a >= 1, so the
envelope is not below the branch's own excess) and unsound (verified, but the
envelope breaks on the fine grid).

    python scripts/soundness_census.py
    python scripts/soundness_census.py --draws 5 --seed 1
"""

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from reccost import LOG_LINE, FamilySpec, certify, make_family

T = 2.0
STEPS = (0.05, 0.01)
SIZES = {"noisy-cosh": 300, "aliasing": 300, "cosh-lambda": 200}


def log_uniform(rng, lo, hi):
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def draws(rng, kind: str, step: float, count: int):
    """count family specs of one set, drawn in order from rng."""
    for i in range(count):
        if kind == "noisy-cosh":
            yield FamilySpec("noisy-cosh", {
                "lambda": log_uniform(rng, 0.5, 3.0), "amplitude": log_uniform(rng, 1e-7, 1e-2),
                "freq": float(rng.uniform(1.0, 400.0)), "mode": ("sine", "trig", "poly4")[i % 3]})
        elif kind == "aliasing":
            j = int(rng.integers(1, 4))
            yield FamilySpec("noisy-cosh", {
                "lambda": 1.0, "amplitude": log_uniform(rng, 1e-9, 1e-3),
                "freq": 2.0 * math.pi * j / step * (1.0 + 1e-4 * float(rng.standard_normal())),
                "mode": ("sine", "trig")[i % 2]})
        else:
            yield FamilySpec("cosh-lambda", {"lambda": log_uniform(rng, 0.5, 20.0)})


def breaks_on_fine_grid(h, cert, step: float) -> bool:
    """Whether |H - cosh(sqrt(a) t)| exceeds the envelope somewhere on |t| <= T - h, at step/20."""
    half = cert.inputs.T - cert.inputs.h
    k = max(1, math.ceil(half / (step / 20.0)))
    ts = np.linspace(-half, half, 2 * k + 1)
    rate = math.sqrt(cert.inputs.a)
    err = np.abs(h(ts) - np.cosh(rate * ts))
    env = cert.delta / cert.inputs.a * (np.cosh(rate * np.abs(ts)) - 1.0)
    return bool(np.any(err > env))


def census(seed: int, cap: int | None) -> dict:
    rng = np.random.default_rng(seed)
    out = {}
    for kind, size in SIZES.items():
        for step in STEPS:
            counts = dict.fromkeys(("draws", "verified", "vacuous", "unsound"), 0)
            for spec in draws(rng, kind, step, size if cap is None else min(cap, size)):
                counts["draws"] += 1
                h = make_family(spec, LOG_LINE)
                cert = certify(h, T, step)
                if cert.verified:
                    counts["verified"] += 1
                    counts["vacuous"] += cert.delta / cert.inputs.a >= 1.0
                    counts["unsound"] += breaks_on_fine_grid(h, cert, step)
            out[f"{kind} step={step:g}"] = counts
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--draws", type=int, default=None,
                    help="at most this many draws per set and step (default: all)")
    args = ap.parse_args()
    print(json.dumps(census(args.seed, args.draws)))


if __name__ == "__main__":
    main()
