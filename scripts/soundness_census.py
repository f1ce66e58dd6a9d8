#!/usr/bin/env python3
"""Soundness and vacuity census of default-flag certificates over seeded draws.

Certifies four sets of draws at T = 2, each at steps 0.05 and 0.01, from one
``numpy.random.default_rng(seed)`` (the counts depend on the order of the
draws):

    noisy-cosh   300 random noisy-cosh: lambda log-uniform in [0.5, 3],
                 amplitude log-uniform in [1e-7, 1e-2], freq uniform in
                 [1, 400], modes cycling sine, trig, poly4
    aliasing     300 noisy-cosh with lambda = 1, amplitude log-uniform in
                 [1e-9, 1e-3] and freq = 2 pi j / step (1 + 1e-4 N(0, 1)),
                 j in {1, 2, 3}, modes cycling sine, trig
    cosh-lambda  200 exact solutions, lambda log-uniform in [0.5, 20]
    noisy-table  per row count, 811 and 8001, 40 t,H tables of cosh(t) (1 + sigma N(0, 1))
                 on that many bitwise-symmetric nodes of [-4.05, 4.05], sigma log-uniform
                 in [1e-10, 1e-6], independent noise per node; each table is certified at
                 both steps

Each ``verified`` certificate is re-checked from its own fields on a grid 20x
finer than the step: |H(t) - cosh(sqrt(a) t)| <= (delta/a) (cosh(sqrt(a) |t|) - 1)
on |t| <= T - h, with H read from the handle.  It prints one JSON object: per
set and step, the draws, verified, refused (certify raised a toolkit error, such as
the evenness refusal), vacuous (verified with delta/a >= 1, so the
envelope is not below the branch's own excess), unsound (verified, but the
envelope breaks on the fine grid), exact_not_verified (draws that are not
verified, counted for the exact cosh-lambda set only and null for the others)
and envelope_gap_p50 (the median over verified draws of max envelope / max
error on the fine grid, over the draws whose error is not 0; null where none is).

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

from reccost import LOG_LINE, FamilySpec, ReccostError, certify, make_family, sample_table

T = 2.0
STEPS = (0.05, 0.01)
SIZES = {"noisy-cosh": 300, "aliasing": 300, "cosh-lambda": 200}
TABLE_ROWS, TABLES = (811, 8001), 40


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


def symmetric_nodes(rows: int) -> np.ndarray:
    """rows (odd) nodes of [-4.05, 4.05], equally spaced and bitwise symmetric about 0."""
    half = np.linspace(0.0, 4.05, rows // 2 + 1)
    return np.concatenate([-half[:0:-1], half])


def noisy_tables(rng, rows: int, count: int):
    """count sample-table handles of cosh(t) (1 + sigma N(0, 1)) on symmetric_nodes(rows),
    drawn in order from rng."""
    ts = symmetric_nodes(rows)
    for _ in range(count):
        sigma = log_uniform(rng, 1e-10, 1e-6)
        yield sample_table(LOG_LINE, ts, np.cosh(ts) * (1.0 + sigma * rng.standard_normal(rows)),
                           name=f"noisy-table({rows},{sigma:.3g})")


def fine_sweep(h, cert, step: float):
    """(|H - cosh(sqrt(a) t)|, envelope) on |t| <= T - h at step/20, read from the
    certificate's own fields and H from the handle."""
    half = cert.inputs.T - cert.inputs.h
    k = max(1, math.ceil(half / (step / 20.0)))
    ts = np.linspace(-half, half, 2 * k + 1)
    rate = math.sqrt(cert.inputs.a)
    err = np.abs(h(ts) - np.cosh(rate * ts))
    return err, cert.delta / cert.inputs.a * (np.cosh(rate * np.abs(ts)) - 1.0)


def tally(handles, step: float, exact: bool) -> dict:
    """The counts of one set at one step over its handles."""
    counts, gaps = dict.fromkeys(("draws", "verified", "refused", "vacuous", "unsound"), 0), []
    for h in handles:
        counts["draws"] += 1
        try:
            cert = certify(h, T, step)
        except ReccostError:
            counts["refused"] += 1
            continue
        if cert.verified:
            err, env = fine_sweep(h, cert, step)
            counts["verified"] += 1
            counts["vacuous"] += cert.delta / cert.inputs.a >= 1.0
            counts["unsound"] += bool(np.any(err > env))
            if np.max(err) > 0.0:
                gaps.append(float(np.max(env) / np.max(err)))
    counts["exact_not_verified"] = counts["draws"] - counts["verified"] if exact else None
    counts["envelope_gap_p50"] = float(np.median(gaps)) if gaps else None
    return counts


def census(seed: int, cap: int | None) -> dict:
    rng = np.random.default_rng(seed)
    out = {}
    for kind, size in SIZES.items():
        for step in STEPS:
            specs = draws(rng, kind, step, size if cap is None else min(cap, size))
            handles = (make_family(spec, LOG_LINE) for spec in specs)
            out[f"{kind} step={step:g}"] = tally(handles, step, kind == "cosh-lambda")
    for rows in TABLE_ROWS:
        tables = list(noisy_tables(rng, rows, TABLES if cap is None else min(cap, TABLES)))
        for step in STEPS:
            out[f"noisy-table rows={rows} step={step:g}"] = tally(tables, step, False)
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
