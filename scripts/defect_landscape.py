#!/usr/bin/env python3
"""Sweep the d'Alembert defect of a builtin family over a square grid.

Writes (t, u, delta) rows as CSV for offline plotting, and prints the grid
supremum with its location, e.g.

    python scripts/defect_landscape.py --family quadlog --T 2 --step 0.1 --out defect.csv
    python scripts/defect_landscape.py --family "noisy-cosh,amplitude=1e-3,mode=sine,freq=5"
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from reccost import LOG_LINE, make_family, parse_family_spec, sup_defect
from reccost.dalembert import _kernel, _sweep


def write_rows(fh, axis, blocks):
    """Write the (t, u, delta) rows of the sweep's blocks to fh, one row block at a time."""
    for r, *block in blocks:
        for t, row in zip(axis[r], _kernel(*block)):
            for u, d in zip(axis, row):
                fh.write(f"{t:.17g},{u:.17g},{d:.17g}\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--family", default="quadlog")
    ap.add_argument("--T", type=float, default=2.0)
    ap.add_argument("--step", type=float, default=0.1)
    ap.add_argument("--out", default=None, help="CSV output path (default: stdout summary only)")
    args = ap.parse_args()

    handle = make_family(parse_family_spec(args.family), domain=LOG_LINE)
    if args.out:
        # the whole table, one row block at a time, so a fine grid never holds the n x n matrix
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("t,u,delta\n")
            _, axis, _, _, _, blocks = _sweep(handle, args.T, args.step, "defect_landscape",
                                              whole=True)
            write_rows(fh, axis, blocks)
    report = sup_defect(handle, args.T, args.step)
    print(f"family  : {handle.name}")
    print(f"grid    : [-{report.T:g}, {report.T:g}] step {report.step:.17g} ({report.count} points)")
    print(f"epsilon : {report.epsilon:.17g}")
    print(f"argmax  : (t, u) = ({report.argmax.t:.17g}, {report.argmax.u:.17g}),"
          f" delta = {report.argmax.delta:.17g}")
    if args.out:
        print(f"wrote   : {args.out}")


if __name__ == "__main__":
    main()
