#!/usr/bin/env python3
"""Write the --json reports of the README command-line examples into OUTDIR.

There is one example per subcommand, plus certify and certify-ratio on a
table and calibrate on two steep families: sixteen in all.  OUTDIR receives
samples.csv (cosh on 1001 nodes of [-2.5, 2.5], the input of the three table
examples) and one report per example, NAME.json.
The reports come from reccost.cli.run of whichever reccost PYTHONPATH points
at, so two checkouts can be compared report by report with report_diff.py:

    PYTHONPATH=src python scripts/readme_reports.py after
    PYTHONPATH=../other/src python scripts/readme_reports.py before
    python scripts/report_diff.py before after
"""

import argparse
import math
import os
from pathlib import Path

import numpy as np

from reccost.cli import run

EXAMPLES = {
    "eval": ["eval", "--x", "2"],
    "cert": ["certify", "--family", "cosh", "--T", "2", "--step", "0.05"],
    "classify": ["classify", "--input", "samples.csv"],
    # T = 2 would need the table on [-4, 4]; it covers [-2.5, 2.5]
    "cert-table": ["certify", "--input", "samples.csv", "--T", "1.2", "--step", "0.05"],
    "sup-defect": ["sup-defect", "--family", "noisy-cosh,amplitude=1e-3,mode=sine,freq=5",
                   "--T", "2", "--step", "0.05"],
    "report": ["report", "--family", "cosh-lambda,lambda=2", "--T", "2", "--step", "0.05"],
    "defect": ["defect", "--family", "cosh", "--x", "2", "--y", "3"],
    "identities": ["identities", "--family", "cosh", "--T", "2", "--step", "0.05"],
    "calibrate": ["calibrate", "--family", "cosh-lambda,lambda=2"],
    # a steep family: the ladder from h0 = 0.25 is out of regime, so h0 halves
    "calibrate-steep": ["calibrate", "--family", "cosh-lambda,lambda=100"],
    # evaluable on [-7e-4, 7e-4] alone: the ladder starts at that reach, not at h0 = 0.25
    "calibrate-support": ["calibrate", "--family", "cosh-lambda,lambda=1e6"],
    "cert-ratio": ["certify-ratio", "--family", "cosh", "--T", "2", "--step", "0.05"],
    # the table projected to ratios and lifted back: the path of a ratio view
    "cert-ratio-table": ["certify-ratio", "--input", "samples.csv", "--T", "1.2", "--step", "0.05"],
    "distance": ["distance", "--x", "1", "--y", "1e4"],
    "chebyshev": ["chebyshev", "--x", "2", "--n", "8"],
    "golden": ["golden"],
}


def write_samples(path: Path) -> None:
    ts = np.linspace(-2.5, 2.5, 1001)
    rows = "".join(f"{float(t)!r},{math.cosh(float(t))!r}\n" for t in ts)
    path.write_text("t,H\n" + rows, encoding="utf-8")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("outdir", help="directory for samples.csv and the NAME.json reports")
    args = ap.parse_args(argv)
    out = Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    write_samples(out / "samples.csv")
    # run inside OUTDIR: the table examples name their input relatively, and the
    # report echoes that name, so reports from different OUTDIRs stay comparable
    cwd = os.getcwd()
    os.chdir(out)
    try:
        for name, example in EXAMPLES.items():
            code, _ = run([*example, "--json", f"{name}.json"])
            print(f"wrote {out / name}.json (exit {code})")
    finally:
        os.chdir(cwd)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
