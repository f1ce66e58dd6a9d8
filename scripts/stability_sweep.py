#!/usr/bin/env python3
"""Certificate sweep over perturbation amplitudes.

For cosh + eta * t^4 (or the sine mode) this prints how the measured defect,
the chosen step h, delta(h) and the worst envelope margin respond to eta.
The defect should scale linearly in eta; each row prints the certificate's
verdict and its worst envelope margin.

    python scripts/stability_sweep.py
    python scripts/stability_sweep.py --mode sine --freq 5 --T 1.5 --csv sweep.csv
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from reccost import FamilySpec, LOG_LINE, certify, make_family, perturb


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=["poly4", "sine"], default="poly4")
    ap.add_argument("--freq", type=float, default=5.0)
    ap.add_argument("--T", type=float, default=1.0)
    ap.add_argument("--step", type=float, default=0.02)
    ap.add_argument("--etas", type=float, nargs="+",
                    default=[1e-6, 1e-5, 1e-4, 1e-3, 1e-2])
    ap.add_argument("--csv", default=None)
    args = ap.parse_args()

    base = make_family(FamilySpec("cosh-lambda"), domain=LOG_LINE)
    rows = []
    print(f"{'eta':>10} {'epsilon':>13} {'eps/eta':>10} {'h':>10} {'delta':>12} "
          f"{'max err':>12} {'min margin':>12} verdict")
    for eta in args.etas:
        handle = perturb(base, args.mode, eta, freq=args.freq)
        cert = certify(handle, args.T, args.step)
        ins = cert.inputs
        rows.append((eta, ins.epsilon, ins.h, cert.delta,
                     cert.max_observed_error, cert.max_envelope_margin, cert.verified))
        print(f"{eta:10.1e} {ins.epsilon:13.6e} {ins.epsilon / eta:10.4f} {ins.h:10.4e} "
              f"{cert.delta:12.5e} {cert.max_observed_error:12.5e} "
              f"{cert.max_envelope_margin:12.5e} {'verified' if cert.verified else 'FAILED'}")

    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("eta,epsilon,h,delta,max_observed_error,max_envelope_margin,verified\n")
            for row in rows:
                fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(int(v))
                                  for v in row) + "\n")
        print(f"wrote {args.csv}")


if __name__ == "__main__":
    main()
