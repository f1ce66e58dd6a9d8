#!/usr/bin/env python3
"""Compare two reccost --json reports, or two directories of them, leaf by leaf.

Prints every leaf that differs, with its path; float leaves also get their
distance in units in the last place (ulps, counted on the IEEE-754 bit
patterns, so 0 means bitwise equal).  Given two directories, it compares
every NAME.json that either holds, prefixes each line with NAME.json, and
prints one summary line per report; a report on one side only is a
difference.  Exits 0 only when every report is identical, key order
included, e.g.

    python scripts/report_diff.py before.json after.json
    python scripts/report_diff.py before after
"""

import argparse
import json
import struct
import sys
from pathlib import Path


def ulp_distance(a: float, b: float) -> int:
    """Number of doubles between a and b; +0.0 and -0.0 are 0 apart."""

    def ordered(x: float) -> int:
        bits = struct.unpack("<q", struct.pack("<d", x))[0]
        return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)

    return abs(ordered(a) - ordered(b))


def _same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    return type(a) is type(b) and a == b


def diff(a, b, path: str = "") -> list[str]:
    """Lines describing every difference between two decoded JSON values."""
    label = path or "<root>"
    if isinstance(a, dict) and isinstance(b, dict):
        lines = []
        for key in a:
            sub = f"{path}.{key}" if path else key
            lines += diff(a[key], b[key], sub) if key in b else [f"{sub}: only in A"]
        for key in b:
            if key not in a:
                lines.append(f"{path}.{key}: only in B" if path else f"{key}: only in B")
        if [k for k in a if k in b] != [k for k in b if k in a]:
            lines.append(f"{label}: keys in a different order")
        return lines
    if isinstance(a, list) and isinstance(b, list):
        lines = [f"{label}: length {len(a)} -> {len(b)}"] if len(a) != len(b) else []
        for i, (x, y) in enumerate(zip(a, b)):
            lines += diff(x, y, f"{path}[{i}]")
        return lines
    if _same(a, b):
        return []
    if isinstance(a, float) and isinstance(b, float):
        return [f"{label}: {a!r} -> {b!r} ({ulp_distance(a, b)} ulps)"]
    return [f"{label}: {a!r} -> {b!r}"]


def _report_pairs(a: Path, b: Path):
    """(label prefix, A path, B path) for two files, or for every NAME.json of two directories."""
    if not (a.is_dir() and b.is_dir()):
        return [("", a, b)]
    names = sorted({p.name for p in a.glob("*.json")} | {p.name for p in b.glob("*.json")})
    return [(f"{name}: ", a / name, b / name) for name in names]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", help="first report, or directory of reports (A)")
    ap.add_argument("b", help="second report, or directory of reports (B)")
    args = ap.parse_args(argv)
    same = True
    for prefix, pa, pb in _report_pairs(Path(args.a), Path(args.b)):
        if prefix and not (pa.is_file() and pb.is_file()):
            lines, summary = [], f"only in {'A' if pa.is_file() else 'B'}"
        else:
            with open(pa, encoding="utf-8") as fa, open(pb, encoding="utf-8") as fb:
                lines = diff(json.load(fa), json.load(fb))
            summary = "identical" if not lines else f"{len(lines)} difference(s)"
        for line in lines + [summary]:
            print(prefix + line)
        same = same and summary == "identical"
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
