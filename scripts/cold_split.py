#!/usr/bin/env python3
"""Where the time of a cold ``python -m reccost <argv>`` goes, with and without a bytecode cache.

Each round times, on each side, ``python -X importtime -m reccost <argv>`` and reads its
import report with the benchmark's own ``parse_importtime`` (``bench/run.py``, read only).
Three parts sum to ``wall_s``, the spawn to the reaped exit:

    numpy_s        numpy's import, 0 where the command never loads it (cli.import_numpy_s)
    reccost_s      every top-level reccost import, the handler's lazy ones included, less
                   numpy's (cli.import_s - cli.import_numpy_s)
    rest_s         the interpreter's start, argument parsing, the task and the exit

(``bench/run.py --trace 1`` times the interpreter's start alone as cli.process_s.)

The package is copied, without ``__pycache__``, to a temporary directory that every run
imports it from.  "uncached" runs with ``PYTHONDONTWRITEBYTECODE=1``, as the benchmark does,
so reccost compiles on every run; "cached" sets ``PYTHONPYCACHEPREFIX`` to a second temporary
directory, which one untimed run fills.  Nothing is written under ``src/``.  The sides
alternate, the order swapping from round to round; it prints one JSON line.

    python scripts/cold_split.py
    python scripts/cold_split.py --rounds 9 -- report --family cosh --T 1 --step 0.1
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
sys.dont_write_bytecode = True  # bench/ is only read

from run import parse_importtime  # noqa: E402  (bench/, after the path above)

PARTS = ("numpy_s", "reccost_s", "rest_s", "wall_s")
DEFAULT_ARGV = ["certify", "--family", "cosh", "--T", "2", "--step", "0.05"]


def one_run(env: dict, argv: list) -> tuple[int, dict]:
    """(exit code, the parts in seconds) of one cold run."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "reccost", *argv], env=env,
                          capture_output=True, text=True)
    wall = time.perf_counter() - start
    split = parse_importtime(proc.stderr)
    numpy, imports = split["cli.import_numpy_s"], split["cli.import_s"]
    return proc.returncode, {"numpy_s": numpy, "reccost_s": imports - numpy,
                             "rest_s": wall - imports, "wall_s": wall}


def split(argv: list, rounds: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(ROOT / "src" / "reccost", Path(tmp) / "src" / "reccost",
                        ignore=shutil.ignore_patterns("__pycache__"))
        base = {k: v for k, v in os.environ.items()
                if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
        base["PYTHONPATH"] = str(Path(tmp) / "src")
        envs = {"uncached": dict(base, PYTHONDONTWRITEBYTECODE="1"),
                "cached": dict(base, PYTHONPYCACHEPREFIX=str(Path(tmp) / "pycache"))}
        codes = {one_run(envs["cached"], argv)[0]}  # untimed: fills the cached side's prefix
        runs = {side: [] for side in envs}
        for r in range(rounds):
            for side in (("uncached", "cached") if r % 2 == 0 else ("cached", "uncached")):
                code, parts = one_run(envs[side], argv)
                codes.add(code)
                runs[side].append(parts)
    if len(codes) != 1:
        sys.exit(f"the runs of {argv} exited with different codes: {sorted(codes)}")
    out = {"argv": argv, "exit_code": codes.pop(), "rounds": rounds}
    for side, timed_runs in runs.items():
        out[side] = {part: [run[part] for run in timed_runs] for part in PARTS}
        out[side].update({f"{part}_p50": statistics.median(out[side][part]) for part in PARTS})
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("argv", nargs=argparse.REMAINDER,
                    help=f"the reccost command, after -- (default: {' '.join(DEFAULT_ARGV)})")
    args = ap.parse_args()
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    print(json.dumps(split(argv or DEFAULT_ARGV, args.rounds)))


if __name__ == "__main__":
    main()
