#!/usr/bin/env python3
"""Wall and CPU time of the benchmark's fine-grid task list with the sweep helper on and off.

Builds the ``fine-grid`` tasks with ``bench/workloads.py``'s ``build`` (read only; --seed
is the benchmark's --seed) and times in-process passes over their ``run``, in
alternating rounds: each round makes one pass with the helper on and one with it off, the
order swapping from round to round.  "On" is the process's CPU affinity mask as given;
"off" is a mask of its first CPU alone, set on this process only, so that no helper
answers ``reccost.helper.ask`` and every sweep runs serially.  One untimed pass warms
the caches first.

After each pass the helper is reaped with ``reccost.helper.stop()``, so a pass's CPU time
is this process's user + system time plus the reaped helper's (``RUSAGE_CHILDREN``).  Each
"on" pass therefore forks a new helper at its first split; ``refork_s`` is the median wall
time of that fork and reap alone (a ``Helper`` with a trivial answer, then its ``retire``),
null where fewer than two CPUs leave the helper off in both modes.  It prints one JSON object.

    python scripts/helper_split.py
    python scripts/helper_split.py --tiny --rounds 1
"""

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
sys.dont_write_bytecode = True  # bench/ is only read

import workloads  # noqa: E402  (bench/, after the path above)
from reccost import helper  # noqa: E402


def cpu_s(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def timed_pass(tasks) -> tuple[float, float]:
    """(wall s, CPU s with the helper's) of one pass over the tasks' runs."""
    cpu0 = cpu_s(resource.RUSAGE_SELF) + cpu_s(resource.RUSAGE_CHILDREN)
    wall0 = time.perf_counter()
    for task in tasks:
        task.run()
    wall = time.perf_counter() - wall0
    helper.stop()  # reap the helper, so RUSAGE_CHILDREN holds its CPU time
    return wall, cpu_s(resource.RUSAGE_SELF) + cpu_s(resource.RUSAGE_CHILDREN) - cpu0


def refork_s(repeats: int = 5) -> float | None:
    """Median wall time of forking a helper (with a trivial answer) and reaping it."""
    if len(os.sched_getaffinity(0)) < 2:
        return None
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        helper.Helper(lambda header, body: header).retire()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def split(seed: int, tiny: bool, rounds: int) -> dict:
    mask = os.sched_getaffinity(0)
    modes = {"on": mask, "off": {min(mask)}}
    with tempfile.TemporaryDirectory() as workdir:
        tasks = workloads.build("fine-grid", seed, tiny, workdir, str(ROOT))
        timed_pass(tasks)  # warm-up
        out = {"cpus": len(mask), "tasks": len(tasks), "refork_s": refork_s(),
               **{mode: {"wall_s": [], "cpu_s": []} for mode in modes}}
        try:
            for r in range(rounds):
                for mode in (("on", "off") if r % 2 == 0 else ("off", "on")):
                    os.sched_setaffinity(0, modes[mode])
                    wall, cpu = timed_pass(tasks)
                    out[mode]["wall_s"].append(wall)
                    out[mode]["cpu_s"].append(cpu)
        finally:
            os.sched_setaffinity(0, mask)
    for mode in modes:
        out[mode]["wall_s_p50"] = statistics.median(out[mode]["wall_s"])
        out[mode]["cpu_s_p50"] = statistics.median(out[mode]["cpu_s"])
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--tiny", action="store_true", help="the benchmark's tiny task list")
    args = ap.parse_args()
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    print(json.dumps(split(args.seed, args.tiny, args.rounds)))


if __name__ == "__main__":
    main()
