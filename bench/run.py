"""Run one workload of the reccost benchmark and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run it from the root of a reccost checkout; it imports reccost from ./src.
Workloads: cli-cold and fine-grid, which BENCHMARK.json gates on, and
batch-certify and geodesic, which run on request (metrics.py says why each
exists).  Each run starts a fresh single-threaded worker process
(bench/worker.py) that is one client in a closed loop.

--trace 0 prints the end-to-end metrics: set-up time as the median of several
cold set-ups, the median and tail task time, tasks per second and peak RSS.
--trace 1 prints the per-layer metrics of a traced run instead, plus the
import split of `python -X importtime -c "import reccost.cli"` and the
tracing overhead.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  --tiny shrinks every task
list so that the benchmark's tests can run each workload in seconds.

Scratch files (sample tables, CLI reports) go to .bench_work/ in the
checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

import metrics

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(BENCH_DIR, "worker.py")
RUN_LIMIT_S = 175.0  # every child is killed once the whole run has taken this long
SETUP_PROBES = 4  # extra cold set-ups; with the measuring worker's own, five samples
IMPORT_PROBES = 3
PROCESS_PROBES = 5


class BenchError(Exception):
    pass


class Children:
    """Starts the benchmark's processes in one checkout, all under one deadline.

    Every child gets this checkout's src first on PYTHONPATH and one thread
    for OpenMP, OpenBLAS and MKL.
    """

    def __init__(self, root: str, workdir: str):
        self.root = root
        self.workdir = workdir
        path = [os.path.join(root, "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def run(self, cmd) -> subprocess.CompletedProcess:
        """Run a child in its own process group; past the deadline kill the group and wait."""
        timeout = max(self.deadline - time.monotonic(), 1.0)
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{' '.join(cmd[:4])} ... still running after {RUN_LIMIT_S:g} s") from None
        return subprocess.CompletedProcess(cmd, proc.returncode, out, err)

    def worker(self, args, out_name: str, *extra) -> dict:
        out = os.path.join(self.workdir, out_name)
        cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--out", out, *extra]
        if args.tiny:
            cmd.append("--tiny")
        proc = self.run(cmd)
        if proc.returncode != 0:
            tail = proc.stderr.decode(errors="replace")[-2000:]
            raise BenchError(f"worker exited with {proc.returncode}:\n{tail}")
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)


def parse_importtime(text: str) -> dict:
    """Import-time split of `python -X importtime -c "import reccost.cli"`, in seconds.

    Lines read `import time: self | cumulative | <indent>name`, children
    before their parent; deeper indentation means a nested import.
    """
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        if not fields[0].strip().isdigit():
            continue  # the header line
        name_field = fields[2].rstrip()
        depth = len(name_field) - len(name_field.lstrip())
        rows.append((int(fields[0]) * 1e-6, int(fields[1]) * 1e-6, depth, name_field.strip()))
    # parents follow their children, so walk backwards with a stack of open imports
    parent = {}
    stack: list[tuple[int, int]] = []
    for i in range(len(rows) - 1, -1, -1):
        depth = rows[i][2]
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parent[i] = stack[-1][1] if stack else None
        stack.append((depth, i))

    def ours(name, pkg):
        return name == pkg or name.startswith(pkg + ".")

    top = min((r[2] for r in rows), default=0)
    split = {"cli.import_s": 0.0, "cli.import_scipy_s": 0.0, "cli.import_numpy_s": 0.0,
             "cli.import_reccost_self_s": 0.0}
    for i, (self_s, cum_s, depth, name) in enumerate(rows):
        up = rows[parent[i]][3] if parent[i] is not None else ""
        if ours(name, "reccost"):
            split["cli.import_reccost_self_s"] += self_s
            if depth == top:
                split["cli.import_s"] += cum_s
        if ours(name, "scipy") and not ours(up, "scipy"):
            split["cli.import_scipy_s"] += cum_s
        if ours(name, "numpy") and not ours(up, "numpy"):
            split["cli.import_numpy_s"] += cum_s
    return split


def _cli_probes(children: Children, tiny: bool) -> dict:
    splits = []
    for _ in range(1 if tiny else IMPORT_PROBES):
        proc = children.run([sys.executable, "-X", "importtime", "-c", "import reccost.cli"])
        if proc.returncode != 0:
            raise BenchError(proc.stderr.decode(errors="replace")[-2000:])
        splits.append(parse_importtime(proc.stderr.decode()))
    bare = []
    for _ in range(1 if tiny else PROCESS_PROBES):
        t = time.perf_counter()
        children.run([sys.executable, "-c", "pass"])
        bare.append(time.perf_counter() - t)
    out = {key: metrics.median([s[key] for s in splits]) for key in splits[0]}
    out["cli.process_s"] = metrics.median(bare)
    return out


def measure(args, children: Children) -> tuple[dict, dict]:
    """(worker result, metric values) of one run."""
    # untimed warm-up: writes the bytecode caches an installed package would have
    warm = children.run([sys.executable, "-m", "reccost", "eval", "--x", "2"])
    if warm.returncode != 0:
        raise BenchError(f"reccost does not run from {children.root}/src:\n"
                         + warm.stderr.decode(errors="replace")[-2000:])
    if args.trace:
        probes = _cli_probes(children, args.tiny)
        res = children.worker(args, "main.json", "--trace")
        values = {**probes, **res["layers"], "trace.overhead_ratio": res["overhead_ratio"]}
        return res, values

    setups = [children.worker(args, f"setup-{i}.json", "--setup-only")["setup_s"]
              for i in range(1 if args.tiny else SETUP_PROBES)]
    res = children.worker(args, "main.json")
    setups.append(res["setup_s"])
    times = res["times"]
    res["tail"] = metrics.tail(times)
    res["setup_samples"] = len(setups)
    values = {
        "setup_s": metrics.median(setups),
        "task_p50_s": metrics.median(times),
        "task_tail_s": res["tail"][0],
        "tasks_per_s": len(times) / res["phase_s"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    return res, values


def report(args, res: dict, values: dict) -> None:
    """Human-readable lines, then the JSON line the benchmark contract asks for."""
    table = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    units = {row[0]: row[1] for row in table}
    print(f"reccost benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {int(args.trace)}, {res['attempted']} tasks attempted")
    for name, value in values.items():
        note = ""
        if name == "setup_s":
            note = f"  (median of {res['setup_samples']} cold set-ups)"
        elif name == "task_tail_s":
            _, pct, beyond = res["tail"]
            note = f"  (p{pct:.4g} of {len(res['times'])} tasks, {beyond} beyond it)"
        print(f"  {name:34s} {value:.6g} {units[name]}{note}")
    error_ratio = res["failed"] / res["attempted"]
    print(f"  {'error_ratio':34s} {error_ratio:.6g} ratio  "
          f"({res['failed']} of {res['attempted']} tasks failed)")
    if args.trace and res["unwrapped"]:
        print(f"  unwrapped trace targets: {', '.join(res['unwrapped'])}")
    for msg in res["messages"]:
        print(f"FAILED {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(metrics.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny task lists, for the tests")
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "reccost", "__init__.py")):
        print(f"bench/run.py: no src/reccost in {root}; run it from the root of a reccost "
              "checkout", file=sys.stderr)
        return 2
    scratch = os.path.join(root, ".bench_work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch)
    try:
        res, values = measure(args, Children(root, workdir))
    except BenchError as exc:
        print(f"bench/run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run still uses it
    report(args, res, values)
    return 0


if __name__ == "__main__":
    sys.exit(main())
