"""One benchmark worker: a fresh process that sets up, runs and checks one workload.

    python bench/worker.py --workload NAME --seed N --seconds S --out RESULT.json
                           [--trace] [--setup-only] [--tiny]

Set-up is timed from this file's first statement until the workload's inputs
exist, so it covers importing reccost (with reccost.cli) and building handles
and sample tables.  In-process workloads then run their tiny task list once,
untimed, as a warm-up.  The timed phase runs whole passes over the task list
in a closed loop, one task at a time: as many passes as took --seconds when
the benchmark was defined (workloads.PASS_SECONDS), so every run of a
workload times the same tasks.  Oracles run after the timed phase.  With
--trace each task runs twice per pass, untraced and traced in alternating
order, over half as many passes; the spans of the traced runs give the
per-layer metrics.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

_clock = time.perf_counter


class Failure:
    """A task that raised something other than a verdict."""

    def __init__(self, exc: BaseException):
        self.message = f"{type(exc).__name__}: {exc}"


def _call(run):
    try:
        return run()
    except Exception as exc:  # counted against error_ratio, never fatal
        return Failure(exc)


def _timed_passes(tasks, passes, one_task) -> float:
    """Call ``one_task(task, pass_index)`` over ``passes`` whole passes; return the elapsed time."""
    start = _clock()
    for p in range(passes):
        for task in tasks:
            one_task(task, p)
    return _clock() - start


def _peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()
    root = os.getcwd()
    workdir = os.path.dirname(os.path.abspath(args.out))

    import reccost
    import reccost.cli  # noqa: F401 - set-up covers the CLI import too
    import workloads

    src = os.path.join(root, "src") + os.sep
    if not os.path.abspath(reccost.__file__).startswith(src):
        sys.exit(f"reccost imported from {reccost.__file__}, not from {src}")

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    tasks = workloads.build(args.workload, args.seed, args.tiny, workdir, root)
    setup_s = _clock() - _T0
    result = {"setup_s": setup_s}
    if args.setup_only:
        _write(args.out, result)
        return

    records = []  # (task, seconds, output, traced)
    task_sums: dict = {}
    if tracer is not None:
        setup_sums = tracing.summarize(tracer.take())
        tracer.uninstall()

        def one_task(task, pass_index):
            # alternate which member of the pair runs first, pass by pass and task by task
            order = (False, True) if (len(records) // 2 + pass_index) % 2 == 0 else (True, False)
            for traced in order:
                if traced and task.run_traced is not None:
                    t = _clock()
                    out, trace_path = task.run_traced()
                    records.append((task, _clock() - t, out, True))
                    with open(trace_path, encoding="utf-8") as fh:
                        child = json.load(fh)
                    tracing.merge(task_sums, child["sums"])
                    tracer.unwrapped[:] = sorted(set(tracer.unwrapped) | set(child["unwrapped"]))
                elif traced:
                    tracer.install()
                    t = _clock()
                    out = _call(task.run)
                    dt = _clock() - t
                    tracer.uninstall()
                    records.append((task, dt, out, True))
                    tracing.merge(task_sums, tracing.summarize(tracer.take()))
                else:
                    t = _clock()
                    out = _call(task.run)
                    records.append((task, _clock() - t, out, False))
    else:
        def one_task(task, pass_index):
            t = _clock()
            out = _call(task.run)
            records.append((task, _clock() - t, out, False))

    if args.workload != "cli-cold":  # run.py warms the CLI up itself
        warm_dir = os.path.join(workdir, "warm-up")
        os.makedirs(warm_dir, exist_ok=True)
        for task in workloads.build(args.workload, args.seed, True, warm_dir, root):
            _call(task.run)  # untimed: first calls pay for lazy imports and caches

    passes = round(args.seconds / workloads.PASS_SECONDS[args.workload])
    if tracer is not None:
        passes //= 2  # a traced pass runs every task twice
    passes = max(1, passes)
    phase_s = _timed_passes(tasks, passes, one_task)
    children = args.workload == "cli-cold"
    peak = _peak_rss_mb(resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF)

    failed, messages = 0, []
    for task, _, out, _ in records:
        fails = [out.message] if isinstance(out, Failure) else task.check(out)
        if fails:
            failed += 1
            if len(messages) < 5:
                messages.append(f"{task.label}: {'; '.join(fails)}")

    untraced = [dt for _, dt, _, traced in records if not traced]
    result.update(
        times=untraced, phase_s=phase_s, attempted=len(records), failed=failed,
        messages=messages, peak_rss_mb=peak,
    )
    if tracer is not None:
        traced = [dt for _, dt, _, tr in records if tr]
        result["layers"] = tracing.layer_metrics(task_sums, setup_sums, len(traced))
        result["overhead_ratio"] = (len(traced) / sum(traced)) / (len(untraced) / sum(untraced))
        result["unwrapped"] = sorted(set(tracer.unwrapped))
    _write(args.out, result)


def _write(path, result) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
