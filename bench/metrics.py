"""Metric definitions and summary statistics of the reccost benchmark.

BENCHMARK.json at the repository root is derived from the tables below; the
benchmark's own tests check that the two agree.  Every per-layer metric names
the end-to-end metric and workload it is expected to move, so that a later
change can state its prediction by metric name before it is measured.
"""

from __future__ import annotations

import statistics

WORKLOADS = {
    "cli-cold": "closed loop, 1 client: cold `python -m reccost` per task over all 12 "
    "subcommands; import is most of each call, so cold-start work shows here",
    "fine-grid": "closed loop, 1 client: sup_defect, identity_report and certify at "
    "step 0.001 on cheap and costly handles; the n*n defect sweeps set time and memory",
    "batch-certify": "closed loop, 1 client: thousands of small classify+certify tasks; "
    "per-call overhead and estimate_kappa dominate, a kernel change should barely move it",
    "geodesic": "closed loop, 1 client: geodesic distance, local equivalence and Chebyshev "
    "queries; the only workload where the geometry quadrature does most of the work",
}

# The workloads BENCHMARK.json gates on.  batch-certify and geodesic are pure-Python
# loops whose speed follows the drift of a shared machine: their run-to-run spread
# (20-29% for the median task time over ten seeds) exceeds the largest bound a
# metric may have, so they run on request only.
GATED = ("cli-cold", "fine-grid")

# name, unit, better, bound (share of the parent's median it may worsen by).  The
# timing bounds are wide because the speed of a shared 2-vCPU machine drifts by up
# to a fifth over tens of seconds, which no statistic inside one run removes.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("task_p50_s", "s", "lower", 0.25),
    ("task_tail_s", "s", "lower", 0.25),
    ("tasks_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# Per-layer metrics come from the traced run.  "/task" values are sums over
# the traced tasks divided by their number; "setup" values are totals of the
# traced worker's set-up.  A layer a workload never enters reads 0 there.
# name, unit, better, which end-to-end metric it should move on which workload
PER_LAYER = (
    ("cli.import_s", "s", "lower", "setup_s on every workload; task_p50_s on cli-cold"),
    ("cli.import_scipy_s", "s", "lower", "setup_s on every workload; task_p50_s on cli-cold"),
    ("cli.import_numpy_s", "s", "lower", "setup_s on every workload; task_p50_s on cli-cold"),
    ("cli.import_reccost_self_s", "s", "lower",
     "setup_s on every workload; task_p50_s on cli-cold"),
    ("cli.process_s", "s", "lower", "floor of task_p50_s on cli-cold; no change can lower it"),
    ("cli.run_s", "s/task", "lower", "task_p50_s on cli-cold"),
    ("handles.eval_calls", "count/task", "lower", "tasks_per_s on batch-certify"),
    ("handles.eval_points", "count/task", "lower", "task_p50_s and tasks_per_s on fine-grid"),
    ("handles.eval_s", "s/task", "lower", "task_p50_s and tasks_per_s on fine-grid"),
    ("handles.deriv_points", "count/task", "lower", "task_p50_s on fine-grid"),
    ("handles.deriv_s", "s/task", "lower", "task_p50_s on fine-grid"),
    ("handles.table_build_s", "s", "lower", "setup_s on fine-grid and batch-certify"),
    ("grids.calls", "count/task", "lower", "peak_rss_mb and task_p50_s on fine-grid"),
    ("grids.points", "count/task", "lower", "peak_rss_mb and task_p50_s on fine-grid"),
    ("fixtures.make_family_s", "s", "lower", "setup_s on every workload that builds handles"),
    ("dalembert.sup_defect_calls", "count/task", "lower",
     "task_p50_s on fine-grid; at most its quarter share on batch-certify"),
    ("dalembert.sup_defect_s", "s/task", "lower",
     "task_p50_s and tasks_per_s on fine-grid; at most its quarter share on batch-certify"),
    ("dalembert.identity_report_s", "s/task", "lower", "task_p50_s and tasks_per_s on fine-grid"),
    ("dalembert.pairs", "count/task", "lower", "task_p50_s on fine-grid"),
    ("dalembert.pairs_per_s", "1/s", "higher", "tasks_per_s on fine-grid"),
    ("dalembert.peak_alloc_mb", "MB", "lower", "peak_rss_mb on fine-grid"),
    ("calibration.estimate_kappa_calls", "count/task", "lower",
     "tasks_per_s on batch-certify; nothing measurable on fine-grid"),
    ("calibration.estimate_kappa_s", "s/task", "lower",
     "tasks_per_s and task_p50_s on batch-certify; nothing measurable on fine-grid"),
    ("calibration.classify_s", "s/task", "lower", "tasks_per_s and task_p50_s on batch-certify"),
    ("calibration.classify_self_s", "s/task", "lower",
     "tasks_per_s and task_p50_s on batch-certify"),
    ("calibration.fit_nfev", "count/fit", "lower", "tasks_per_s on batch-certify"),
    ("calibration.accepted_ratio", "ratio", "higher", "none: a verdict share, not a cost"),
    ("stability.certify_calls", "count/task", "lower", "tasks_per_s on batch-certify"),
    ("stability.certify_s", "s/task", "lower", "tasks_per_s on batch-certify"),
    ("stability.certify_self_s", "s/task", "lower", "tasks_per_s on batch-certify"),
    ("stability.estimate_bounds_s", "s/task", "lower", "tasks_per_s on batch-certify"),
    ("stability.verified_ratio", "ratio", "higher", "none: a verdict share, not a cost"),
    ("geometry.distance_calls", "count/task", "lower",
     "every geodesic metric; nothing on fine-grid or batch-certify"),
    ("geometry.distance_s", "s/task", "lower",
     "task_p50_s, task_tail_s and tasks_per_s on geodesic"),
    ("geometry.quad_evals", "count/task", "lower", "task_p50_s and tasks_per_s on geodesic"),
    ("geometry.evals_per_s", "1/s", "higher", "tasks_per_s on geodesic"),
    ("geometry.chebyshev_s", "s/task", "lower", "task_tail_s on geodesic"),
    ("trace.overhead_ratio", "ratio", "higher",
     "none: traced tasks_per_s over untraced tasks_per_s, a check on the instrument"),
)

# the highest percentile reported as the tail keeps this many samples beyond it
TAIL_BEYOND = 10


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest order statistic that
    still has TAIL_BEYOND samples above it; with fewer samples, the minimum."""
    ordered = sorted(values)
    idx = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[idx], 100.0 * (idx + 1) / len(ordered), len(ordered) - idx - 1


def median(values) -> float:
    return float(statistics.median(values))


def benchmark_json() -> dict:
    """The BENCHMARK.json document these tables define."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": 45,
        "workloads": [{"name": n, "why": WORKLOADS[n]} for n in GATED],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }
