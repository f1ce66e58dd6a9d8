"""The four workloads: seeded task lists, each task with its oracle.

A task's ``run`` is the timed work and returns its output; ``check`` runs
after the timed phase and returns the oracle's failure messages.  Tasks call
the library through module attributes (``dalembert.sup_defect``, not a name
bound at import), so the tracer sees every call.  The seed draws parameters
only: the structure of each list, and so its cost, is the same for every
seed.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np

from reccost import calibration, cli, dalembert, fixtures, geometry, handles, stability
from reccost.errors import ClassificationError, PrecisionError

import oracles

LOG, RATIO = handles.LOG_LINE, handles.POSITIVE_RATIOS
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
TOL = 1e-10
# classify may reject an input that is not an exact solution; that is a verdict
VERDICT_ERRORS = (ClassificationError, PrecisionError)
# Wall time of one pass over each full-size task list when the benchmark was
# defined (2 shared vCPUs, Python 3.11, numpy 2.4).  A run makes
# round(seconds / this) passes, so every run of a workload times the same tasks
# and the tail percentile stays put however fast the code becomes.
PASS_SECONDS = {"cli-cold": 15.0, "fine-grid": 15.0, "batch-certify": 0.25, "geodesic": 5.0}


@dataclass
class Task:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list]
    run_traced: Callable[[], tuple] | None = None  # out-of-process tasks trace themselves


def _logu(rng, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _family(text: str, domain: str):
    return fixtures.make_family(fixtures.parse_family_spec(text), domain)


def _write_table(path: str, spec: str, domain: str) -> str:
    """Sample the family ``spec`` on a uniform t-grid covering [-4, 4] into a CSV."""
    ts = np.linspace(-4.05, 4.05, 811)
    xs = ts if domain == LOG else np.exp(ts)
    ys = _family(spec, domain)(xs)
    header = "t,H" if domain == LOG else "x,F"
    rows = "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in zip(xs, ys))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{header}\n{rows}\n")
    return path


def _noisy_table_spec(rng, lam: float) -> str:
    return (f"noisy-cosh,lambda={lam!r},amplitude=1e-4,mode=trig,"
            f"freq={rng.uniform(1.0, 3.0)!r},seed={int(rng.integers(1 << 16))}")


def _checked(check):
    """Run an oracle; an exception inside it is a failure, not a crash."""
    def run(out):
        try:
            return check(out)
        except Exception as exc:  # the oracle's own input is a program output
            return [f"oracle raised {type(exc).__name__}: {exc}"]
    return run


# --------------------------------------------------------------------------
# fine-grid


def fine_grid(rng, tiny: bool, workdir: str) -> list[Task]:
    T = 2.0
    step = 0.05 if tiny else 0.001
    # at step 0.002 the costly trig handle lands between the spline table and the sine
    # handle, so the task costs form one continuum from about p40 up: task_p50_s and
    # task_tail_s (the 11th-slowest task) fall inside it, not on a gap between two
    # clusters where a run's order statistic would jump from one cluster to the other
    trig_steps = (0.1, 0.1, 0.1) if tiny else (0.002, 0.002, 0.002)
    lam = rng.uniform(0.8, 1.25)
    cosh = fixtures.make_family(fixtures.FamilySpec("cosh-lambda", {"lambda": lam}), LOG)
    quad = fixtures.make_family(fixtures.FamilySpec("quadlog"), LOG)
    sine = _family(f"noisy-cosh,amplitude={_logu(rng, 1e-4, 1e-3)!r},mode=sine,"
                   f"freq={rng.uniform(3.0, 6.0)!r}", LOG)
    path = _write_table(os.path.join(workdir, "fine.csv"), _noisy_table_spec(rng, 1.0), LOG)
    table = cli.load_samples(path, LOG)
    trig = _family(f"noisy-cosh,amplitude={_logu(rng, 1e-4, 1e-3)!r},mode=trig,"
                   f"freq={rng.uniform(2.0, 5.0)!r},seed={int(rng.integers(1 << 16))}", LOG)
    plan = [(h, op, step) for h in (cosh, quad, sine, table)
            for op in ("sup_defect", "identity_report", "certify")]
    plan += list(zip((trig,) * 3, ("sup_defect", "identity_report", "certify"), trig_steps))
    return [_fine_task(i, h, op, T, s, cosh, quad) for i, (h, op, s) in enumerate(plan)]


def _fine_task(i, h, op, T, step, exact, quad) -> Task:
    def check(out):
        rng = np.random.default_rng(i)  # the same sampled pairs on every check
        if op == "sup_defect":
            fails = oracles.sup_defect(h, out, T, rng)
            return fails + (oracles.quadlog_epsilon(out, T) if h is quad else [])
        if op == "identity_report":
            return oracles.identity_report(h, out, T, step, rng)
        return oracles.certificate(out, exact=h is exact)

    module = stability if op == "certify" else dalembert
    return Task(f"{op}:{h.name}@{step:g}", lambda: getattr(module, op)(h, T, step),
                _checked(check))


# --------------------------------------------------------------------------
# batch-certify


def batch_certify(rng, tiny: bool, workdir: str) -> list[Task]:
    combos = [(1.0, 0.1)] if tiny else list(itertools.product((1.0, 1.5, 2.0), (0.02, 0.05, 0.1)))
    base = fixtures.make_family(fixtures.FamilySpec("cosh-lambda"), LOG)
    lam_tab = rng.uniform(0.8, 1.25)
    tab_log = cli.load_samples(
        _write_table(os.path.join(workdir, "batch_tH.csv"), _noisy_table_spec(rng, lam_tab), LOG), LOG)
    tab_ratio = cli.load_samples(
        _write_table(os.path.join(workdir, "batch_xF.csv"), _noisy_table_spec(rng, lam_tab), RATIO),
        RATIO)
    tasks = []
    for T, step in combos:
        lam = _logu(rng, 0.5, 2.0)
        etas = [_logu(rng, 1e-6, 1e-2) for _ in range(3)]
        inputs = (
            ("cosh-lambda", fixtures.make_family(
                fixtures.FamilySpec("cosh-lambda", {"lambda": lam}), RATIO), lam),
            ("powerlaw-w", fixtures.make_family(
                fixtures.FamilySpec("powerlaw-w", {"lambda": lam}), RATIO), lam),
            ("perturb-poly4", fixtures.perturb(base, "poly4", etas[0]), None),
            ("perturb-sine", fixtures.perturb(base, "sine", etas[1], freq=rng.uniform(2.0, 6.0)),
             None),
            ("noisy-trig", _family(f"noisy-cosh,amplitude={etas[2]!r},mode=trig,"
                                   f"freq={rng.uniform(1.0, 4.0)!r},"
                                   f"seed={int(rng.integers(1 << 16))}", LOG), None),
            ("table-tH", tab_log, None),
            ("table-xF", tab_ratio, None),
        )
        for kind, h, exact_lam in inputs:
            tasks.append(_batch_task(f"{kind}@T={T:g},step={step:g}", h, T, step, exact_lam))
    return tasks


def _batch_task(label, h, T, step, exact_lam) -> Task:
    def run():
        H = handles.lift_to_log(h) if h.domain == RATIO else h
        try:
            cls = calibration.classify(H, window_T=T)
        except VERDICT_ERRORS as exc:
            if exact_lam is not None:
                raise
            cls = type(exc).__name__
        cert = stability.certify(H, T, step)
        cert_ratio = stability.certify_ratio(h, T, step) if h.domain == RATIO else None
        return cls, cert, cert_ratio

    def check(out):
        cls, cert, cert_ratio = out
        exact = exact_lam is not None
        fails = oracles.certificate(cert, exact)
        if cert_ratio is not None:
            fails += oracles.certificate(cert_ratio, exact)
        if exact:
            fails += oracles.exact_classification(cls.branch, cls.k, exact_lam)
        return fails

    return Task(label, run, _checked(check))


# --------------------------------------------------------------------------
# geodesic


def geodesic(rng, tiny: bool, workdir: str) -> list[Task]:
    n = 16 if tiny else 2048
    # stratified log-uniform endpoints in [1e-6, 1e6]: the mean cost varies little by seed
    lx = -6.0 + 12.0 * (np.arange(n) + rng.random(n)) / n
    ly = -6.0 + 12.0 * (rng.permutation(n) + rng.random(n)) / n
    tasks = []
    for i in range(n):
        tasks.append(_distance_task(float(10.0 ** lx[i]), float(10.0 ** ly[i])))
        if i % 16 == 15:
            a = rng.uniform(-1e-2, 1e-2)
            b = a + rng.choice((-1.0, 1.0)) * _logu(rng, 1e-6, 1e-2)
            tasks.append(_local_task(math.exp(a), math.exp(b)))
            tasks.append(_chebyshev_task(_logu(rng, 0.2, 5.0), int(rng.integers(1, 65))))
    return tasks


def _distance_task(x, y) -> Task:
    ref = functools.cache(lambda: oracles.distance_reference(x, y))
    return Task(f"distance({x:.3g},{y:.3g})", lambda: geometry.distance(x, y, TOL),
                _checked(lambda out: oracles.distance(out.value, ref(), TOL)))


def _local_task(x, y) -> Task:
    ref = functools.cache(
        lambda: oracles.distance_reference(x, y) / abs(math.log(y) - math.log(x)))
    return Task(f"local({x:.6g},{y:.6g})", lambda: geometry.local_equivalence_ratio(x, y),
                _checked(lambda out: oracles.local_ratio(out, ref())))


def _chebyshev_task(x, n) -> Task:
    return Task(f"chebyshev({x:.3g},{n})", lambda: geometry.chebyshev_cost(x, n),
                _checked(lambda out: oracles.chebyshev(out, x, n)))


# --------------------------------------------------------------------------
# cli-cold


class CliRunner:
    """Starts one `python -m reccost` process per task, each with its own --json path.

    The children inherit the worker's environment: this checkout's src, one thread.
    """

    def __init__(self, root: str, workdir: str):
        self.root = root
        self.workdir = workdir
        self._count = itertools.count()

    def _spawn(self, prefix, argv):
        path = os.path.join(self.workdir, f"report-{next(self._count)}.json")
        proc = subprocess.run(
            [sys.executable, *prefix, *argv, "--json", path],
            cwd=self.root, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            check=False,
        )
        return proc.returncode, path, proc.stderr.decode(errors="replace")[-400:]

    def run(self, argv):
        return self._spawn(("-m", "reccost"), argv)

    def run_traced(self, argv):
        """The same invocation through cli_child.py, which wraps and records from inside."""
        trace_path = os.path.join(self.workdir, f"trace-{next(self._count)}.json")
        return self._spawn((os.path.join(BENCH_DIR, "cli_child.py"), trace_path), argv), trace_path


def _cli_task(runner, label, argv, expected, check_results=None) -> Task:
    def check(out):
        code, path, stderr = out
        report, fails = oracles.cli_report(path, code, expected)
        if fails and stderr.strip():
            fails.append(f"stderr: {stderr.strip()}")
        if report is not None and not fails and check_results is not None and code != 2:
            fails += check_results(report["results"], report["diagnostics"])
        return [f"{label}: {f}" for f in fails]

    return Task(label, lambda: runner.run(argv), _checked(check),
                run_traced=lambda: runner.run_traced(argv))


def _as_cert(d: dict):
    return SimpleNamespace(
        delta=d["delta"], verified=d["verified"], max_envelope_margin=d["max_envelope_margin"],
        inputs=SimpleNamespace(**d["inputs"]),
    )


def cli_cold(rng, tiny: bool, workdir: str, root: str) -> list[Task]:
    runner = CliRunner(root, workdir)
    lam = _logu(rng, 0.5, 2.0)
    x = _logu(rng, 0.05, 20.0)
    lam_tab = rng.uniform(0.8, 1.25)
    tab_log = _write_table(os.path.join(workdir, "cli_tH.csv"), _noisy_table_spec(rng, lam_tab), LOG)
    tab_ratio = _write_table(os.path.join(workdir, "cli_xF.csv"),
                             _noisy_table_spec(rng, lam_tab), RATIO)
    bad = os.path.join(workdir, "cli_bad.csv")
    with open(tab_log, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    dup = int(rng.integers(2, len(lines) - 1))
    lines[dup + 1] = lines[dup]  # a repeated abscissa: load_samples must reject it
    with open(bad, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

    def classified(res, diag):
        if not res["classified"]:
            return []
        if res["branch"] != "Cosh" or abs(res["k"] - lam_tab) > 1e-3:
            return [f"classify: table of cosh({lam_tab!r} t) gave {res['branch']}(k={res['k']!r})"]
        return []

    def eval_check(res, diag):
        j = (x - 1.0) ** 2 / (2.0 * x)
        return [] if abs(res["J"] - j) <= 4 * oracles.EPS * j else [f"eval: J = {res['J']!r}, expected {j!r}"]

    tasks = [
        _cli_task(runner, "eval", ["eval", "--x", repr(x)], {0}, eval_check),
        _cli_task(runner, "certify", ["certify", "--family", f"cosh-lambda,lambda={lam!r}",
                                      "--T", "2", "--step", "0.05"], {0},
                  lambda res, diag: oracles.certificate(_as_cert(res), exact=True)),
        _cli_task(runner, "classify-tH", ["classify", "--input", tab_log], {0, 1}, classified),
        _cli_task(runner, "malformed-eval", ["eval", "--x", repr(-x)], {2}),
    ]
    if tiny:
        return tasks

    qa, qb = _logu(rng, 0.1, 10.0), _logu(rng, 0.1, 10.0)
    spec_sine = f"noisy-cosh,amplitude={_logu(rng, 1e-4, 1e-3)!r},mode=sine,freq={rng.uniform(3.0, 6.0)!r}"
    dx, dy = _logu(rng, 1e-6, 1e6), _logu(rng, 1e-6, 1e6)
    cx, cn = _logu(rng, 0.2, 5.0), int(rng.integers(2, 65))
    x0 = rng.uniform(0.5, 3.0)
    lam_id = _logu(rng, 0.5, 2.0)

    def defect_check(res, diag):
        la, lb = math.log(qa), math.log(qb)
        expected = -0.5 * la * la * lb * lb
        allow = 1e-10 * (1.0 + la * la + lb * lb) ** 2
        return [] if abs(res["delta"] - expected) <= allow else [f"defect: {res['delta']!r} vs {expected!r}"]

    def sup_check(res, diag):
        rep = SimpleNamespace(epsilon=res["epsilon"], step=diag["grid"]["step"],
                              argmax=SimpleNamespace(**res["argmax"]))
        return oracles.sup_defect(_family(spec_sine, LOG), rep, 2.0, np.random.default_rng(0))

    def identities_check(res, diag):
        h = fixtures.make_family(fixtures.FamilySpec("cosh-lambda", {"lambda": lam_id}), LOG)
        return oracles.identity_report(h, SimpleNamespace(**res), 2.0, 0.05, np.random.default_rng(0))

    def calibrate_check(res, diag):
        ok = abs(res["kappa"] - lam * lam) <= 1e-8 * lam * lam
        return [] if ok else [f"calibrate: kappa {res['kappa']!r} for lambda^2 = {lam * lam!r}"]

    def distance_check(res, diag):
        return oracles.distance(res["value"], oracles.distance_reference(dx, dy), TOL)

    def chebyshev_check(res, diag):
        return oracles.chebyshev(SimpleNamespace(**res), cx, cn)

    def golden_check(res, diag):
        phi = (1.0 + math.sqrt(5.0)) / 2.0
        return [] if abs(res["phi"] - phi) <= 1e-10 else [f"golden: phi = {res['phi']!r}"]

    def report_check(res, diag):
        cls = res["classification"]
        return (oracles.exact_classification(cls.get("branch"), cls.get("k"), lam)
                + oracles.certificate(_as_cert(res["certificate"]), exact=True))

    return tasks + [
        _cli_task(runner, "defect", ["defect", "--family", "quadlog", "--x", repr(qa), "--y", repr(qb)],
                  {0}, defect_check),
        _cli_task(runner, "sup-defect", ["sup-defect", "--family", spec_sine, "--T", "2",
                                         "--step", "0.05"], {0}, sup_check),
        _cli_task(runner, "identities", ["identities", "--family", f"cosh-lambda,lambda={lam_id!r}",
                                         "--T", "2", "--step", "0.05"], {0}, identities_check),
        _cli_task(runner, "calibrate", ["calibrate", "--family", f"cosh-lambda,lambda={lam!r}"],
                  {0}, calibrate_check),
        _cli_task(runner, "classify-xF", ["classify", "--input", tab_ratio], {0, 1}, classified),
        _cli_task(runner, "certify-ratio", ["certify-ratio", "--family", f"powerlaw-w,lambda={lam!r}",
                                            "--T", "2", "--step", "0.05"], {0},
                  lambda res, diag: oracles.certificate(_as_cert(res), exact=True)),
        _cli_task(runner, "distance", ["distance", "--x", repr(dx), "--y", repr(dy)], {0}, distance_check),
        _cli_task(runner, "chebyshev", ["chebyshev", "--x", repr(cx), "--n", str(cn)], {0},
                  chebyshev_check),
        _cli_task(runner, "golden", ["golden", "--x0", repr(x0)], {0}, golden_check),
        _cli_task(runner, "report", ["report", "--family", f"cosh-lambda,lambda={lam!r}",
                                     "--T", "2", "--step", "0.05"], {0}, report_check),
        _cli_task(runner, "malformed-table", ["classify", "--input", bad], {2}),
        _cli_task(runner, "malformed-step", ["sup-defect", "--family", "cosh", "--T", "2",
                                             "--step", "0"], {2}),
    ]


def build(name: str, seed: int, tiny: bool, workdir: str, root: str) -> list[Task]:
    rng = np.random.default_rng(seed)
    if name == "cli-cold":
        return cli_cold(rng, tiny, workdir, root)
    return {"fine-grid": fine_grid, "batch-certify": batch_certify, "geodesic": geodesic}[name](
        rng, tiny, workdir)
