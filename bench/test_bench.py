"""Tests of the benchmark itself: oracles, tracer, metric plumbing, tiny runs.

    PYTHONPATH=src python -m pytest bench -q
"""

import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import reccost as rc  # noqa: E402
from reccost import dalembert, geometry, stability  # noqa: E402

import metrics  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402

LOG = rc.LOG_LINE


def _family(name, **params):
    return rc.make_family(rc.FamilySpec(name, params), LOG)


# --------------------------------------------------------------------------
# BENCHMARK.json


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        assert json.load(fh) == metrics.benchmark_json()


def test_benchmark_json_respects_the_contract_limits():
    doc = metrics.benchmark_json()
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    # every run's set-up, probes and oracles fit in fifteen seconds beyond run_seconds
    assert (4 + 22 * len(doc["workloads"])) * (doc["run_seconds"] + 15) < 3420


def test_tail_keeps_ten_samples_beyond():
    value, pct, beyond = metrics.tail(list(range(100)))
    assert (value, beyond) == (89, 10) and pct == 90.0
    assert metrics.tail([3.0, 1.0, 2.0])[0] == 1.0


# --------------------------------------------------------------------------
# oracles accept right results and reject wrong ones


def test_quadlog_epsilon_oracle():
    h = _family("quadlog")
    rep = dalembert.sup_defect(h, 2.0, 0.1)
    rng = np.random.default_rng(0)
    assert oracles.quadlog_epsilon(rep, 2.0) == []
    assert oracles.sup_defect(h, rep, 2.0, rng) == []
    wrong = replace(rep, epsilon=rep.epsilon * (1 + 1e-6))
    assert oracles.quadlog_epsilon(wrong, 2.0)
    assert oracles.sup_defect(h, wrong, 2.0, rng)


def test_sup_defect_oracle_rejects_an_epsilon_below_a_grid_pair():
    h = _family("noisy-cosh", amplitude=1e-3, mode="sine", freq=5.0)
    rep = dalembert.sup_defect(h, 2.0, 0.05)
    assert oracles.sup_defect(h, rep, 2.0, np.random.default_rng(1)) == []
    # a consistent argmax at an interior point, whose |Delta| is far below the true sup
    value = oracles._defect_at(h, 0.5, 0.5)[0]
    fake = replace(rep, epsilon=value, argmax=replace(rep.argmax, t=0.5, u=0.5))
    assert oracles.sup_defect(h, fake, 2.0, np.random.default_rng(1), samples=2000)


def test_identity_report_oracle():
    h = _family("noisy-cosh", amplitude=1e-3, mode="sine", freq=5.0)
    rep = dalembert.identity_report(h, 2.0, 0.05)
    assert oracles.identity_report(h, rep, 2.0, 0.05, np.random.default_rng(2)) == []
    wrong = replace(rep, product_identity=rep.product_identity * 1e-3)
    assert oracles.identity_report(h, wrong, 2.0, 0.05, np.random.default_rng(2), samples=2000)


def test_certificate_oracle():
    cert = stability.certify(_family("cosh-lambda", **{"lambda": 1.3}), 2.0, 0.05)
    assert oracles.certificate(cert, exact=True) == []
    wrong_eps = replace(cert, inputs=replace(cert.inputs, epsilon=cert.inputs.epsilon * (1 + 1e-6)))
    assert oracles.certificate(wrong_eps, exact=True)
    assert oracles.certificate(replace(cert, delta=cert.delta * (1 + 1e-9)), exact=True)
    flipped = replace(cert, verified=False)
    assert oracles.certificate(flipped, exact=False)
    assert oracles.certificate(replace(flipped, max_envelope_margin=-1.0), exact=True)
    assert oracles.certificate(replace(flipped, max_envelope_margin=-1.0), exact=False) == []


def test_exact_classification_oracle():
    cls = rc.classify(_family("cosh-lambda", **{"lambda": 0.7}), window_T=2.0)
    assert oracles.exact_classification(cls.branch, cls.k, 0.7) == []
    assert oracles.exact_classification(cls.branch, cls.k + 1e-8, 0.7)
    assert oracles.exact_classification("Cos", cls.k, 0.7)


def test_distance_oracles():
    tol = 1e-10
    ref = oracles.distance_reference(1.0, 10.0)
    got = geometry.distance(1.0, 10.0, tol).value
    assert oracles.distance(got, ref, tol) == []
    assert oracles.distance(got + 20 * tol, ref, tol)
    x, y = math.exp(1e-3), math.exp(-2e-3)
    ratio = geometry.local_equivalence_ratio(x, y)
    expected = oracles.distance_reference(x, y) / abs(math.log(y) - math.log(x))
    assert oracles.local_ratio(ratio, expected) == []
    assert oracles.local_ratio(ratio * (1 + 1e-10), expected)


def test_chebyshev_oracle():
    check = geometry.chebyshev_cost(3.0, 17)
    assert oracles.chebyshev(check, 3.0, 17) == []
    assert oracles.chebyshev(replace(check, via_identity=check.via_identity * (1 + 1e-6)), 3.0, 17)
    assert oracles.chebyshev(replace(check, direct=check.direct * (1 - 1e-6)), 3.0, 17)


def _write_report(path, **fields):
    report = {"command": "eval", "inputs": {}, "results": {}, "diagnostics": {}, "status": "ok"}
    report.update(fields)
    path.write_text(json.dumps(report), encoding="utf-8")
    return str(path)


def test_cli_report_oracle(tmp_path):
    good = _write_report(tmp_path / "a.json")
    assert oracles.cli_report(good, 0, {0})[1] == []
    assert oracles.cli_report(good, 1, {0, 1})[1]  # status disagrees with the exit code
    assert oracles.cli_report(good, 0, {2})[1]
    assert oracles.cli_report(_write_report(tmp_path / "b.json", extra=1), 0, {0})[1]
    assert oracles.cli_report(str(tmp_path / "missing.json"), 0, {0})[1]


# --------------------------------------------------------------------------
# tracer


def test_tracer_spans_carry_parents_self_time_and_counts():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        stability.certify(_family("cosh-lambda"), 1.0, 0.1)
    finally:
        tracer.uninstall()
    spans = tracer.take()
    by_id = {s.id: s for s in spans}
    certify = next(s for s in spans if s.name == "stability.certify")
    assert certify.parent is None
    children = [s for s in spans if s.parent == certify.id]
    assert {"dalembert.sup_defect", "calibration.estimate_kappa"} <= {s.name for s in children}
    assert math.isclose(certify.self_time, certify.duration - sum(s.duration for s in children))
    assert all(s.parent in by_id for s in spans if s.parent is not None)
    sums = tracing.summarize(spans)
    assert sums["calls:dalembert.sup_defect"] == 1 and sums["dalembert.pairs"] == 21 * 21
    assert sums["stability.verified"] == 1
    # uninstall restores the originals
    assert dalembert.sup_defect is stability.sup_defect


def test_a_call_that_raises_still_closes_its_span():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with pytest.raises(rc.DomainError):
            dalembert.sup_defect(_family("cosh-lambda"), 1.0, 0.0)
    finally:
        tracer.uninstall()
    sums = tracing.summarize(tracer.take())
    assert sums["calls:dalembert.sup_defect"] == 1 and sums["dalembert.pairs"] == 0


def test_missing_targets_are_reported_unwrapped():
    targets = tracing.TARGETS + (
        ("reccost.stability", "no_such_function", "x", None, False),
        ("reccost.no_such_module", "f", "y", None, False),
    )
    tracer = tracing.Tracer(targets)
    tracer.install()
    tracer.uninstall()
    assert tracer.unwrapped == ["reccost.stability.no_such_function", "reccost.no_such_module.f"]


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | encodings",
        "import time:       500 |       2000 |     numpy.core",
        "import time:       300 |       2300 |   numpy",
        "import time:       700 |        700 |       scipy._lib",
        "import time:       200 |        900 |     scipy",
        "import time:       400 |       1300 |   scipy.optimize",
        "import time:        50 |       3650 | reccost",
        "import time:        25 |         25 | reccost.cli",
    ])
    split = run.parse_importtime(text)
    assert split["cli.import_s"] == pytest.approx(3675e-6)
    assert split["cli.import_numpy_s"] == pytest.approx(2300e-6)
    assert split["cli.import_scipy_s"] == pytest.approx(1300e-6)
    assert split["cli.import_reccost_self_s"] == pytest.approx(75e-6)


# --------------------------------------------------------------------------
# whole runs


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(metrics.WORKLOADS))
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    table = metrics.PER_LAYER if trace == "1" else metrics.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {r[0]: r[1] for r in table}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_run_fails_without_a_checkout(tmp_path):
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench("--workload", "geodesic", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert sorted(os.listdir(tmp_path)) == ["BENCHMARK.json", "bench"]


def test_distance_reference_agrees_with_the_quadrature():
    # QUADPACK agrees with the adaptive Simpson far inside the oracle's allowance
    for x, y in ((1e-6, 1e6), (0.5, 2.0), (3.0, 3.5)):
        ref = oracles.distance_reference(x, y)
        got = geometry.distance(x, y, 1e-10).value
        assert abs(got - ref) <= 0.1 * max(1e-9, 1e-12 * ref)


def test_sampled_pairs_lie_on_the_grid():
    pairs = list(oracles._grid_pairs(2.0, 0.5, np.random.default_rng(0), 50))
    assert all(abs(4 * t - round(4 * t)) < 1e-12 and abs(t) <= 2.0 for p in pairs for t in p)
