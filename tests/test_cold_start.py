"""What a cold process imports: ``import reccost``, the scalar subcommands and
every input the CLI refuses before it needs an array load no numpy module,
``eval`` and ``golden`` load neither ``geometry`` nor ``dataclasses``, and no
run loads scipy, sample tables included.  A run with the cyclic GC off, as
``cli.main`` makes it, leaves as much garbage on a fine grid as on a coarse one.
Each probe runs in a fresh interpreter, because an import made anywhere in the
test process would mask the check.  Also the package's lazily resolved names."""

import re
import subprocess
import sys

import pytest

import reccost
from reccost.cli import run
from test_cli import write_cosh_csv, write_cosh_ratio_csv

PROBE = """
import sys
{body}
print("modules:" + ",".join(sorted(sys.modules)))
"""

MAIN = """
from reccost.cli import run
code, _ = run({argv!r})  # main would end the process before the module list is printed
print("exit-code:", code)
"""


def probe(body: str) -> tuple[str, list[str], set[str]]:
    """stdout of ``body`` in a fresh interpreter, which of numpy/scipy it loaded, and
    every module it loaded."""
    proc = subprocess.run([sys.executable, "-c", PROBE.format(body=body)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    *_, last = proc.stdout.splitlines()
    modules = set(last.removeprefix("modules:").split(","))
    return proc.stdout, sorted({m.split(".")[0] for m in modules} & {"numpy", "scipy"}), modules


@pytest.mark.parametrize("body", ["import reccost", "import reccost.cli"])
def test_import_loads_no_numpy(body):
    _, packages, _ = probe(body)
    assert packages == []


@pytest.mark.parametrize("argv, code", [
    (["eval", "--x", "2"], 0),
    (["eval", "--x", "-2"], 2),
    (["golden"], 0),
    (["chebyshev", "--x", "1.5", "--n", "12"], 0),
    (["distance", "--x", "0.5", "--y", "3"], 0),
], ids=lambda a: " ".join(a) if isinstance(a, list) else None)
def test_scalar_subcommand_loads_no_numpy(argv, code):
    out, packages, _ = probe(MAIN.format(argv=argv))
    assert f"exit-code: {code}" in out
    assert packages == []


@pytest.mark.parametrize("argv", [["eval", "--x", "2"], ["golden"]], ids=lambda a: a[0])
def test_pointwise_subcommand_loads_no_geometry_or_dataclasses(argv):
    out, _, modules = probe(MAIN.format(argv=argv))
    assert "exit-code: 0" in out
    assert "reccost.geometry" not in modules
    if "dataclasses" not in probe("")[2]:  # some interpreters load it at start-up
        assert "dataclasses" not in modules


@pytest.mark.parametrize("argv, error", [
    (["sup-defect", "--family", "cosh", "--step", "0"], "grid step must satisfy"),
    (["certify", "--family", "cosh", "--T", "nan"], "T must be positive and finite, got nan"),
    (["report", "--family", "cosh", "--step", "1e-9"], "needs over 65536 intervals"),
    (["classify", "--input", "{missing}"], "cannot read"),
    (["classify", "--input", "{repeated}"], "abscissas must increase strictly"),
    (["defect", "--family", "cosh", "--x", "2"], "defect needs one coordinate pair"),
    (["defect", "--input", "{repeated}", "--t", "1", "--y", "2"],
     "defect needs one coordinate pair"),
], ids=["step-0", "T-nan", "step-1e-9", "missing-file", "repeated-abscissa", "defect-half-pair",
        "defect-mixed-pair"])
def test_input_error_loads_no_numpy(tmp_path, argv, error):
    repeated = tmp_path / "repeated.csv"
    repeated.write_text("t,H\n-1.0,1.5\n0.0,1.0\n0.0,1.0\n1.0,1.5\n", encoding="utf-8")
    argv = [a.format(missing=tmp_path / "missing.csv", repeated=repeated) for a in argv]
    out, packages, _ = probe(MAIN.format(argv=argv))
    assert "exit-code: 2" in out
    assert error in out
    assert packages == []


def test_grid_error_is_reported_before_a_source_error(tmp_path, capsys):
    code, report = run(["certify", "--input", str(tmp_path / "missing.csv"), "--step", "0"])
    assert code == 2
    assert report.diagnostics["error"].startswith("DomainError: grid step must satisfy")


@pytest.mark.parametrize("argv", [
    ["certify", "--family", "cosh", "--T", "2", "--step", "0.05"],
    ["report", "--family", "cosh", "--T", "1", "--step", "0.1"],
], ids=lambda a: a[0])
def test_table_free_run_loads_no_scipy(argv):
    out, packages, _ = probe(MAIN.format(argv=argv))
    assert "exit-code: 0" in out
    assert packages == ["numpy"]


@pytest.mark.parametrize("write", [write_cosh_csv, write_cosh_ratio_csv], ids=["t,H", "x,F"])
def test_table_run_loads_no_scipy(tmp_path, write):
    path = write(tmp_path / "cosh.csv")
    out, packages, _ = probe(MAIN.format(argv=["classify", "--input", path]))
    assert "exit-code: 0" in out
    assert "branch = Cosh" in out
    assert packages == ["numpy"]


RUNS = """
from reccost.cli import run
for argv in {commands!r}:
    print("exit-code:", run(argv)[0])
"""


def test_cli_sized_sweeps_never_load_the_helper():
    # the default step's sweeps hold 861 pairs of the triangle, far below the split's
    # minimum, so they run serially and never load the module that forks the helper
    grid = ["--family", "cosh", "--T", "2", "--step", "0.05"]
    commands = [[command, *grid] for command in
                ("sup-defect", "identities", "certify", "certify-ratio", "report")]
    out, _, modules = probe(RUNS.format(commands=commands))
    assert re.findall(r"exit-code: (\d)", out) == ["0"] * len(commands)
    assert "reccost.helper" not in modules


GC_OFF = """
import gc
gc.disable()  # as cli.main does: a cold run leaves its garbage cycles uncollected
from reccost.cli import run
for argv in {commands!r}:
    print("exit-code:", run(argv)[0])
print("unreachable:", gc.collect())
"""


def test_a_run_without_the_collector_leaves_no_cycle_per_sweep_block():
    # cli.main runs with the cyclic GC off, so memory stays bounded only if no sweep block
    # or pair leaves a reference cycle: the garbage must not grow with the grid
    found = []
    for step in ("0.1", "0.002"):  # one sweep block, then dozens
        commands = [["report", "--family", "noisy-cosh,mode=trig", "--step", step],
                    ["classify", "--family", "quadlog", "--window-T", "350"],
                    ["sup-defect", "--family", "noisy-cosh,freq=1e308", "--step", step]]
        out, _, _ = probe(GC_OFF.format(commands=commands))
        assert re.findall(r"exit-code: (\d)", out) == ["1", "1", "2"]
        found.append(int(re.search(r"unreachable: (\d+)", out).group(1)))
    assert found[0] == found[1]


# the names reccost exported when its __init__ imported every submodule eagerly, less
# ConvergenceError, which nothing raises since golden answers at its exact fixed point, and
# CurvatureEstimate and quad_ratio, which went with the curvature ladder, and ode_residual
# and family_spec_text, which no library code called
EXPORTED = {
    "AmGmDecomposition", "BranchClassification", "BRANCH_CONSTANT_ONE", "BRANCH_COS",
    "BRANCH_COSH", "BRANCH_ZERO", "ChebyshevCheck", "ClassificationError",
    "DefectReport", "DefectSample", "DistanceResult", "DomainError", "EnvelopeSpec", "FAMILIES",
    "FamilySpec", "FunctionHandle", "GoldenResult", "IdentityViolations", "InputError",
    "LOG_LINE", "LogForms", "POSITIVE_RATIOS", "ParameterError", "PrecisionError",
    "PreconditionError", "RangeOverflowError", "ReccostError", "StabilityCertificate",
    "StabilityInputs", "am_gm_decomposition", "analytic", "bregman_divergence",
    "canonical_cost", "certify", "certify_ratio", "chebyshev_cost", "chebyshev_sequence",
    "classify", "defect_log", "defect_ratio", "delta_of_h", "distance", "estimate_bounds",
    "estimate_kappa", "golden_fixed_point", "identity_report",
    "lift_to_log", "local_equivalence_ratio", "log_forms", "make_family", "metric_weight",
    "metric_weight_ratio", "optimal_h", "parse_family_spec", "perturb",
    "quadlog_defect_oracle", "sample_table", "sup_defect", "to_ratio",
    "validate_log_coord", "validate_positive",
}

SUBMODULES = ("calibration", "cli", "core", "dalembert", "errors", "fixtures", "geometry",
              "grids", "handles", "stability")


def test_all_lists_the_exported_names():
    assert len(reccost.__all__) == len(EXPORTED) == 61
    assert set(reccost.__all__) == EXPORTED


def test_every_exported_name_resolves():
    namespace = {}
    exec("from reccost import *", namespace)
    assert EXPORTED <= namespace.keys()
    for name in EXPORTED:
        assert getattr(reccost, name) is namespace[name]
    assert reccost.sample_table is sys.modules["reccost.handles"].sample_table
    with pytest.raises(AttributeError):
        reccost.no_such_name  # noqa: B018


@pytest.mark.parametrize("name", SUBMODULES)
def test_from_reccost_import_submodule(name):
    out, _, _ = probe(f"from reccost import {name}\nprint(type({name}).__name__, {name}.__name__)")
    assert f"module reccost.{name}" in out
