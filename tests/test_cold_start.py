"""What a cold process imports: ``import reccost`` and the scalar subcommands
load no numpy module, and no run loads scipy, sample tables included.  Each
probe runs in a fresh interpreter, because an import made anywhere in the test
process would mask the check.  Also the package's lazily resolved names."""

import math
import subprocess
import sys

import numpy as np
import pytest

import reccost
from test_cli import write_cosh_csv

PROBE = """
import sys
{body}
print("packages:" + ",".join(sorted({{m.split(".")[0] for m in sys.modules}} & {{"numpy", "scipy"}})))
"""

MAIN = """
from reccost.cli import main
try:
    main({argv!r})
except SystemExit as exc:
    print("exit-code:", exc.code)
"""


def probe(body: str) -> tuple[str, list[str]]:
    """stdout of ``body`` in a fresh interpreter, and which of numpy/scipy it loaded."""
    proc = subprocess.run([sys.executable, "-c", PROBE.format(body=body)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    *_, last = proc.stdout.splitlines()
    packages = last.removeprefix("packages:")
    return proc.stdout, packages.split(",") if packages else []


def write_cosh_ratio_csv(path, n=401):
    """An ``x,F`` table of J(x) = cosh(ln x) - 1 on x in [e^-2.5, e^2.5]."""
    xs = np.exp(np.linspace(-2.5, 2.5, n))
    rows = "\n".join(f"{float(x)!r},{math.cosh(math.log(float(x))) - 1.0!r}" for x in xs)
    path.write_text("x,F\n" + rows + "\n", encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("body", ["import reccost", "import reccost.cli"])
def test_import_loads_no_numpy(body):
    _, packages = probe(body)
    assert packages == []


@pytest.mark.parametrize("argv, code", [
    (["eval", "--x", "2"], 0),
    (["eval", "--x", "-2"], 2),
    (["golden"], 0),
    (["chebyshev", "--x", "1.5", "--n", "12"], 0),
    (["distance", "--x", "0.5", "--y", "3"], 0),
], ids=lambda a: " ".join(a) if isinstance(a, list) else None)
def test_scalar_subcommand_loads_no_numpy(argv, code):
    out, packages = probe(MAIN.format(argv=argv))
    assert f"exit-code: {code}" in out
    assert packages == []


@pytest.mark.parametrize("argv", [
    ["certify", "--family", "cosh", "--T", "2", "--step", "0.05"],
    ["report", "--family", "cosh", "--T", "1", "--step", "0.1"],
], ids=lambda a: a[0])
def test_table_free_run_loads_no_scipy(argv):
    out, packages = probe(MAIN.format(argv=argv))
    assert "exit-code: 0" in out
    assert packages == ["numpy"]


@pytest.mark.parametrize("write", [write_cosh_csv, write_cosh_ratio_csv], ids=["t,H", "x,F"])
def test_table_run_loads_no_scipy(tmp_path, write):
    path = write(tmp_path / "cosh.csv")
    out, packages = probe(MAIN.format(argv=["classify", "--input", path]))
    assert "exit-code: 0" in out
    assert "branch = Cosh" in out
    assert packages == ["numpy"]


# the names reccost exported when its __init__ imported every submodule eagerly
EXPORTED = {
    "AmGmDecomposition", "BranchClassification", "BRANCH_CONSTANT_ONE", "BRANCH_COS",
    "BRANCH_COSH", "BRANCH_ZERO", "ChebyshevCheck", "ClassificationError", "ConvergenceError",
    "CurvatureEstimate", "DefectReport", "DefectSample", "DistanceResult", "DomainError",
    "EnvelopeSpec", "FAMILIES", "FamilySpec", "FunctionHandle", "GoldenResult",
    "IdentityViolations", "InputError", "LOG_LINE", "LogForms", "POSITIVE_RATIOS",
    "ParameterError", "PrecisionError", "PreconditionError", "RangeOverflowError",
    "ReccostError", "StabilityCertificate", "StabilityInputs", "am_gm_decomposition",
    "analytic", "bregman_divergence", "canonical_cost", "certify", "certify_ratio",
    "chebyshev_cost", "chebyshev_sequence", "classify", "defect_log", "defect_ratio",
    "delta_of_h", "distance", "estimate_bounds", "estimate_kappa", "family_spec_text",
    "golden_fixed_point", "identity_report", "lift_to_log", "local_equivalence_ratio",
    "log_forms", "make_family", "metric_weight", "metric_weight_ratio", "ode_residual",
    "optimal_h", "parse_family_spec", "perturb", "quad_ratio", "quadlog_defect_oracle",
    "sample_table", "sup_defect", "to_ratio", "validate_log_coord", "validate_positive_ratio",
}

SUBMODULES = ("calibration", "cli", "core", "dalembert", "errors", "fixtures", "geometry",
              "grids", "handles", "stability")


def test_all_lists_the_exported_names():
    assert len(reccost.__all__) == len(EXPORTED) == 66
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
    out, _ = probe(f"from reccost import {name}\nprint(type({name}).__name__, {name}.__name__)")
    assert f"module reccost.{name}" in out
