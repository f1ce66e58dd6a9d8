"""Runs that load no sample table import no scipy module; a table loads
scipy.interpolate on first use.  Each probe runs in a fresh interpreter,
because an import made anywhere in the test process would mask the check."""

import subprocess
import sys

import pytest

from test_cli import write_cosh_csv

PROBE = """
import sys
{body}
print("scipy-modules:" + ",".join(sorted(m for m in sys.modules if m.startswith("scipy"))))
"""

MAIN = """
from reccost.cli import main
try:
    main({argv!r})
except SystemExit as exc:
    print("exit-code:", exc.code)
"""


def probe(body: str) -> tuple[str, list[str]]:
    proc = subprocess.run([sys.executable, "-c", PROBE.format(body=body)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    *_, last = proc.stdout.splitlines()
    modules = last.removeprefix("scipy-modules:")
    return proc.stdout, modules.split(",") if modules else []


@pytest.mark.parametrize("body", ["import reccost", "import reccost.cli"])
def test_import_loads_no_scipy(body):
    _, modules = probe(body)
    assert modules == []


@pytest.mark.parametrize("argv", [
    ["eval", "--x", "2"],
    ["certify", "--family", "cosh", "--T", "2", "--step", "0.05"],
    ["report", "--family", "cosh", "--T", "1", "--step", "0.1"],
], ids=lambda a: a[0])
def test_table_free_run_loads_no_scipy(argv):
    out, modules = probe(MAIN.format(argv=argv))
    assert "exit-code: 0" in out
    assert modules == []


def test_table_run_loads_interpolation_on_first_use(tmp_path):
    path = write_cosh_csv(tmp_path / "cosh.csv")
    out, modules = probe(MAIN.format(argv=["classify", "--input", path]))
    assert "exit-code: 0" in out
    assert "branch = Cosh" in out
    assert "scipy.interpolate" in modules
