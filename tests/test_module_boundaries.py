"""No module of the package reads another's private names: neither
``from .x import _name`` nor ``<reccost module>._name``.  A decision a module
makes stays behind its public functions, so no other module re-decides it.
The scripts under ``scripts/`` read none either, but for one exception:
``defect_landscape.py`` streams the defect table through ``dalembert``'s
block loop, which has no public streaming form."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "reccost"
MODULES = sorted(p.stem for p in SRC.glob("*.py"))
SCRIPTS = sorted(p.name for p in (ROOT / "scripts").glob("*.py"))
STREAMING = {"defect_landscape.py": ["from reccost.dalembert import _scored",
                                     "from reccost.dalembert import _sweep"]}


def private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reads(source: str) -> list[str]:
    """'line: text' for each private name of a package module that source imports or reads."""
    tree, bound, found = ast.parse(source), set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "reccost"
                                                 or (node.module or "").startswith("reccost.")):
            for alias in node.names:
                if private(alias.name):
                    found.append(f"{node.lineno}: from {'.' * node.level}{node.module or ''} "
                                 f"import {alias.name}")
                elif node.module in (None, "reccost") and alias.name in MODULES:
                    bound.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("reccost.") and alias.asname:
                    bound.add(alias.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound and private(node.attr)):
            found.append(f"{node.lineno}: {node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("module", MODULES)
def test_no_module_reads_another_modules_privates(module):
    assert private_reads((SRC / f"{module}.py").read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("script", SCRIPTS)
def test_no_script_reads_privates_but_the_defect_stream(script):
    found = private_reads((ROOT / "scripts" / script).read_text(encoding="utf-8"))
    assert [line.split(": ", 1)[1] for line in found] == STREAMING.get(script, [])


def test_both_forms_are_found():
    source = ("from .dalembert import _sweep, sup_defect\n"
              "from . import dalembert\n"
              "import reccost.grids as g\n"
              "def f(h):\n"
              "    return dalembert._suprema, dalembert.__name__, g._private, h._cache\n")
    assert private_reads(source) == ["1: from .dalembert import _sweep",
                                     "5: dalembert._suprema", "5: g._private"]
