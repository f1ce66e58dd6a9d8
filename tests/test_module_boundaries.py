"""No module of the package reads another's private names: neither
``from .x import _name`` nor ``<reccost module>._name``.  A decision a module
makes stays behind its public functions, so no other module re-decides it.
``scripts/`` is left out: ``defect_landscape.py`` streams the defect table
through ``dalembert``'s block loop, which has no public streaming form."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "reccost"
MODULES = sorted(p.stem for p in SRC.glob("*.py"))


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


def test_both_forms_are_found():
    source = ("from .dalembert import _sweep, sup_defect\n"
              "from . import dalembert\n"
              "import reccost.grids as g\n"
              "def f(h):\n"
              "    return dalembert._suprema, dalembert.__name__, g._private, h._cache\n")
    assert private_reads(source) == ["1: from .dalembert import _sweep",
                                     "5: dalembert._suprema", "5: g._private"]
