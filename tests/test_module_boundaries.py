"""No module of the package reads another's private names: neither
``from .x import _name`` nor ``<reccost module>._name``.  A decision a module
makes stays behind its public functions, so no other module re-decides it.
The scripts under ``scripts/`` read none either: each goes through the
package's public names, as a user's code would.

Each hypothesis of the paper is refused by the one function that owns it, so
each refusal message is raised in exactly one place in the package: H(0) = 1
(``calibration.require_normalized``), a NaN H''(0) (``estimate_kappa``), the
domain tag (``handles.from_excess``) and the domain an operation needs
(``handles.require_domain``), the derivative order (``FunctionHandle.derivative``), the
window (``handles.require_window``), a value that must be positive and finite
(``core.validate_positive``), a computed value past double range (``core.require_finite``)
and cosh's range (``core.require_cosh_range``): no other module compares against
``COSH_T_MAX`` or a log of ``finfo(...).max``, or tries ``cosh`` for an ``OverflowError``."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "reccost"
MODULES = sorted(p.stem for p in SRC.glob("*.py"))
SCRIPTS = sorted(p.name for p in (ROOT / "scripts").glob("*.py"))


REFUSALS = ("violates the normalization", "H''(0) = nan is not a curvature", "unknown domain tag",
            "derivative of order", "needs evaluability on", "outside cosh's range",
            "must be positive and finite", "has no normal square", " handle, got ",
            "which overflows double precision")


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
    assert found == []


def test_both_forms_are_found():
    source = ("from .dalembert import _sweep, sup_defect\n"
              "from . import dalembert\n"
              "import reccost.grids as g\n"
              "def f(h):\n"
              "    return dalembert._suprema, dalembert.__name__, g._private, h._cache\n")
    assert private_reads(source) == ["1: from .dalembert import _sweep",
                                     "5: dalembert._suprema", "5: g._private"]


def raised_messages(source: str, kind: str = "") -> list[str]:
    """The literal text of each raised exception's arguments (of class kind alone, if given),
    '{}' for each formatted value: the parser has already joined adjacent literals, so a
    message split over lines reads whole."""
    def text(node):
        if isinstance(node, ast.JoinedStr):
            return "".join(text(v) if isinstance(v, ast.Constant) else "{}" for v in node.values)
        return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else ""

    return ["".join(map(text, node.exc.args)) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
            and kind in ("", getattr(node.exc.func, "id", None))]


@pytest.mark.parametrize("message", REFUSALS)
def test_each_hypothesis_is_refused_by_one_raise(message):
    raising = [module for module in MODULES
               for text in raised_messages((SRC / f"{module}.py").read_text(encoding="utf-8"))
               if message in text]
    assert len(raising) == 1, f"{message!r} is raised in {raising}"


def test_no_failed_hypothesis_reports_an_overflow():
    # PreconditionError means a failed hypothesis; a value past double range is refused by
    # core.require_finite, as a RangeOverflowError
    found = [text for module in MODULES
             for text in raised_messages((SRC / f"{module}.py").read_text(encoding="utf-8"),
                                         "PreconditionError")
             if "overflow" in text or "finite" in text]
    assert found == []


def test_a_second_copy_of_a_refusal_is_counted():
    source = ("def f(h, x):\n"
              "    if x:\n"
              "        raise ValueError(f'{h}: unknown domain '\n"
              "                         f'tag {x!r}')\n"
              "    raise ValueError('unknown domain tag')\n")
    assert sorted(raised_messages(source)) == ["unknown domain tag", "{}: unknown domain tag {}"]
    assert raised_messages(source, "KeyError") == []


def called(node, name: str) -> bool:
    """Whether node calls name, as a bare name or an attribute (np.finfo, math.log)."""
    return isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                   getattr(node.func, "attr", None))


def log_of_finfo_max(node) -> bool:
    """Whether node is or holds log(... finfo(...).max ...), the edge where exp overflows."""
    return any(called(n, "log") and any(
        isinstance(m, ast.Attribute) and m.attr == "max" and called(m.value, "finfo")
        for arg in n.args for m in ast.walk(arg)) for n in ast.walk(node))


def range_decisions(source: str) -> list[str]:
    """'line: what' for each comparison against COSH_T_MAX or a log of finfo(...).max and
    each try that calls cosh and catches OverflowError."""
    found = []
    for node in ast.walk(ast.parse(source)):
        operands = (node.left, *node.comparators) if isinstance(node, ast.Compare) else ()
        if any(isinstance(n, ast.Name) and n.id == "COSH_T_MAX" for n in operands):
            found.append(f"{node.lineno}: compares against COSH_T_MAX")
        elif any(log_of_finfo_max(n) for n in operands):
            found.append(f"{node.lineno}: compares against a log of finfo(...).max")
        elif isinstance(node, ast.Try) and any(
                isinstance(n, ast.Attribute) and n.attr == "cosh"
                for stmt in node.body for n in ast.walk(stmt)) and any(
                isinstance(n, ast.Name) and n.id == "OverflowError"
                for handler in node.handlers if handler.type for n in ast.walk(handler.type)):
            found.append(f"{node.lineno}: tries cosh for an OverflowError")
    return sorted(found, key=lambda line: int(line.split(":")[0]))


@pytest.mark.parametrize("module", [m for m in MODULES if m != "core"])
def test_only_core_decides_coshs_range(module):
    assert range_decisions((SRC / f"{module}.py").read_text(encoding="utf-8")) == []


def test_a_second_range_decision_is_found():
    source = ("def f(t):\n"
              "    if abs(t) > COSH_T_MAX:\n"
              "        raise ValueError(t)\n"
              "    try:\n"
              "        math.cosh(t)\n"
              "    except (OverflowError, ValueError):\n"
              "        pass\n"
              "    if t > math.log(np.finfo(float).max):\n"
              "        raise ValueError(t)\n"
              "    return np.log(np.minimum(t, np.finfo(float).max))\n")
    assert range_decisions(source) == ["2: compares against COSH_T_MAX",
                                       "4: tries cosh for an OverflowError",
                                       "8: compares against a log of finfo(...).max"]
