"""The README's library quick tour runs, and gives the epsilon its comment states."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_tour() -> str:
    """The python block under the README's "Library quick tour" heading."""
    section = README.read_text(encoding="utf-8").split("## Library quick tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quick_tour_runs_and_states_its_epsilon():
    code, namespace = quick_tour(), {}
    exec(code, namespace)
    line = next(line for line in code.splitlines() if line.startswith("rc.sup_defect("))
    expr, comment = line.split("#", 1)
    want = re.search(r"epsilon ~ ([0-9.]+e-?[0-9]+)", comment).group(1)
    digits = len(want.split("e")[0].partition(".")[2])
    assert f"{eval(expr, namespace).epsilon:.{digits}e}" == want


def test_every_flag_the_readme_names_is_declared():
    # a flag the CLI no longer declares would send a reader to an input error
    from reccost.cli import _COMMANDS
    declared = {flag for _, _, arguments in _COMMANDS.values() for flag, _ in arguments}
    named = {flag for line in README.read_text(encoding="utf-8").splitlines()
             if not re.search(r"\bpip\b|python scripts/", line)
             for flag in re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", line)}
    assert named - declared - {"--json"} == set()
