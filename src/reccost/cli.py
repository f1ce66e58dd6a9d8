"""Command-line front end.

Subcommands map one-to-one onto library operations; each invocation prints a
human-readable summary, optionally writes the full report as JSON
(--json PATH) and plot-ready CSV (--plot-csv PATH, certify/classify only).

Each subcommand is one row of ``_COMMANDS``: its help, its handler and its
flags with their ``add_argument`` keywords, in the order --help lists them.
``build_parser`` adds the row that a run's first argument names, or every row
where that names none (--help, a typo), so a run's parse, help and errors are
the whole parser's; the parse leaves the row's handler in ``ns.handler``.  One
path leads from a result to its report: a handler returns the library's records
(named tuples, and the frozen dataclasses of ``dalembert``, ``stability`` and
``geometry``) as they are, or the fields of a record that a section shows
(``_pick``), and ``_py`` alone turns them into plain JSON-able Python for the
printout and the JSON file.  In the same walk it refuses a NaN or infinite result
by its path (``results.kappa = nan is not an answer``).  The report is an
``argparse.Namespace`` whose ``vars()`` is the JSON object.

Exit codes: 0 = ok, 1 = verification-failed (a negative verdict, or a report section
refused), 2 = input-error (any toolkit error that reaches run).
A flag is read by its whole name only, so an abbreviated, misspelt or removed
flag is an input error.  The verdicts take no tuning flag: certify uses the h
that minimizes delta(h) and the handle's own a = H''(0), and classify its own
tolerances and residual grid.

``main`` is the process entry, of ``python -m reccost`` and of the ``reccost``
script alike: it turns the cyclic garbage collector off before any handler
imports numpy, calls ``run``, flushes stdout and stderr (a closed pipe is
ignored) and ends the process with ``os._exit`` and the exit code, so the
interpreter's teardown, which would only free what the process is about to
drop, is skipped.  An exception that escapes ``run`` still propagates with its
traceback.  ``run`` is the in-process entry: it keeps the collector and returns
the exit code and the report.

Function sources: --family SPEC (e.g. "cosh", "cosh-lambda,lambda=2",
"family=noisy-cosh,amplitude=1e-3,mode=sine,freq=5"; a key the family does not
take is an input error) or --input PATH, whose header names its coordinates.
The command fixes its own (``defect`` by its pair, --t/--u or --x/--y), and a
table is lifted or projected into them with a note.  Input CSV format: UTF-8,
header exactly "t,H" (log line) or "x,F" (positive ratios), one comma-separated
pair per line, strictly increasing abscissas.

All numeric output is printed with 17 significant digits so reports can be
replayed bit-for-bit.

Imports are lazy: at module level only the standard library, ``core`` and
``errors``, so ``eval``, ``golden``, ``chebyshev`` and ``distance`` never load
numpy, and ``eval`` and ``golden`` load neither ``geometry`` nor ``dataclasses``.
Only ``dalembert``, ``stability`` and ``geometry`` import ``dataclasses``, for
their frozen records, so ``calibrate`` and ``classify`` never load it.  Every check
that needs no array runs before a numpy-backed module loads: the grid flags, then
the function source (a table is parsed before ``handles`` loads, and a --family
spec before ``fixtures`` builds its stack), and only then does a handler import
the library module it calls.  Handlers call through module attributes
(``handles.sample_table``), so patches are seen.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import os
import re
import sys
import warnings
from pathlib import Path
from typing import TYPE_CHECKING, NoReturn

from . import core
from .core import LOG_LINE, POSITIVE_RATIOS
from .errors import (ClassificationError, DomainError, InputError, PreconditionError,
                     RangeOverflowError, ReccostError)

if TYPE_CHECKING:
    from .handles import FunctionHandle

STATUS_OK = "ok"
STATUS_FAILED = "verification-failed"
STATUS_INPUT_ERROR = "input-error"

_EXIT = {STATUS_OK: 0, STATUS_FAILED: 1, STATUS_INPUT_ERROR: 2}


def __getattr__(name):
    # for bench/tracer.py, which wraps these two names here (ROADMAP item 1); cli calls neither
    if name in ("sample_table", "make_family"):
        from . import fixtures, handles
        return getattr(handles if name == "sample_table" else fixtures, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _py(obj, path: str = ""):
    """Coerce records (named tuples, read through ``_asdict``; the frozen dataclasses of
    dalembert, stability and geometry, through ``vars``) and numpy values into plain JSON-able
    Python.  Given the path of obj in a report, a NaN or infinite float is a DomainError that
    names where it lies."""
    if type(obj) in (float, int, str, bool, type(None)):  # np.float64 subclasses float
        if path and type(obj) is float and not math.isfinite(obj):
            raise DomainError(f"{path} = {obj!r} is not an answer")
        return obj
    if isinstance(obj, dict):
        return {k: _py(v, path and f"{path}.{k}") for k, v in obj.items()}
    if isinstance(obj, tuple) and hasattr(obj, "_asdict"):  # a named tuple, before plain tuples
        return _py(obj._asdict(), path)
    if isinstance(obj, (list, tuple)):  # a finite float needs no path
        return [v if type(v) is float and (not path or math.isfinite(v))
                else _py(v, path and f"{path}[{i}]") for i, v in enumerate(obj)]
    if hasattr(obj, "__dataclass_fields__") and not isinstance(obj, type):
        return _py(vars(obj), path)  # a frozen dataclass's __dict__ is its fields, in order
    np = sys.modules.get("numpy")  # a numpy value exists only once numpy is imported
    if np is not None and isinstance(obj, (np.ndarray, np.generic)):
        return _py(obj.tolist(), path)  # numpy scalars become float, int or bool
    return obj


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _ends(value) -> list:
    # a list of more than ten is shown as its first and last five around "...";
    # --json keeps every entry
    return list(value) if len(value) <= 10 else [*value[:5], "...", *value[-5:]]


def _print_results(results: dict, prefix: str = "") -> None:
    for key, value in results.items():
        label = f"{prefix}{key}"
        if isinstance(value, dict):
            _print_results(value, prefix=f"{label}.")
        elif isinstance(value, (list, tuple)):
            count = f" ({len(value)} entries)" if len(value) > 10 else ""
            print(f"  {label} = [" + ", ".join(map(_fmt, _ends(value))) + "]" + count)
        else:
            print(f"  {label} = {_fmt(value)}")


# --------------------------------------------------------------------------
# input handling


_HEADERS = {"t,H": LOG_LINE, "x,F": POSITIVE_RATIOS}


def load_samples(path: str, domain: str | None = None) -> FunctionHandle:
    """Parse a sample CSV into a table handle; report the first bad line.

    The header names the domain; when ``domain`` is given it must match.
    """
    try:
        lines = Path(path).read_text(encoding="utf-8").rstrip().splitlines()  # no trailing blanks
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    if not lines:
        raise InputError("empty file", line=1)
    header = lines[0].strip()
    if domain is None:
        domain = _HEADERS.get(header)
        if domain is None:
            raise InputError(f"header must be exactly 't,H' or 'x,F', got {header!r}", line=1)
    expected = next(text for text, tag in _HEADERS.items() if tag == domain)
    if header != expected:
        raise InputError(f"expected header {expected!r}, got {header!r}", line=1)
    xs: list[float] = []
    ys: list[float] = []
    prev = None
    for lineno, raw in enumerate(lines[1:], start=2):
        row = raw.strip()
        if not row:
            raise InputError("blank line inside the table", line=lineno)
        parts = row.split(",")
        if len(parts) != 2:
            raise InputError(f"expected two comma-separated values, got {row!r}", line=lineno)
        try:
            a, b = float(parts[0]), float(parts[1])
        except ValueError:
            raise InputError(f"non-numeric entry in {row!r}", line=lineno) from None
        if not (math.isfinite(a) and math.isfinite(b)):
            raise InputError(f"non-finite entry in {row!r}", line=lineno)
        if domain == POSITIVE_RATIOS and a <= 0.0:
            raise InputError(f"ratio abscissa must be > 0, got {a!r}", line=lineno)
        if prev is not None and a <= prev:
            raise InputError(f"abscissas must increase strictly ({a!r} after {prev!r})", line=lineno)
        prev = a
        xs.append(a)
        ys.append(b)
    if len(xs) < 2:
        raise InputError("table needs at least two rows")
    from . import handles
    return handles.sample_table(domain, xs, ys, name=Path(path).name)


def _load_handle(ns, target: str):
    """Resolve --family/--input into a handle in the target domain and the diagnostics
    that note a change of coordinates."""
    if (ns.family is None) == (ns.input is None):
        raise InputError("exactly one function source is required: --family SPEC or --input PATH")
    if ns.family is not None:
        from . import fixtures
        handle = fixtures.make_family(fixtures.parse_family_spec(ns.family), domain=target)
    else:
        handle = load_samples(ns.input)
    if handle.domain == target:
        return handle, {}
    from . import handles
    if target == LOG_LINE:
        return handles.lift_to_log(handle), {
            "notes": ["source lifted to log coordinates (H = F(e^t) + 1)"]}
    return handles.to_ratio(handle), {
        "notes": ["source projected to ratio coordinates (F = H(ln x) - 1)"]}


# --------------------------------------------------------------------------
# result sections: the fields of a record that a report shows, shared by the
# single-stage commands and report

_DEFECT = ("epsilon", "argmax", "count")
_CERTIFICATE = ("verified", "delta", "max_observed_error", "max_envelope_margin", "inputs")
_CLASSIFICATION = ("branch", "k", "residual", "kappa_used")


def _pick(obj, names) -> dict:
    return {name: getattr(obj, name) for name in names}


def _classification_section(outcome) -> dict:
    """A BranchClassification, or the exception that refused one."""
    if isinstance(outcome, Exception):
        return {"classified": False, "reason": str(outcome)}
    return {"classified": True, **_pick(outcome, _CLASSIFICATION)}


def _grid_source(ns, target: str):
    """Handle and diagnostics of a command that sweeps [-T, T] at --step; the grid
    flags are checked before the source is loaded."""
    from . import grids
    grid = {"T": float(ns.T), "step": ns.T / grids.grid_intervals(ns.T, ns.step)}
    handle, diag = _load_handle(ns, target)
    return handle, {"grid": grid, **diag}


# --------------------------------------------------------------------------
# subcommand handlers: each returns (results, diagnostics, status, plot_rows),
# where results is a record or a dict of records and fields for _py to convert


def _cmd_eval(ns):
    x = float(ns.x)
    j = core.canonical_cost(x)
    t = math.log(x)
    g, h = core.log_forms(t)
    am, gm, _ = core.am_gm_decomposition(x)
    results = {"J": j, "t": t, "G": g, "H": h, "am": am, "gm": gm}
    return results, {}, STATUS_OK, None


def _cmd_defect(ns):
    # the pair given names the equation; it is checked before the source loads
    given = "".join(name for name in "tuxy" if getattr(ns, name) is not None)
    if given not in ("tu", "xy"):
        raise InputError("defect needs one coordinate pair: --t and --u (log line) "
                         "or --x and --y (positive ratios)")
    handle, diag = _load_handle(ns, LOG_LINE if given == "tu" else POSITIVE_RATIOS)
    from . import dalembert
    defect = dalembert.defect_log if given == "tu" else dalembert.defect_ratio
    return {"delta": defect(handle, *(getattr(ns, name) for name in given))}, diag, STATUS_OK, None


def _cmd_sup_defect(ns):
    handle, diag = _grid_source(ns, LOG_LINE)
    from . import dalembert
    report = dalembert.sup_defect(handle, ns.T, ns.step)
    return _pick(report, _DEFECT), diag, STATUS_OK, None


def _cmd_identities(ns):
    handle, diag = _grid_source(ns, LOG_LINE)
    from . import dalembert
    return dalembert.identity_report(handle, ns.T, ns.step), diag, STATUS_OK, None


def _cmd_calibrate(ns):
    handle, diag = _load_handle(ns, LOG_LINE)
    from . import calibration
    return {"kappa": calibration.estimate_kappa(handle)}, diag, STATUS_OK, None


def _cmd_classify(ns):
    handle, diag = _load_handle(ns, LOG_LINE)
    from . import calibration
    try:
        result = calibration.classify(handle, window_T=ns.window_T)
    except ClassificationError as exc:
        return _classification_section(exc), diag, STATUS_FAILED, None
    plot = None
    if ns.plot_csv:  # the values classify measured on its residual grid
        fit = calibration.branch_values(result.branch, result.k, result.grid)
        plot = [(t, v, f, "", abs(v - f)) for t, v, f in zip(result.grid, result.values, fit)]
    return _classification_section(result), diag, STATUS_OK, plot


def _certify_common(ns, ratio: bool):
    handle, diag = _grid_source(ns, POSITIVE_RATIOS if ratio else LOG_LINE)
    from . import stability
    fn = stability.certify_ratio if ratio else stability.certify
    cert = fn(handle, ns.T, ns.step)
    if ratio:
        half = cert.inputs.T - cert.inputs.h
        diag["x_window"] = [math.exp(-half), math.exp(half)]
    plot = list(zip(*stability.certificate_sweep(cert))) if ns.plot_csv else None
    status = STATUS_OK if cert.verified else STATUS_FAILED
    return _pick(cert, _CERTIFICATE + ("envelope",)), diag, status, plot


def _cmd_distance(ns):
    from . import geometry
    return geometry.distance(ns.x, ns.y), {}, STATUS_OK, None


def _cmd_chebyshev(ns):
    from . import geometry
    check = geometry.chebyshev_cost(ns.x, ns.n)
    results = {**_pick(check, ("via_identity", "direct", "rel_discrepancy")),
               "sequence": check.sequence[: ns.n + 1]}
    return results, {}, STATUS_OK, None


def _cmd_golden(ns):
    return core.golden_fixed_point(ns.x0), {}, STATUS_OK, None


def _cmd_report(ns):
    handle, diag = _grid_source(ns, LOG_LINE)
    from . import calibration, dalembert, stability
    kappa = calibration.estimate_kappa(handle)  # H(0) off 1, a NaN H''(0): refused before the sweep
    sections = {"sup_defect": _pick(defect := dalembert.sup_defect(handle, ns.T, ns.step), _DEFECT),
                "curvature": {"kappa": kappa}}
    try:
        cls = calibration.classify(handle, window_T=ns.T)
    except (ClassificationError, RangeOverflowError) as exc:
        cls = exc
    sections["classification"] = _classification_section(cls)
    failed = isinstance(cls, (ClassificationError, RangeOverflowError))
    try:
        cert = stability.certify(handle, ns.T, ns.step, defect=defect)
        sections["certificate"] = _pick(cert, _CERTIFICATE)
        failed = failed or not cert.verified
    except (PreconditionError, RangeOverflowError) as exc:  # a failed hypothesis or an overflow
        sections["certificate"], failed = {"error": str(exc)}, True
    status = STATUS_FAILED if failed else STATUS_OK
    return sections, diag, status, None


# --------------------------------------------------------------------------
# parser: each subcommand is one row of _COMMANDS, name: (help, handler, arguments),
# where arguments are (flag, add_argument keywords) pairs in the order --help lists them


_SOURCE = (("--family", {"help": "builtin family spec, e.g. cosh-lambda,lambda=2"}),
           ("--input", {"help": "CSV sample table (header 't,H' or 'x,F')"}))
_GRID = _SOURCE + (("--T", {"type": float, "default": 2.0}),
                   ("--step", {"type": float, "default": 0.05}))
_PLOT = (("--plot-csv", {"help": "write (t,H,branch,envelope,error) rows to this path"}),)
_CERTIFY = _GRID + _PLOT
_X = ("--x", {"type": float, "required": True})

_COMMANDS = {
    "eval": ("evaluate J and its log forms at a point", _cmd_eval, (_X,)),
    "defect": ("pointwise defect of the functional equation", _cmd_defect,
               _SOURCE + tuple((f"--{name}", {"type": float}) for name in "tuxy")),
    "sup-defect": ("grid supremum of the defect", _cmd_sup_defect, _GRID),
    "identities": ("violations of the solution identities", _cmd_identities, _GRID),
    "calibrate": ("log-curvature H''(0) from the handle's stack", _cmd_calibrate, _SOURCE),
    "classify": ("classify into the solution branch", _cmd_classify,
                 _SOURCE + (("--window-T", {"type": float, "default": 2.0}),) + _PLOT),
    "certify": ("stability certificate in log coordinates",
                functools.partial(_certify_common, ratio=False), _CERTIFY),
    "certify-ratio": ("stability certificate on positive ratios",
                      functools.partial(_certify_common, ratio=True), _CERTIFY),
    "distance": ("geodesic distance of the Hessian metric", _cmd_distance,
                 (_X, ("--y", {"type": float, "required": True}))),
    "chebyshev": ("Chebyshev identity check for J(x^n)", _cmd_chebyshev,
                  (_X, ("--n", {"type": int, "required": True}))),
    "golden": ("golden-ratio fixed point of x -> 1 + 1/x", _cmd_golden,
               (("--x0", {"type": float, "default": 1.0}),)),
    "report": ("full verification suite on one input", _cmd_report, _GRID),
}
_JSON = ("--json", {"help": "write the run report as JSON to this path"})


class _Parser(argparse.ArgumentParser):
    """An argument parser whose parse errors raise InputError, that reads every negative
    float literal (-1e308, -.5, -inf) as a value, not as an option, and that reads no
    abbreviation of a flag (--window is not --window-T), so a misspelt or removed flag is
    refused.  Its subparsers are of its class, so they read none either."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        raise InputError(message)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand; given the name of one, the parser of that one alone,
    which parses its argv, prints its --help and words its errors as the whole parser does."""
    parser = _Parser(
        prog="reccost",
        description="Verification toolkit for the canonical reciprocal cost "
        "J(x) = (x + 1/x)/2 - 1 and d'Alembert-type functional equations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [command] if command in _COMMANDS else _COMMANDS:
        help_text, handler, arguments = _COMMANDS[name]
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(handler=handler)
        for flag, keywords in (*arguments, _JSON):
            sp.add_argument(flag, **keywords)
    return parser


# --------------------------------------------------------------------------
# driver


def _write(path: str, lines) -> None:
    try:
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


def _failure(command: str, exc: ReccostError) -> argparse.Namespace:
    return argparse.Namespace(command=command, inputs={}, results=None,
                              diagnostics={"error": f"{type(exc).__name__}: {exc}"},
                              status=STATUS_INPUT_ERROR)


def run(argv) -> tuple[int, argparse.Namespace]:
    """Execute one CLI invocation; returns (exit_code, report)."""
    ns = argparse.Namespace(command="", json=None)  # what a failed parse leaves
    try:
        argv = list(argv)
        ns = build_parser(argv[0] if argv else None).parse_args(argv)
        with warnings.catch_warnings():  # numpy's overflow notes; a non-finite result is refused
            warnings.simplefilter("ignore", RuntimeWarning)
            results, diagnostics, status, plot_rows = ns.handler(ns)
        results = _py(results, "results")
        inputs = {key.replace("_", "-"): value for key, value in vars(ns).items()
                  if value is not None and key not in ("command", "handler", "json", "plot_csv")}
        if getattr(ns, "plot_csv", None) and plot_rows is not None:
            _write(ns.plot_csv, ["t,H,branch,envelope,error"] + [",".join(
                "" if v == "" else f"{float(v):.17g}" for v in row) for row in plot_rows])
        report = argparse.Namespace(command=ns.command, inputs=inputs, results=results,
                                    diagnostics=_py(diagnostics), status=status)
    except SystemExit:  # --help printed the usage; a parse error raises InputError
        return 0, argparse.Namespace(command="help", inputs={}, results=None, diagnostics={},
                                     status=STATUS_OK)
    except ReccostError as exc:  # a verdict (ClassificationError) is caught by its handler
        report = _failure(ns.command, exc)
    if ns.json:
        try:
            _write(ns.json, [json.dumps(vars(report), indent=2)])  # _py output already
        except InputError as exc:
            report = _failure(ns.command, exc)
    try:  # a closed stdout fails here if it is unbuffered or the summary outgrows its buffer
        print(f"reccost {ns.command}: {report.status}" if ns.command
              else f"reccost: {report.status}")
        if report.results is None:
            print(f"  {report.diagnostics['error']}")
        else:
            if not report.results.get("classified", True):  # classify's refusal
                print("  not near any branch")
            _print_results(report.results)
    except BrokenPipeError:
        pass
    return _EXIT[report.status], report


def main(argv=None) -> NoReturn:
    """The process entry of ``python -m reccost`` and the ``reccost`` script: runs one
    invocation with the cyclic GC off and ends the process at its report."""
    gc.disable()  # before a handler imports numpy, whose import would trigger collections
    code, _ = run(sys.argv[1:] if argv is None else argv)
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()  # a piped stdout is block-buffered, so a closed pipe shows here
        except BrokenPipeError:
            pass
    os._exit(code)  # the report is written and flushed; interpreter teardown is skipped


if __name__ == "__main__":
    main()
