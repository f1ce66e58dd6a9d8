import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import load_script
from reccost import (DomainError, InputError, LOG_LINE, POSITIVE_RATIOS, calibration, core,
                     dalembert, fixtures, geometry, grids, handles, stability)
from reccost import cli
from reccost.cli import _py, build_parser, load_samples, run


def subcommands(parser):
    """The names of the subcommands parser has built, in declaration order."""
    return list(next(a.choices for a in parser._actions if a.dest == "command"))


COMMANDS = subcommands(build_parser())

# one passing run of each subcommand
EXAMPLES = {argv[0]: argv for argv in [
    ["eval", "--x", "2"],
    ["defect", "--family", "cosh", "--x", "2", "--y", "3"],
    ["sup-defect", "--family", "cosh-lambda,lambda=2", "--T", "2", "--step", "0.1"],
    ["identities", "--family", "cosh", "--T", "2", "--step", "0.1"],
    ["calibrate", "--family", "cosh"],
    ["classify", "--family", "cosh-lambda,lambda=2"],
    ["certify", "--family", "cosh", "--T", "2", "--step", "0.05"],
    ["certify-ratio", "--family", "cosh", "--T", "2", "--step", "0.05"],
    ["distance", "--x", "1", "--y", "3"],
    ["chebyshev", "--x", "2", "--n", "5"],
    ["golden", "--x0", "1"],
    ["report", "--family", "cosh", "--T", "2", "--step", "0.1"],
]}


ALIASED = "noisy-cosh,amplitude=1e-3,mode=sine,freq=62.83185307179586"


def write_cosh_csv(path, lo=-2.5, hi=2.5, n=1001):
    ts = np.linspace(lo, hi, n)
    rows = "\n".join(f"{float(t)!r},{math.cosh(float(t))!r}" for t in ts)
    path.write_text("t,H\n" + rows + "\n", encoding="utf-8")
    return str(path)


def write_cosh_ratio_csv(path, n=401):
    """An ``x,F`` table of J(x) = cosh(ln x) - 1 on x in [e^-2.5, e^2.5]."""
    xs = np.exp(np.linspace(-2.5, 2.5, n))
    rows = "\n".join(f"{float(x)!r},{math.cosh(math.log(float(x))) - 1.0!r}" for x in xs)
    path.write_text("x,F\n" + rows + "\n", encoding="utf-8")
    return str(path)


def write_steep_csv(directory):
    """steep.csv: 1 + 5e306 (cosh(10 t) - 1) on the 7 rows t = -0.003, -0.002, ..., 0.003."""
    ts = np.linspace(-0.003, 0.003, 7)
    with np.errstate(over="ignore"):
        rows = "".join(f"{float(t)!r},{float(1.0 + 5e306 * (np.cosh(10.0 * t) - 1.0))!r}\n"
                       for t in ts)
    (directory / "steep.csv").write_text("t,H\n" + rows, encoding="utf-8")
    return str(directory / "steep.csv")


def write_quadlog_csv(path, lo=-2.5, hi=2.5, n=101):
    ts = np.linspace(lo, hi, n)
    rows = "\n".join(f"{float(t)!r},{1.0 + 0.5 * float(t) * float(t)!r}" for t in ts)
    path.write_text("t,H\n" + rows + "\n", encoding="utf-8")
    return str(path)


class TestLoadSamples:
    def test_three_node_log_table(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("t,H\n0,1\n0.5,1.1276\n1,1.5431\n", encoding="utf-8")
        h = load_samples(str(p), LOG_LINE)
        assert h.support == (0.0, 1.0)
        assert h.domain == LOG_LINE

    def test_ratio_table(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("x,F\n0.5,0.25\n1,0\n2,0.25\n", encoding="utf-8")
        h = load_samples(str(p), POSITIVE_RATIOS)
        assert h.domain == POSITIVE_RATIOS
        assert h(1.0) == 0.0

    def test_duplicate_abscissa_reports_line(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("t,H\n0,1\n0.5,1.1\n0.5,1.2\n1,1.5\n", encoding="utf-8")
        with pytest.raises(InputError) as info:
            load_samples(str(p), LOG_LINE)
        assert info.value.line == 4

    def test_wrong_header(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("time,value\n0,1\n", encoding="utf-8")
        with pytest.raises(InputError) as info:
            load_samples(str(p), LOG_LINE)
        assert info.value.line == 1

    def test_non_finite_entry(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("t,H\n0,1\n0.5,inf\n1,1.5\n", encoding="utf-8")
        with pytest.raises(InputError) as info:
            load_samples(str(p), LOG_LINE)
        assert info.value.line == 3

    def test_nonpositive_ratio_abscissa(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("x,F\n-1,0.2\n1,0\n", encoding="utf-8")
        with pytest.raises(InputError) as info:
            load_samples(str(p), POSITIVE_RATIOS)
        assert info.value.line == 2

    @pytest.mark.parametrize("header, domain", [("t,H", LOG_LINE), ("x,F", POSITIVE_RATIOS)])
    def test_header_names_the_domain(self, tmp_path, header, domain):
        p = tmp_path / "s.csv"
        p.write_text(f"{header}\n0.5,0.25\n1,0\n", encoding="utf-8")
        assert load_samples(str(p)).domain == domain
        other = POSITIVE_RATIOS if domain == LOG_LINE else LOG_LINE
        with pytest.raises(InputError, match="expected header") as info:
            load_samples(str(p), other)
        assert info.value.line == 1

    @pytest.mark.parametrize("domain", [None, LOG_LINE])
    def test_empty_file(self, tmp_path, domain):
        p = tmp_path / "s.csv"
        p.write_text("", encoding="utf-8")
        with pytest.raises(InputError, match="empty file") as info:
            load_samples(str(p), domain)
        assert info.value.line == 1

    @pytest.mark.parametrize("text, line, message", [
        ("time,value\n0,1\n1,2\n", 1, "header must be exactly 't,H' or 'x,F'"),
        ("t,H\n0,1\n\n1,2\n", 3, "blank line inside the table"),
        ("t,H\n0,1,2\n1,2\n", 2, "expected two comma-separated values"),
        ("t,H\n0,1\n", None, "table needs at least two rows"),
    ], ids=["unknown-header", "inner-blank-line", "three-columns", "one-row"])
    def test_malformed_table_without_a_domain(self, tmp_path, text, line, message):
        p = tmp_path / "s.csv"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(InputError, match=message) as info:
            load_samples(str(p))
        assert info.value.line == line

    @pytest.mark.parametrize("tail", ["\n", "\n\n", "\n  \n"], ids=["one", "two", "spaces"])
    def test_trailing_blank_line_is_accepted(self, tmp_path, tail):
        # blank and whitespace-only lines end the file; one before a row is still refused
        p = tmp_path / "s.csv"
        p.write_text("t,H\n0,1\n1,2\n" + tail, encoding="utf-8")
        assert load_samples(str(p)).support == (0.0, 1.0)

    def test_undecodable_file(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_bytes(b"t,H\n0,1\n\xff,2\n")
        with pytest.raises(InputError, match="cannot read"):
            load_samples(str(p))

    def test_non_numeric(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("t,H\n0,1\nabc,2\n", encoding="utf-8")
        with pytest.raises(InputError) as info:
            load_samples(str(p), LOG_LINE)
        assert info.value.line == 3


class TestExitCodes:
    OK = [
        ["eval", "--x", "2"],
        ["defect", "--family", "cosh", "--x", "2", "--y", "3"],
        ["defect", "--family", "cosh", "--t", "1.3", "--u", "0.4"],
        ["sup-defect", "--family", "cosh", "--T", "2", "--step", "0.1"],
        ["identities", "--family", "cosh", "--T", "2", "--step", "0.1"],
        ["calibrate", "--family", "cosh-lambda,lambda=2"],
        ["classify", "--family", "cosh-lambda,lambda=2"],
        ["certify", "--family", "cosh", "--T", "2", "--step", "0.05"],
        ["certify-ratio", "--family", "cosh", "--T", "2", "--step", "0.05"],
        ["distance", "--x", "1", "--y", "2.718281828459045"],
        ["chebyshev", "--x", "2", "--n", "3"],
        ["golden", "--x0", "1"],
        ["report", "--family", "cosh", "--T", "2", "--step", "0.1"],
        ["--help"],
    ]
    FAILED = [
        ["classify", "--family", "quadlog"],
        # reproducer A's aliased sine breaks the envelope of its own H''(0) = 4.95
        ["certify", "--family", ALIASED, "--T", "2", "--step", "0.1"],
        ["certify-ratio", "--family", ALIASED, "--T", "2", "--step", "0.1"],
        ["report", "--family", "quadlog", "--T", "2", "--step", "0.1"],
    ]
    INPUT_ERROR = [
        ["eval", "--x", "-1"],
        ["defect", "--family", "cosh", "--t", "1", "--y", "1"],  # a mixed coordinate pair
        ["sup-defect", "--family", "cosh", "--step", "-0.1"],
        ["identities", "--family", "cosh", "--T", "0"],
        ["calibrate", "--family", "cosh-lambda,lambda=1e300"],  # H''(0) = 1e600 overflows
        ["classify", "--family", "no-such-family"],
        ["certify", "--family", "cos-k,k=1"],  # negative curvature hypothesis
        ["certify-ratio", "--family", "cosh", "--T", "-1"],
        ["distance", "--x", "0", "--y", "2"],
        ["chebyshev", "--x", "2", "--n", "-3"],
        ["golden", "--x0", "0"],
        ["report", "--family", "cosh", "--T", "-2"],
        ["eval"],  # missing required flag
        ["no-such-command"],
        ["defect", "--family", "cosh", "--input", "x.csv", "--x", "2", "--y", "3"],
        # crash guards; the leading flag keeps each test id distinct
        ["classify", "--window-T", "800", "--family", "quadlog"],  # 1e-6 cosh(800) overflows
        ["classify", "--family=quadlog", "--window-T", "700"],  # the fit's cosh(1.3 k0 700)
        ["chebyshev", "--n", "100000000", "--x", "1"],  # O(n) recursion, no overflow at x = 1
        # a key the family does not take, or a key given twice, once answered silently
        ["classify", "--family=cos,lambda=2"],  # was Cos with k = 1
        ["sup-defect", "--family=quadlog,lambda=-3"],
        ["sup-defect", "--family=cosh,lambda=1,lambda=2"],  # the last value won
        ["sup-defect", "--family=cosh,mode=banana"],
        ["defect", "--domain", "log-line", "--family", "cosh", "--x", "2", "--y", "3"],  # not a flag
        ["certify", "--T", "400", "--step", "100", "--family", "cosh"],  # [-800, 800] overflows
    ]

    @pytest.mark.parametrize("argv", OK, ids=lambda a: "ok-" + a[0])
    def test_ok(self, argv, capsys):
        code, report = run(argv)
        assert code == 0
        assert report.status == "ok"

    @pytest.mark.parametrize("argv", FAILED, ids=lambda a: "failed-" + a[0])
    def test_verification_failed(self, argv, capsys):
        code, report = run(argv)
        assert code == 1
        assert report.status == "verification-failed"
        assert report.results is not None

    @pytest.mark.parametrize("argv", INPUT_ERROR, ids=lambda a: "err-" + "-".join(a[:2]))
    def test_input_error(self, argv, capsys):
        code, report = run(argv)
        assert code == 2
        assert report.status == "input-error"
        assert report.results is None

    @pytest.mark.parametrize("argv", [
        ["defect", "--family", "cosh", "--t", "1"],
        ["defect", "--family", "cosh", "--y", "3"],
        ["defect", "--family", "cosh"],
    ], ids=["log-line", "positive-ratios", "no-pair"])
    def test_defect_needs_both_of_its_flags(self, argv, capsys):
        code, report = run(argv)
        assert code == 2
        assert report.diagnostics["error"] == (
            "InputError: defect needs one coordinate pair: --t and --u (log line) "
            "or --x and --y (positive ratios)")

    @pytest.mark.parametrize("argv", [
        ["eval", "--x", "2", "--json", "no-such-dir/r.json"],
        ["certify", "--family", "cosh", "--plot-csv", "no-such-dir/x.csv"],
        ["eval", "--x", "2", "--json", "."],  # a directory
    ], ids=["json-missing-dir", "plot-csv-missing-dir", "json-directory"])
    def test_unwritable_output_is_an_input_error(self, argv, capsys):
        # once a FileNotFoundError or IsADirectoryError traceback, exit 1, after a status line "ok"
        code, report = run(argv)
        assert code == 2
        assert report.status == "input-error" and report.results is None
        assert report.diagnostics["error"].startswith(f"InputError: cannot write {argv[-1]}: ")
        status, message = capsys.readouterr().out.splitlines()
        assert status == f"reccost {argv[0]}: input-error" and f"cannot write {argv[-1]}" in message

    def test_unwritable_plot_is_reported_in_the_json(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        code, _ = run(["certify", "--family", "cosh", "--plot-csv", str(tmp_path / "no" / "x.csv"),
                       "--json", str(path)])
        written = json.loads(path.read_text(encoding="utf-8"))
        assert code == 2 and written["status"] == "input-error" and written["results"] is None
        assert "cannot write" in written["diagnostics"]["error"]


    @pytest.mark.parametrize("spec, key", [("cos,lambda=2", "'lambda'"),
                                           ("quadlog,lambda=-3", "'lambda'"),
                                           ("cosh,mode=banana", "'mode'"),
                                           ("cosh,lambda=1,lambda=2", "'lambda' twice")])
    def test_family_spec_errors_name_the_key(self, spec, key, capsys):
        code, report = run(["classify", "--family", spec])
        assert code == 2
        assert report.diagnostics["error"].startswith("ParameterError: ")
        assert key in report.diagnostics["error"]

    @pytest.mark.parametrize("argv", [
        ["sup-defect", "--family", "cosh", "--step", "1e-9"],
        ["certify", "--family", "cosh", "--step", "1e-9"],
        ["report", "--family", "cosh", "--step", "1e-9"],
    ], ids=lambda a: a[0])
    def test_grid_past_the_node_cap_is_refused(self, argv, capsys):
        # 2e9 intervals per side once asked numpy for 14.9 GiB
        code, report = run(argv)
        assert code == 2
        assert "needs over 65536 intervals" in report.diagnostics["error"]

    @pytest.mark.parametrize("y", ["1e30", "1.9424263952412558e+130"])
    def test_distance_to_far_endpoints_answers(self, y, capsys):
        code, report = run(["distance", "--x", "1", "--y", y])
        assert code == 0
        assert math.isfinite(report.results["value"]) and report.results["evaluations"] > 0
        assert report.diagnostics == {}

    @pytest.mark.parametrize("argv, message", [
        (["certify", "--family", "noisy-cosh,freq=1e308"],
         "PreconditionError: handle is not even: sup|H(-t) - H(t)| = nan"),
        (["report", "--family", "noisy-cosh,freq=1e308"],
         "RangeOverflowError: noisy-cosh(1,sine,0.001): H''(0) is inf, which overflows double "
         "precision"),
        (["classify", "--family", "noisy-cosh,freq=1e308"],
         "RangeOverflowError: noisy-cosh(1,sine,0.001): H''(0) is inf, which overflows double "
         "precision"),
        (["certify", "--family", "cosh-lambda,lambda=1e103", "--T", "1e-104", "--step", "1e-105"],
         "RangeOverflowError: cosh-lambda(1e+103): K = sup |H'''| on [-T, T] is nan, which "
         "overflows double precision"),
        # x*y and x/y are ratios: an overflow and an underflow are refused as any ratio is
        (["defect", "--family", "cosh", "--x", "1e300", "--y", "1e300"],
         "DomainError: x*y at x = 1e+300, y = 1e+300 must be positive and finite, got inf"),
        (["defect", "--family", "cosh", "--x", "1e-300", "--y", "1e300"],
         "DomainError: x/y at x = 1e-300, y = 1e+300 must be positive and finite, got 0.0"),
        (["defect", "--family", "quadlog", "--t", "1e308", "--u", "1e308"],
         "RangeOverflowError: t + u at t = 1e+308, u = 1e+308 is inf, which overflows double "
         "precision"),
    ], ids=["certify-freq", "report-freq", "classify-freq", "certify-lambda", "defect-xy",
            "defect-x-over-y", "defect-t-plus-u"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_parameter_powers_answer_with_a_message(self, argv, message, capsys):
        # freq^3 and lambda^3 in H''' once raised OverflowError; they are inf now, and the
        # NaN they leave fails the evenness hypothesis or the bound K, and an infinite
        # H''(0) = amplitude freq^2 is refused as an overflow.
        # A defect whose arguments overflow names its inputs, not the abscissa they give.
        code, report = run(argv)
        assert code == 2 and report.status == "input-error"
        error = report.diagnostics["error"]
        assert error.startswith(message)
        assert capsys.readouterr().out.splitlines() == [f"reccost {argv[0]}: input-error",
                                                        f"  {error}"]

    @pytest.mark.parametrize("argv, leaf", [
        (["sup-defect", "--family", "noisy-cosh,freq=1e308"], "epsilon"),
        (["identities", "--family", "noisy-cosh,freq=1e308"], "product_identity"),
    ], ids=lambda v: v[0] + "-" + v[2] if isinstance(v, list) else None)
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_nan_is_not_an_answer(self, argv, leaf, capsys):
        # freq t overflows and sin(freq t) is NaN: a NaN node is no value, not an overflow, so
        # the sweeps answer NaN fields, which the CLI refuses by their path
        code, report = run(argv)
        assert code == 2 and report.results is None and report.inputs == {}
        error = report.diagnostics["error"]
        assert error == f"DomainError: results.{leaf} = nan is not an answer"

    @pytest.mark.parametrize("command", ["calibrate", "classify", "report"])
    @pytest.mark.parametrize("source, h_at_0", [
        ("table", "1e+300"), ("noisy-cosh,mode=trig,freq=1e308", "nan")],
        ids=["table-1e300-cosh", "trig-nan"])
    def test_an_unnormalized_handle_is_refused(self, command, source, h_at_0, tmp_path, capsys):
        # kappa = H''(0) is the calibration only where H(0) = 1: a table of 1e300 cosh(t) on
        # 61 rows of [-3, 3] once calibrated to kappa = 9.99e299, and trig's H(0) at this
        # frequency is nan; report refuses before its sweep, so T = 2 needs no wider table, and
        # classify through the estimate_kappa call that picks its branch
        if source == "table":
            ts = np.linspace(-3.0, 3.0, 61).tolist()
            rows = "".join(f"{t!r},{1e300 * math.cosh(t)!r}\n" for t in ts)
            (tmp_path / "big.csv").write_text("t,H\n" + rows, encoding="utf-8")
            argv = [command, "--input", str(tmp_path / "big.csv")]
        else:
            argv = [command, "--family", source]
        code, report = run(argv)
        assert (code, report.results) == (2, None)
        assert report.diagnostics["error"] == (f"PreconditionError: H(0) = {h_at_0} violates the "
                                               "normalization H(0) = 1 (tolerance 1e-06)")

    @pytest.mark.parametrize("command", ["calibrate", "classify", "certify", "report"])
    @pytest.mark.parametrize("source, message", [
        ("table", "H(0) = 2.0 violates the normalization H(0) = 1 (tolerance 1e-06)"),
        ("noisy-cosh,amplitude=0,mode=sine,freq=1e308",
         "noisy-cosh(1,sine,0): H''(0) = nan is not a curvature"),
    ], ids=["constant-two-table", "nan-curvature"])
    def test_one_input_gets_one_refusal_from_every_command(self, command, source, message,
                                                           tmp_path, capsys):
        # each hypothesis is refused by its owner: H(0) by require_normalized, a NaN H''(0) =
        # 0 * inf by estimate_kappa, which report calls before its sweep; certify reads H on
        # its grid first, where freq t overflows and H is NaN, so it refuses on evenness
        if source == "table":
            ts = np.linspace(-4.05, 4.05, 811).tolist()
            rows = "".join(f"{t!r},2.0\n" for t in ts)
            (tmp_path / "two.csv").write_text("t,H\n" + rows, encoding="utf-8")
            argv = [command, "--input", str(tmp_path / "two.csv")]
        else:
            argv = [command, "--family", source]
        if command == "certify" and source != "table":
            message = "handle is not even: sup|H(-t) - H(t)| = nan on the grid"
        code, report = run(argv)
        assert (code, report.results) == (2, None)
        assert report.diagnostics["error"] == f"PreconditionError: {message}"

    @pytest.mark.parametrize("argv, leaf, value", [
        (["eval", "--x", "1e300"], "J", 5e299),
        (["chebyshev", "--x", "1e200", "--n", "1"], "via_identity", 5e199),
    ], ids=["eval", "chebyshev"])
    def test_j_answers_past_the_square_root_of_dbl_max(self, argv, leaf, value, capsys):
        # (x - 1)^2 overflows past 1.34e154; J ~ x/2 does not
        code, report = run(argv)
        assert code == 0 and report.results[leaf] == value

    def test_an_overflowing_curvature_is_named(self, capsys):
        # cosh(1e300 t) has H''(0) = 1e600; a ladder once refused its support, [-7e-298, 7e-298],
        # as too narrow, and the refusal now names the overflow, not a flag
        code, report = run(["calibrate", "--family", "cosh-lambda,lambda=1e300"])
        assert code == 2
        assert report.diagnostics["error"] == ("RangeOverflowError: cosh-lambda(1e+300): H''(0) is "
                                               "inf, which overflows double precision")

    @pytest.mark.parametrize("argv, message", [
        (["eval"], "the following arguments are required: --x"),
        (["eval", "--x", "2", "--frobnicate"], "unrecognized arguments: --frobnicate"),
        (["no-such-command"], "argument command: invalid choice: 'no-such-command'"),
        (["chebyshev", "--x", "2", "--n", "1.5"], "argument --n: invalid int value: '1.5'"),
        # calibrate's ladder has no knobs: a first step is no longer a flag
        (["calibrate", "--h0", "0.1", "--family", "cosh"], "unrecognized arguments: --h0 0.1"),
        (["calibrate", "--levels", "6", "--family", "cosh"], "unrecognized arguments: --levels 6"),
        # nor do the verdicts: h is optimal_h's, and classify's tolerances and grid are its own
        (["certify", "--h", "1e-300", "--family", "cosh"], "unrecognized arguments: --h 1e-300"),
        # and a is the handle's own H''(0), the one curvature the certificate's bound holds for
        (["certify", "--a", "1", "--family", "cosh"], "unrecognized arguments: --a 1"),
        (["certify-ratio", "--a", "1", "--family", "cosh"], "unrecognized arguments: --a 1"),
        (["classify", "--const-tol", "1e300", "--family", "cosh"],
         "unrecognized arguments: --const-tol 1e300"),
        (["classify", "--residual-step", "1e-9", "--family", "cosh"],
         "unrecognized arguments: --residual-step 1e-9"),
        (["classify", "--residual-tol", "1e300", "--family", "quadlog"],
         "unrecognized arguments: --residual-tol 1e300"),
        # golden answers at its exact fixed point: no tolerance, no budget
        (["golden", "--tol", "1e-12"], "unrecognized arguments: --tol 1e-12"),
        (["golden", "--max-iter", "200"], "unrecognized arguments: --max-iter 200"),
        # a flag is read by its whole name only: --h was once read as --help
        (["classify", "--window", "1", "--family", "cosh"], "unrecognized arguments: --window 1"),
        (["classify", "--fam", "cosh"], "unrecognized arguments: --fam cosh"),
    ], ids=["missing", "unknown-flag", "unknown-command", "bad-int", "removed-h0",
            "removed-levels", "removed-h", "removed-a", "removed-a-ratio", "removed-const-tol",
            "removed-residual-step", "removed-residual-tol", "removed-tol", "removed-max-iter",
            "abbreviated-window-T", "abbreviated-family"])
    def test_parse_errors_carry_argparse_message(self, argv, message, capsys):
        code, report = run(argv)
        assert code == 2 and report.status == "input-error" and report.command == ""
        error = report.diagnostics["error"]
        assert error.startswith(f"InputError: {message}")
        out, err = capsys.readouterr()
        assert (out.splitlines(), err) == (["reccost: input-error", f"  {error}"], "")

    @pytest.mark.parametrize("argv, message", [
        (["defect", "--family", "quadlog", "--t", "1e308", "--u", "-1e308"],
         "RangeOverflowError: t - u at t = 1e+308, u = -1e+308 is inf, which overflows double "
         "precision"),
        (["sup-defect", "--family", "cosh", "--step", "-1e-3"],
         "DomainError: grid step must satisfy 0 < step <= 2.0, got -0.001"),
        (["eval", "--x", "-inf"],
         "DomainError: positive ratio must be positive and finite, got -inf"),
    ], ids=["defect-u", "sup-defect-step", "eval-x"])
    def test_negative_values_in_exponent_form_reach_the_handler(self, argv, message, capsys):
        # argparse's own pattern for a negative number has no exponent and no inf, so
        # -1e308 once read as an unknown option and left --u with "expected one argument"
        code, report = run(argv)
        assert code == 2 and report.command == argv[0]
        assert report.diagnostics["error"].startswith(message)

    @pytest.mark.parametrize("argv", [
        ["defect", "--family", "cosh", "--t", "0.5", "--u", "0.25", "--x", "3"],
        ["defect", "--family", "cosh", "--x", "2", "--y", "3", "--t", "0.5", "--u", "0.25"],
    ], ids=["log-line-x", "ratio-t-u"])
    def test_a_flag_the_domain_does_not_read_is_refused(self, argv, capsys):
        # a pair and a flag of the other pair name no one equation
        code, report = run(argv)
        assert code == 2 and report.results is None
        assert report.diagnostics["error"].startswith("InputError: defect needs one coordinate pair")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_no_subcommand_takes_a_domain(self, command, capsys):
        # the command, a table's header or defect's pair names the coordinates
        code, report = run([*EXAMPLES[command], "--domain", "log-line"])
        assert code == 2 and report.results is None
        assert report.diagnostics["error"] == "InputError: unrecognized arguments: --domain log-line"


class TestTableWorkflows:
    def test_classify_quadlog_samples_fails(self, tmp_path, capsys):
        path = write_quadlog_csv(tmp_path / "quad.csv")
        code, report = run(["classify", "--input", path])
        out = capsys.readouterr().out
        assert code == 1
        assert report.results == {
            "classified": False,
            "reason": report.results["reason"],
        }
        assert "not near any branch" in out

    def test_classify_cosh_samples_ok(self, tmp_path, capsys):
        path = write_cosh_csv(tmp_path / "cosh.csv")
        code, report = run(["classify", "--input", path])
        assert code == 0
        assert report.results["branch"] == "Cosh"
        assert abs(report.results["k"] - 1.0) <= 1e-4

    def test_certify_table_takes_the_interpolants_K(self, tmp_path, capsys):
        from reccost.stability import estimate_bounds

        path = write_cosh_csv(tmp_path / "cosh.csv")
        out = tmp_path / "r.json"
        code, _ = run(["certify", "--input", path, "--T", "1.2", "--step", "0.05",
                       "--json", str(out)])
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert code == 0
        assert "warnings" not in payload["diagnostics"]
        _, K = estimate_bounds(load_samples(path), 1.2)
        assert payload["results"]["inputs"]["K"] == K

    def test_ratio_table_lifted_for_log_command(self, tmp_path, capsys):
        xs = np.exp(np.linspace(-2.5, 2.5, 1001))
        rows = "\n".join(f"{float(x)!r},{float((x - 1.0) ** 2 / (2 * x))!r}" for x in xs)
        p = tmp_path / "j.csv"
        p.write_text("x,F\n" + rows + "\n", encoding="utf-8")
        code, report = run(["sup-defect", "--input", str(p), "--T", "1", "--step", "0.1"])
        assert code == 0
        assert report.results["epsilon"] <= 1e-6
        assert "notes" in report.diagnostics

    def test_log_table_projected_for_ratio_command(self, tmp_path, capsys):
        # the sweeps of T = 2 read the table on [-4, 4]
        path = write_cosh_csv(tmp_path / "cosh.csv", lo=-4.5, hi=4.5, n=1801)
        code, report = run(["certify-ratio", "--input", path])
        assert code == 0
        assert "domain" not in report.inputs
        assert report.diagnostics["notes"] == [
            "source projected to ratio coordinates (F = H(ln x) - 1)"]

    @pytest.mark.parametrize("write", [write_cosh_csv, write_cosh_ratio_csv], ids=["t,H", "x,F"])
    def test_calibrate_reads_the_tables_own_curvature(self, write, tmp_path, capsys):
        # the interpolant's H''(0), on the log line for both headers
        path = write(tmp_path / "table.csv")
        table = load_samples(path)
        if table.domain == POSITIVE_RATIOS:
            table = handles.lift_to_log(table)
        code, report = run(["calibrate", "--input", path])
        assert (code, report.results) == (0, {"kappa": table.derivative(0.0, 2)})

    @pytest.mark.parametrize("argv", [["calibrate"], ["classify", "--window-T", "0.003"]],
                             ids=["calibrate", "classify"])
    def test_a_steep_table_names_its_curvature_overflow(self, argv, tmp_path, capsys):
        # every row is finite, H(0) reads its row, 1.0, and H''(0) overflows; a spline once
        # read NaN at six nodes, t = 0 among them
        with np.errstate(over="ignore"):
            code, report = run([argv[0], "--input", write_steep_csv(tmp_path), *argv[1:]])
        assert (code, report.diagnostics["error"]) == (
            2, "RangeOverflowError: steep.csv: H''(0) is inf, which overflows double precision")

    @pytest.mark.parametrize("command, message", [
        ("classify", "steep.csv: classify needs evaluability on [-window_T, window_T] = [-2, 2]"),
        ("certify", "steep.csv: certify needs evaluability on [-2T, 2T] = [-4, 4]"),
        ("certify-ratio", "ratio(steep.csv): certify_ratio needs evaluability on "
         "[e^-2T, e^2T] = [0.0183156, 54.5982]"),
        ("sup-defect", "steep.csv: sup_defect needs evaluability on [-2T, 2T] = [-4, 4]"),
        ("identities", "steep.csv: identity_report needs evaluability on [-2T, 2T] = [-4, 4]"),
        ("report", "narrow.csv: sup_defect needs evaluability on [-2T, 2T] = [-4, 4]"),
    ], ids=["classify", "certify", "certify-ratio", "sup-defect", "identities", "report"])
    def test_a_table_narrower_than_the_window_names_the_window(self, command, message,
                                                               tmp_path, capsys):
        # the default window_T = 2 and T = 2 reach past the table's [-0.003, 0.003], or
        # [-1, 1]; each command names its own window, in the coordinates it reads the table
        # in.  report reads H''(0) before its sweep, and steep.csv's overflows, so it runs on a
        # cosh table
        path = (write_cosh_csv(tmp_path / "narrow.csv", lo=-1.0, hi=1.0, n=201)
                if command == "report" else write_steep_csv(tmp_path))
        code, report = run([command, "--input", path])
        assert (code, report.diagnostics["error"]) == (2, f"DomainError: {message}")

    @pytest.mark.parametrize("half, verified", [(0.05, True), (0.15, True), (0.25, True),
                                                (0.4, False)], ids=["0.05", "0.15", "0.25", "0.4"])
    def test_certify_ratio_of_a_log_table_is_certify(self, half, verified, tmp_path, capsys):
        # the projection and certify_ratio's lift retag one t-support, so the ratio command
        # reads the table on the same [-2T, 2T] as certify; its ends once drifted by an ulp.
        # At half = 0.4 the sweep step equals the table's spacing, so epsilon is read only at
        # the spline's knots (ROADMAP item 2): epsilon = 5.3e-16 misses the interpolant's own
        # defect, and against the branch of its H''(0) = 0.9999947 the error breaks the envelope
        ts = np.linspace(-half, half, 101)
        ts = 0.5 * (ts - ts[::-1])  # bitwise symmetric
        path = tmp_path / "cosh.csv"
        path.write_text("t,H\n" + "".join(f"{float(t)!r},{math.cosh(float(t))!r}\n" for t in ts),
                        encoding="utf-8")
        flags = ["--input", str(path), "--T", repr(half / 2), "--step", repr(half / 50)]
        code, log = run(["certify", *flags])
        assert (code, log.results["verified"]) == (0 if verified else 1, verified)
        ratio_code, ratio = run(["certify-ratio", *flags])
        assert ratio_code == code and ratio.results == log.results


class TestDefectCoordinates:
    """defect answers in the equation its coordinate pair names, whatever the source."""

    LIFTED = ["source lifted to log coordinates (H = F(e^t) + 1)"]
    PROJECTED = ["source projected to ratio coordinates (F = H(ln x) - 1)"]

    @pytest.mark.parametrize("family", ["cosh", "cos-k,k=0.5"], ids=["ratio-family", "log-family"])
    @pytest.mark.parametrize("pair", [("--t", 1.0, "--u", 0.5), ("--x", 2.0, "--y", 3.0)],
                             ids=["t-u", "x-y"])
    def test_a_family_is_built_in_the_pairs_coordinates(self, family, pair, capsys):
        code, report = run(["defect", "--family", family, *map(str, pair)])
        domain, defect = ((LOG_LINE, dalembert.defect_log) if pair[0] == "--t"
                          else (POSITIVE_RATIOS, dalembert.defect_ratio))
        handle = fixtures.make_family(fixtures.parse_family_spec(family), domain)
        assert code == 0 and report.diagnostics == {}
        assert report.results["delta"] == defect(handle, pair[1], pair[3])

    def test_a_log_table_answers_ratio_coordinates_through_to_ratio(self, tmp_path, capsys):
        path = write_cosh_csv(tmp_path / "cosh.csv")
        code, report = run(["defect", "--input", path, "--x", "1.5", "--y", "1.2"])
        assert code == 0 and report.diagnostics == {"notes": self.PROJECTED}
        table = handles.to_ratio(load_samples(path))
        assert report.results["delta"] == dalembert.defect_ratio(table, 1.5, 1.2)
        code, report = run(["defect", "--input", path, "--t", "1", "--u", "0.5"])
        assert code == 0 and report.diagnostics == {}
        assert report.results["delta"] == dalembert.defect_log(load_samples(path), 1.0, 0.5)

    def test_a_ratio_view_answers_every_x_whose_log_is_in_the_support(self, capsys):
        # quadlog's support is |t| <= 1e150; x was once clamped to [e^-708, e^708]
        code, report = run(["defect", "--family", "quadlog", "--x", "1e308", "--y", "1"])
        assert (code, report.results) == (0, {"delta": 0.0})

    def test_a_ratio_table_answers_log_coordinates_through_lift_to_log(self, tmp_path, capsys):
        path = write_cosh_ratio_csv(tmp_path / "j.csv")
        code, report = run(["defect", "--input", path, "--t", "1", "--u", "0.5"])
        assert code == 0 and report.diagnostics == {"notes": self.LIFTED}
        table = handles.lift_to_log(load_samples(path))
        assert report.results["delta"] == dalembert.defect_log(table, 1.0, 0.5)


class TestReports:
    def test_json_schema(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code, _ = run(["eval", "--x", "2", "--json", str(out)])
        assert code == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert sorted(payload.keys()) == sorted(
            ["command", "inputs", "results", "diagnostics", "status"]
        )
        assert payload["status"] == "ok"
        assert payload["results"]["J"] == 0.25

    def test_input_error_reports_carry_no_results(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code, report = run(["eval", "--x", "-2", "--json", str(out)])
        assert code == 2
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["results"] is None
        assert payload["status"] == "input-error"

    def test_seventeen_digit_output(self, capsys):
        run(["eval", "--x", "2"])
        out = capsys.readouterr().out
        assert "0.69314718055994529" in out  # ln 2 at 17 significant digits

    def test_long_list_prints_its_ends(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code, report = run(["chebyshev", "--x", "1", "--n", "100000", "--json", str(out)])
        line = [s for s in capsys.readouterr().out.splitlines() if "sequence" in s]
        assert code == 0
        assert line == ["  sequence = [1, 1, 1, 1, 1, ..., 1, 1, 1, 1, 1] (100001 entries)"]
        assert json.loads(out.read_text(encoding="utf-8"))["results"]["sequence"] == [1.0] * 100001
        run(["chebyshev", "--x", "2", "--n", "9"])  # ten entries are all printed
        assert "  sequence = [1, 1.25, 2.125, 4.0625, 8.03125, 16.015625, 32.0078125, " \
            "64.00390625, 128.001953125, 256.0009765625]\n" in capsys.readouterr().out

    @pytest.mark.parametrize("command", COMMANDS)
    def test_every_command_writes_json(self, command, tmp_path, capsys):
        out = tmp_path / "r.json"
        code, report = run([*EXAMPLES[command], "--json", str(out)])
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert code == 0 and payload["command"] == command
        assert payload["results"] == report.results

    @pytest.mark.parametrize("argv", [
        *(pytest.param(argv, id="roundtrip-" + argv[0]) for argv in EXAMPLES.values()),
        pytest.param(["sup-defect", "--input", "TABLE", "--T", "1.2", "--step", "0.05"],
                     id="roundtrip-table"),
        pytest.param(["defect", "--family", "cosh", "--t", "0.5", "--u", "0.25"],
                     id="roundtrip-defect-log-line"),
        pytest.param(["certify-ratio", "--family", "noisy-cosh", "--T", "2", "--step", "0.05"],
                     id="roundtrip-certify-ratio-log-line-source"),
    ])
    def test_round_trip_determinism(self, argv, tmp_path, capsys):
        table = write_cosh_csv(tmp_path / "cosh.csv")
        argv = [table if arg == "TABLE" else arg for arg in argv]
        code1, report1 = run(argv)
        assert code1 == 0
        if "--input" in argv:  # the table's header names its domain, which is not echoed
            assert list(report1.inputs.items()) == [("input", table), ("T", 1.2), ("step", 0.05)]
        rebuilt = [argv[0]]
        for key, value in report1.inputs.items():
            rebuilt += [f"--{key}", repr(value) if isinstance(value, float) else str(value)]
        code2, report2 = run(rebuilt)
        assert code2 == code1
        assert report2.results == report1.results

    def test_plot_csv(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        code, report = run(
            ["certify", "--family", "cosh", "--T", "1", "--step", "0.1", "--plot-csv", str(out)]
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "t,H,branch,envelope,error"
        data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        # error column consistent with |H - branch|, envelope dominates
        assert np.max(np.abs(np.abs(data[:, 1] - data[:, 2]) - data[:, 4])) <= 1e-15
        assert np.min(data[:, 3] - data[:, 4]) >= 0.0

    @pytest.mark.parametrize("command", ["sup-defect", "identities", "certify", "certify-ratio",
                                         "report"])
    def test_grid_echo_is_the_grid_used(self, command, capsys):
        code, report = run([command, "--family", "cosh", "--T", "2", "--step", "0.03"])
        assert code == 0
        assert report.inputs["step"] == 0.03
        assert report.diagnostics["grid"] == {"T": 2.0, "step": 2.0 / 67}

    def test_plot_rows_are_the_certificate_nodes(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        family = "noisy-cosh,amplitude=1e-3,mode=sine,freq=5"
        code, report = run(["certify", "--family", family, "--T", "2", "--step", "0.03",
                            "--plot-csv", str(out)])
        rows = np.array([[float(v) for v in ln.split(",")]
                         for ln in out.read_text(encoding="utf-8").splitlines()[1:]])
        assert np.allclose(rows[:, 0] * 67 / 2, np.round(rows[:, 0] * 67 / 2), rtol=0, atol=1e-9)
        assert float(np.max(rows[:, 4])) == report.results["max_observed_error"]
        assert float(np.min(rows[:, 3] - rows[:, 4])) == report.results["max_envelope_margin"]

    def test_report_command_sections(self, capsys):
        code, report = run(["report", "--family", "cosh", "--T", "2", "--step", "0.1"])
        assert code == 0
        assert list(report.results) == ["sup_defect", "curvature", "classification",
                                        "certificate"]
        assert report.results["classification"]["branch"] == "Cosh"
        assert report.results["certificate"]["verified"] is True

    def test_report_sweeps_the_defect_once(self, monkeypatch, capsys):
        # certify reuses the sup_defect report that the report command already has, and no
        # verdict reads the identities, so report runs no identity sweep
        from reccost import dalembert

        calls = []
        sweep = dalembert.sup_defect
        monkeypatch.setattr(dalembert, "sup_defect", lambda *a: calls.append(a) or sweep(*a))
        monkeypatch.setattr(dalembert, "identity_report", lambda *a: pytest.fail("swept"))
        monkeypatch.setattr("reccost.stability.sup_defect", dalembert.sup_defect)
        code, report = run(["report", "--family", "cosh", "--T", "2", "--step", "0.1"])
        assert code == 0 and len(calls) == 1
        epsilon = report.results["sup_defect"]["epsilon"]
        assert report.results["certificate"]["inputs"]["epsilon"] == epsilon

    @pytest.mark.parametrize("T, step", [(0.4, 0.01), (2.0, 0.1)])
    def test_report_prints_the_curvature_its_stages_use(self, capsys, T, step):
        # classify and certify use the curvature the report prints, H''(0) = 4, at every T
        code, report = run(["report", "--family", "cosh-lambda,lambda=2", "--T", str(T),
                            "--step", str(step)])
        assert code == 0
        kappa = report.results["curvature"]["kappa"]
        assert kappa == 4.0 == report.results["certificate"]["inputs"]["a"]
        assert kappa == report.results["classification"]["kappa_used"]

    def test_report_records_a_classify_window_refusal(self, capsys):
        # past COSH_T_MAX classify refuses its default threshold; the other sections still run
        code, report = run(["report", "--family", "quadlog", "--T", "705", "--step", "5"])
        assert code == 1 and report.status == "verification-failed"
        for section in ("sup_defect", "curvature", "certificate"):
            assert "error" not in report.results[section]
        assert report.results["sup_defect"]["epsilon"] == 123516925312.5
        assert report.results["classification"]["classified"] is False
        assert report.results["classification"]["reason"].startswith(
            "window_T is 705.0, outside cosh's range [-700, 700]")

    @pytest.mark.parametrize("family, T", [("cosh-lambda,lambda=100", "3"),
                                           ("powerlaw-w,lambda=170", "2")])
    def test_report_records_an_identity_overflow(self, family, T, capsys):
        # G is finite on every node, but H(t+u) H(t-u) and H^2 overflow: identities refuses the
        # input, and report, which runs no identity sweep, answers with its four sections
        grid = ["--family", family, "--T", T, "--step", "0.5"]
        code, ids = run(["identities", *grid])
        assert code == 2 and ids.diagnostics["error"].startswith("RangeOverflowError: ")
        code, report = run(["report", *grid])
        assert code == 0 and report.status == "ok"
        assert list(report.results) == ["sup_defect", "curvature", "classification",
                                        "certificate"]
        assert report.results["classification"]["branch"] == "Cosh"
        assert math.isfinite(report.results["sup_defect"]["epsilon"])

    def test_report_refuses_zero_by_its_normalization(self, capsys):
        # zero's H(0) = 0, so its H''(0) = 0 is no calibration (a ladder of 2 G(s) / s^2 once
        # read -160 +- 128 from it); report refuses it before its sweep, as certify does
        code, report = run(["report", "--family", "zero", "--T", "2", "--step", "0.5"])
        assert (code, report.results) == (2, None)
        assert report.diagnostics["error"] == ("PreconditionError: H(0) = 0.0 violates the "
                                               "normalization H(0) = 1 (tolerance 1e-06)")

    def test_classify_finds_a_fast_cos_branch(self, capsys):
        code, report = run(["classify", "--family", "cos-k,k=30", "--window-T", "2"])
        assert code == 0 and report.results["branch"] == "Cos"
        assert abs(report.results["k"] - 30.0) <= 1e-9 * 30.0

    def test_report_sections_match_single_commands(self, capsys):
        source = ["--family", "cosh-lambda,lambda=2"]
        grid = source + ["--T", "2", "--step", "0.1"]
        report = run(["report"] + grid)[1].results
        cal = run(["calibrate"] + source)[1].results
        cert = run(["certify"] + grid)[1].results
        assert report["sup_defect"] == run(["sup-defect"] + grid)[1].results
        assert report["curvature"] == cal == {"kappa": 4.0}
        assert report["classification"] == run(["classify", "--window-T", "2"] + source)[1].results
        assert list(report["certificate"]) + ["envelope"] == list(cert)
        assert report["certificate"] == {k: cert[k] for k in report["certificate"]}

    @pytest.mark.parametrize("spec", [
        "cosh", "cosh-lambda,lambda=10", "cosh-lambda,lambda=100", "powerlaw-w,lambda=170",
        "cos-k,k=30", f"cos-k,k={8 * math.pi!r}", "noisy-cosh,amplitude=1e20",
        "noisy-cosh,mode=trig", "quadlog", "zero", "constant-one"])
    def test_calibrate_answers_what_report_answers(self, spec, capsys):
        # one number, H''(0), with no step and no window; or, for zero, one refusal
        cal = run(["calibrate", "--family", spec])[1]
        report = run(["report", "--family", spec, "--T", "2", "--step", "0.5"])[1]
        if cal.results is None:
            assert (report.results, report.diagnostics) == (None, cal.diagnostics)
        else:
            assert report.results["curvature"] == cal.results

    @pytest.mark.parametrize("spec, kappa", [
        ("cosh-lambda,lambda=1e6", 1e12), ("powerlaw-w,lambda=1e3", 1e6),
        ("powerlaw-w,lambda=1e4", 1e8)])
    def test_calibrate_answers_a_family_of_narrow_support(self, spec, kappa, capsys):
        # these are evaluable on [-700/lambda, 700/lambda] alone: a ladder from h0 = 0.25
        # beyond it was once refused before it was measured
        code, report = run(["calibrate", "--family", spec])
        assert (code, report.results) == (0, {"kappa": kappa})

    def test_report_records_bounds_that_are_not_finite(self, capsys):
        # K reads -a f^3 sin(f t), whose f^3 overflows, while H''(0) = a f^2 = 1e237 is finite;
        # the certificate refuses, the rest stands
        code, report = run(["report", "--family", "noisy-cosh,freq=1e120", "--T", "2",
                            "--step", "0.5"])
        assert code == 1
        assert list(report.results) == ["sup_defect", "curvature", "classification",
                                        "certificate"]
        assert report.results["certificate"] == {"error": (
            "noisy-cosh(1,sine,0.001): K = sup |H'''| on [-T, T] is nan, which overflows double "
            "precision")}

    def test_report_refuses_a_curvature_that_overflows(self, capsys):
        # H''(0) = a f^2 = 1e397 overflows: the curvature section has no answer to record
        code, report = run(["report", "--family", "noisy-cosh,freq=1e200", "--T", "2",
                            "--step", "0.5"])
        assert code == 2 and report.results is None
        assert report.diagnostics["error"] == ("RangeOverflowError: noisy-cosh(1,sine,0.001): "
                                               "H''(0) is inf, which overflows double precision")

    def test_classify_plot_csv_uses_fitted_branch(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        code, report = run(["classify", "--family", "cos-k,k=1.5", "--plot-csv", str(out)])
        assert code == 0 and report.results["branch"] == "Cos"
        rows = np.array([[float(v) for v in ln.split(",") if v]
                         for ln in out.read_text(encoding="utf-8").splitlines()[1:]])
        # the t column is classify's own residual grid, [-2, 2] at 2/100
        assert np.array_equal(rows[:, 0], grids.symmetric_grid(2.0, 2.0 / 100)[1])
        assert np.array_equal(rows[:, 2], np.cos(report.results["k"] * rows[:, 0]))

    def test_classify_plot_csv_evaluates_the_residual_grid_once(self, tmp_path, monkeypatch,
                                                               capsys):
        sizes = []  # of the abscissa arrays the handle is called on
        call = handles.FunctionHandle.__call__
        monkeypatch.setattr(handles.FunctionHandle, "__call__",
                            lambda h, z: sizes.append(np.size(z)) or call(h, z))
        out = tmp_path / "c.csv"
        code, report = run(["classify", "--family", "cosh", "--plot-csv", str(out)])
        assert code == 0 and report.results["branch"] == "Cosh"
        assert sizes.count(201) == 1 and len(out.read_text(encoding="utf-8").splitlines()) == 202
        rows = np.array([[float(v) for v in ln.split(",") if v]
                         for ln in out.read_text(encoding="utf-8").splitlines()[1:]])
        # the H column is what the handle gives on the grid
        h = fixtures.make_family(fixtures.FamilySpec("cosh-lambda"), LOG_LINE)
        assert np.array_equal(rows[:, 1], call(h, rows[:, 0]))

    @pytest.mark.parametrize("command", ["certify", "certify-ratio"])
    def test_certify_plot_csv_evaluates_the_window_once(self, command, tmp_path, monkeypatch,
                                                       capsys):
        sizes = []  # of the abscissa arrays the handle is called on
        call = handles.FunctionHandle.__call__
        monkeypatch.setattr(handles.FunctionHandle, "__call__",
                            lambda h, z: sizes.append(np.size(z)) or call(h, z))
        out = tmp_path / "p.csv"
        code, report = run([command, "--family", "cosh", "--T", "2", "--step", "0.05",
                            "--plot-csv", str(out)])
        assert code == 0 and report.results["verified"] is True
        # the axis of [-2, 2] at 0.05 and estimate_bounds' grid at T/1000; the plotted
        # window is a slice of the axis, never evaluated again
        assert sorted(n for n in sizes if n > 1) == [81, 2001]
        rows = np.array([[float(v) for v in ln.split(",")]
                         for ln in out.read_text(encoding="utf-8").splitlines()[1:]])
        axis = grids.symmetric_grid(2.0, 0.05)[1]
        half = report.results["inputs"]["T"] - report.results["inputs"]["h"]
        assert np.array_equal(rows[:, 0], axis[np.abs(axis) <= half])
        # a lifted ratio handle keeps the log-line excess stack, so one reference serves both
        h = fixtures.make_family(fixtures.FamilySpec("cosh-lambda"), LOG_LINE)
        assert np.array_equal(rows[:, 1], call(h, rows[:, 0]))


def test_calibrate_reads_a_fast_perturbation_exactly(capsys):
    # 1e-3 (1 - cos(50 t)) adds 1e-3 50^2 to H''(0); a ladder of steps 0.25 2^-k did not
    # resolve it, and stopped its extrapolation after the second level
    code, report = run(["calibrate", "--family", "noisy-cosh,amplitude=1e-3,mode=sine,freq=50"])
    assert (code, report.results, report.diagnostics) == (0, {"kappa": 3.5}, {})


def test_py_turns_numpy_values_into_plain_python():
    value = {"a": np.float64(0.5), "b": (np.int64(3), np.bool_(True)), "c": np.array([[1.0, 2.0]])}
    out = _py(value)
    assert out == {"a": 0.5, "b": [3, True], "c": [[1.0, 2.0]]}
    assert [type(v) for v in (out["a"], *out["b"], out["c"][0][0])] == [float, int, bool, float]


_COSH = fixtures.make_family(fixtures.FamilySpec("cosh-lambda"), LOG_LINE)


@pytest.mark.parametrize("make", [
    lambda: dalembert.sup_defect(_COSH, 2.0, 0.1),  # nests a DefectSample
    lambda: dalembert.identity_report(_COSH, 2.0, 0.1),
    lambda: calibration.classify(_COSH, window_T=2.0),
    lambda: stability.certify(_COSH, 2.0, 0.05).inputs,
    lambda: stability.certify(_COSH, 2.0, 0.05).envelope,
    lambda: geometry.distance(1.0, 3.0, 1e-10),
    lambda: geometry.chebyshev_cost(2.0, 5),
    lambda: core.log_forms(0.5),
    lambda: core.golden_fixed_point(1.0),
], ids=["DefectReport", "IdentityViolations", "BranchClassification",
        "StabilityInputs", "EnvelopeSpec", "DistanceResult", "ChebyshevCheck", "LogForms",
        "GoldenResult"])
def test_py_reads_every_record_as_asdict_does(make):
    # key order included: the JSON report lists a record's fields in declaration order
    record = make()
    plain = record._asdict() if isinstance(record, tuple) else dataclasses.asdict(record)
    assert json.dumps(_py(record)) == json.dumps(_py(plain))


def test_the_subcommands_are_named_alike_everywhere():
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    sentence = re.search(r"exposes the subcommands(.*?)\.", readme, re.S).group(1)
    readme_reports = load_script("readme_reports")
    assert len(COMMANDS) == 12
    assert re.findall(r"`([a-z-]+)`", sentence) == COMMANDS
    assert sorted({argv[0] for argv in readme_reports.EXAMPLES.values()}) == sorted(COMMANDS)
    assert list(EXAMPLES) == COMMANDS


def parsed(parser, argv, capsys):
    """What parsing argv leaves (its namespace but the handler, argparse's error message, or
    --help's exit code) and what it printed."""
    try:
        got = {k: v for k, v in vars(parser.parse_args(argv)).items() if k != "handler"}
    except InputError as exc:
        got = str(exc)
    except SystemExit as exc:
        got = exc.code
    return got, capsys.readouterr()


@pytest.mark.parametrize("command", COMMANDS)
def test_the_parser_of_one_subcommand_parses_as_the_whole_one(command, capsys):
    one, whole = build_parser(command), build_parser()
    assert subcommands(one) == [command] and subcommands(whole) == COMMANDS
    for argv in ([*EXAMPLES[command]], [command], [command, "--help"], [command, "--frobnicate"],
                 [command, "--json"], [*EXAMPLES[command], "--T", "x"], [command, "report"]):
        assert parsed(one, argv, capsys) == parsed(whole, argv, capsys)


@pytest.mark.parametrize("argv, built", [
    (EXAMPLES["report"], ["report"]),
    (["eval", "--x", "2", "--frobnicate"], ["eval"]),
    (["--help"], ["--help"]),
    (["no-such-command"], ["no-such-command"]),
    ([], [None]),
], ids=["report", "parse-error", "help", "unknown-command", "empty"])
def test_a_run_builds_the_parser_of_the_subcommand_it_names(argv, built, monkeypatch, capsys):
    # any other first argument builds the whole parser, for --help and argparse's messages
    calls, build = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: calls.append(command)
                        or build(command))
    run(argv)
    assert calls == built


@pytest.mark.parametrize("first", ["--help", "no-such-command"])
def test_any_other_first_argument_builds_the_whole_parser(first):
    assert subcommands(build_parser(first)) == COMMANDS


def test_py_turns_named_tuples_into_dicts_in_field_order():
    out = _py([core.GoldenResult(phi=1.5, iterations=3, cost_at_phi=np.float64(0.25))])
    assert out == [{"phi": 1.5, "iterations": 3, "cost_at_phi": 0.25}]
    assert list(out[0]) == ["phi", "iterations", "cost_at_phi"]
    assert type(out[0]["cost_at_phi"]) is float


@pytest.mark.parametrize("results, message", [
    ({"x": [core.GoldenResult(1.5, 3, 0.25), core.GoldenResult(math.nan, 3, 0.25)]},
     "results.x[1].phi = nan is not an answer"),
    ({"y": np.array([1.0, np.inf])}, "results.y[1] = inf is not an answer"),
], ids=["named-tuple-in-list", "array"])
def test_py_refuses_a_leaf_that_is_not_finite_by_its_path(results, message):
    with pytest.raises(DomainError) as info:
        _py(results, "results")
    assert str(info.value) == message
    assert _py(results, "") == _py(results)  # with no path, as for diagnostics, nothing is checked


class TestModuleInvocation:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "reccost", "eval", "--x", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "J = 0.25" in proc.stdout

    def test_unknown_flag_exits_two(self):
        proc = subprocess.run(
            [sys.executable, "-m", "reccost", "eval", "--x", "2", "--frobnicate"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2

    def test_distance_refuses_tol(self):
        # distance's value holds whatever tol is, so the command takes no --tol
        proc = subprocess.run([sys.executable, "-m", "reccost", "distance", "--x", "1", "--y", "3",
                               "--tol", "1e-10"], capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (2, "")
        assert "InputError: unrecognized arguments: --tol 1e-10" in proc.stdout

    @pytest.mark.parametrize("argv, code, message", [
        # t^4 overflows on the window, so the fit and the residual read inf
        (["classify", "--family", "noisy-cosh,mode=poly4,amplitude=1e300", "--window-T", "300"],
         1, "reason = not near any branch: sup residual inf vs Cosh(k=1.3)"),
        (["sup-defect", "--family", "noisy-cosh,freq=1e308"], 2, ""),
        (["report", "--family", "cosh-lambda,lambda=100", "--T", "3", "--step", "0.5"], 0,
         "classification.branch = Cosh\n  classification.k = 100\n"),
        (["identities", "--family", "powerlaw-w,lambda=170", "--T", "2", "--step", "0.5"], 2,
         "RangeOverflowError: powerlaw-w(170): identity_report, with max |G| = "
         "1.045244036805178e+295 on [-2T, 2T] = [-4, 4], is nan, which overflows double precision"),
        (["identities", "--family", "cosh-lambda,lambda=100", "--T", "3", "--step", "0.5"], 2,
         "RangeOverflowError: cosh-lambda(100): identity_report, with max |G| = "
         "1.8865101504649698e+260 on [-2T, 2T] = [-6, 6], is nan, which overflows double "
         "precision"),
        (["report", "--family", "powerlaw-w,lambda=170", "--T", "2", "--step", "0.5"], 0,
         "classification.branch = Cosh\n  classification.k = 170\n"),
        *[([cmd, "--family", "noisy-cosh,amplitude=1e300", "--T", "2", "--step", "0.5"], 2,
           "RangeOverflowError: noisy-cosh(1,sine,1e+300): sup_defect, with max |G| = "
           "1.8390715290764525e+300 on [-2T, 2T] = [-4, 4], is inf, which overflows double "
           "precision")
          for cmd in ("certify", "sup-defect", "report")],
        (["defect", "--family", "noisy-cosh,amplitude=1e300", "--t", "1", "--u", "1"], 2,
         "RangeOverflowError: noisy-cosh(1,sine,1e+300): defect_log, with max |G| = "
         "1.8390715290764525e+300, is -inf, which overflows double precision"),
        (["defect", "--family", "noisy-cosh,amplitude=1e300", "--x", "2", "--y", "3"], 2,
         "RangeOverflowError: noisy-cosh(1,sine,1e+300): defect_ratio, with max |G| = "
         "1.9479239466377266e+300, is -inf, which overflows double precision"),
        (["certify", "--family", "cosh-lambda,lambda=350", "--T", "1", "--step", "0.25"], 2,
         "RangeOverflowError: (1 + B) K at B = 5.035454435140399e+151, K = "
         "2.158951089066446e+159 is inf, which overflows double precision"),
        (["report", "--family", "cosh-lambda,lambda=350", "--T", "1", "--step", "0.25"], 1,
         "certificate.error = (1 + B) K at B = 5.035454435140399e+151, K = "
         "2.158951089066446e+159 is inf, which overflows double precision"),
        (["certify", "--family", "noisy-cosh,freq=1e200", "--T", "2", "--step", "0.5"], 2,
         "RangeOverflowError: noisy-cosh(1,sine,0.001): K = sup |H'''| on [-T, T] is nan, which "
         "overflows double precision"),
        (["report", "--family", "noisy-cosh,freq=1e120", "--T", "2", "--step", "0.5"], 1,
         "certificate.error = noisy-cosh(1,sine,0.001): K = sup |H'''| on [-T, T] is nan, "
         "which overflows double precision"),
        # quadlog reads on |t| <= 1e150, but T is past cosh's range, and so e^T at 710
        (["certify-ratio", "--family", "quadlog", "--T", "800", "--step", "100"], 2,
         "RangeOverflowError: T is 800.0, outside cosh's range [-700, 700]"),
        (["certify-ratio", "--family", "quadlog", "--T", "705", "--step", "5"], 2,
         "RangeOverflowError: T is 705.0, outside cosh's range [-700, 700]"),
        # H''(0) = 1 + a f^2 = 1.25e309 = inf: the curvature overflows, as calibrate's does
        (["classify", "--family", "noisy-cosh,amplitude=5e307", "--window-T", "2"], 2,
         "RangeOverflowError: noisy-cosh(1,sine,5e+307): H''(0) is inf, which overflows double "
         "precision"),
        # a reach past 4.3e155 once overflowed a curvature ladder's own check, (reach / 32)^2
        (["calibrate", "--family", "cosh-lambda,lambda=1e-300"], 0, "  kappa = 0\n"),
        (["classify", "--family", "cosh-lambda,lambda=1e-300"], 0, "  branch = ConstantOne\n"),
        (["certify", "--family", "cosh-lambda,lambda=1e-300"], 2,
         "PreconditionError: curvature a = 0.0 violates the hypothesis a > 0"),
        (["certify-ratio", "--family", "cosh-lambda,lambda=1e-300"], 2,
         "PreconditionError: curvature a = 0.0 violates the hypothesis a > 0"),
        (["report", "--family", "cosh-lambda,lambda=1e-300"], 1,
         "certificate.error = curvature a = 0.0 violates the hypothesis a > 0"),
        (["calibrate", "--family", "powerlaw-w,lambda=1e-200"], 0, "  kappa = 0\n"),
        (["calibrate", "--family", "noisy-cosh,lambda=1e-200"], 0,
         "  kappa = 0.025000000000000001\n"),
    ], ids=["classify", "sup-defect", "report", "identities", "identities-cosh-lambda",
            "report-powerlaw-w", "certify-amplitude",
            "sup-defect-amplitude", "report-amplitude", "defect-t-u-amplitude",
            "defect-x-y-amplitude", "certify-b-k", "report-b-k", "certify-k-nan", "report-k-nan",
            "certify-ratio-window", "certify-ratio-window-705", "classify-kappa",
            "calibrate-tiny-lambda", "classify-tiny-lambda", "certify-tiny-lambda",
            "certify-ratio-tiny-lambda", "report-tiny-lambda", "calibrate-powerlaw-w-tiny-lambda",
            "calibrate-noisy-cosh-tiny-lambda"])
    def test_overflow_warnings_stay_off_stderr(self, argv, code, message):
        # each run answers or exits 2 with a message; numpy's RuntimeWarnings once followed it;
        # report needs sup_defect's epsilon for its certificate, so its refusal ends the run
        proc = subprocess.run([sys.executable, "-m", "reccost", *argv], capture_output=True,
                              text=True)
        assert (proc.returncode, proc.stderr) == (code, "")
        assert proc.stdout.startswith(f"reccost {argv[0]}: ")
        assert message in proc.stdout  # a defect or identities that overflow are named

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("a, message", [
        (1e300, "RangeOverflowError: sqrt(a) t at a = 1e+300 and the edge t = 1.5 is "
         "1.4999999999999999e+150, outside cosh's range [-700, 700]"),
        (1e-320, "RangeOverflowError: the envelope scale delta/a at a = 1e-320, delta = "
         "9.263303130602145e-05 is inf, which overflows double precision"),
    ], ids=["certify-a-huge", "certify-a-tiny"])
    def test_an_envelope_that_overflows_is_an_input_error(self, a, message, monkeypatch,
                                                           capsys):
        # no builtin's H''(0) reaches either refusal, so the handle's curvature is patched in
        monkeypatch.setattr("reccost.stability.estimate_kappa", lambda h: a)
        code, report = run(["certify", "--family", "cosh", "--T", "2", "--step", "0.5"])
        assert (code, capsys.readouterr().err) == (2, "")
        assert report.diagnostics["error"].startswith(message)

    def test_calibrate_refuses_a_kappa_that_overflows(self, tmp_path):
        # 1 + 2e306 (cosh(10 t) - 1) on [-0.003, 0.003]: every value is finite and H(0) = 1,
        # but H''(0) = 2e308 (an H(0) of 1.7e308 is now refused first)
        rows = "".join(f"{t / 1000!r},{1 + 2e306 * (math.cosh(t / 100) - 1)!r}\n"
                       for t in range(-3, 4))
        (tmp_path / "big.csv").write_text("t,H\n" + rows, encoding="utf-8")
        proc = subprocess.run([sys.executable, "-m", "reccost", "calibrate", "--input",
                               str(tmp_path / "big.csv")], capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (2, "")
        assert proc.stdout == ("reccost calibrate: input-error\n  RangeOverflowError: big.csv: "
                               "H''(0) is inf, which overflows double precision\n")

    @pytest.mark.parametrize("argv, message", [
        (["certify", "--family", "cosh", "--T", "5e-324", "--step", "5e-324"],
         "T = 5e-324 is too narrow: T / 1000 underflows to 0"),
        (["classify", "--family", "cosh", "--window-T", "5e-324"],
         "window_T = 5e-324 is too narrow: window_T / 100 underflows to 0"),
    ], ids=["certify", "classify-smallest"])
    def test_a_window_too_narrow_for_its_grid_is_refused_by_name(self, argv, message):
        # the step of certify's bounds grid and of classify's residual grid rounds to 0: the
        # window is refused by its own name, not by a grid step of 0 that no flag gave
        proc = subprocess.run([sys.executable, "-m", "reccost", *argv], capture_output=True,
                              text=True)
        assert (proc.returncode, proc.stderr) == (2, "")
        assert proc.stdout.endswith(f"DomainError: {message}\n")

    def test_a_window_too_narrow_for_a_normal_h_squared_is_refused_by_name(self, capsys):
        # optimal_h's floor T / 100 = 1e-202 squares below the normal doubles: certify names T
        # and that h, which no flag gave, and report fails but keeps the sections that answered
        message = ("T = 1e-200 is too narrow for a certificate: its step h = 1e-202 has no "
                   "normal square")
        grid = ["--family", "cosh", "--T", "1e-200", "--step", "1e-200"]
        code, report = run(["certify", *grid])
        assert (code, report.diagnostics["error"]) == (2, f"PreconditionError: {message}")
        code, report = run(["report", *grid])
        assert code == 1 and report.results["classification"]["branch"] == "Cosh"
        assert report.results["certificate"] == {"error": message}

    def test_a_narrow_window_with_a_grid_is_classified(self):
        # [-1e-300, 1e-300] has the step 1e-302, too narrow for a curvature ladder once
        proc = subprocess.run([sys.executable, "-m", "reccost", "classify", "--family", "cosh",
                               "--window-T", "1e-300"], capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert "  branch = Cosh\n  k = 1\n" in proc.stdout

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv, code", [
        (["eval", "--x", "2"], 0),
        (["certify", "--family", ALIASED, "--T", "2", "--step", "0.1"], 1),
        (["eval", "--x", "-1"], 2),
        (["classify", "--input", "x" * 10_000], 2),  # the path twice, 20 KB: past the buffer
    ], ids=["ok", "verification-failed", "input-error", "long-summary"])
    def test_a_closed_stdout_ends_the_run_quietly(self, argv, code, unbuffered):
        # a closed pipe fails the flush at exit when stdout is block-buffered, and a print when
        # it is unbuffered or the summary outgrows its buffer
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen([sys.executable, "-m", "reccost", *argv], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(), err) == (code, b"")

    @pytest.mark.parametrize("argv, last", [
        (["certify", "--family", "cosh", "--T", "2", "--step", "0.01"],
         "  envelope.form = cosh-branch"),
        (["classify", "--input", "x" * 10_000], "x" * 10_000 + "'"),  # a 20 KB summary
    ], ids=["certify", "long-summary"])
    def test_the_fast_exit_loses_no_output(self, tmp_path, capsys, argv, last):
        # stdout to a file is block-buffered, and the process ends by os._exit, which flushes
        # nothing: every byte must already be out
        json_out, csv_out = tmp_path / "process.json", tmp_path / "process.csv"
        json_in, csv_in = tmp_path / "in-process.json", tmp_path / "in-process.csv"
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        with open(tmp_path / "stdout.txt", "wb") as out:
            proc = subprocess.run([sys.executable, "-m", "reccost", *argv, "--json", json_out,
                                   "--plot-csv", csv_out], env=env, stdout=out,
                                  stderr=subprocess.PIPE)
        code, report = run([*argv, "--json", str(json_in), "--plot-csv", str(csv_in)])
        printed = capsys.readouterr().out
        assert (proc.returncode, proc.stderr) == (code, b"")
        assert json_out.read_bytes() == json_in.read_bytes()
        stdout = (tmp_path / "stdout.txt").read_text(encoding="utf-8")
        assert stdout == printed and stdout.endswith(last + "\n")
        if report.results is None:  # a refused input writes no plot
            assert not csv_out.exists()
            return
        cosh = fixtures.make_family(fixtures.parse_family_spec("cosh"), LOG_LINE)
        nodes = stability.certify(cosh, 2.0, 0.01).grid
        rows = csv_out.read_text(encoding="utf-8").splitlines()
        assert len(rows) == 1 + nodes.size  # the header, then one row per window node
        assert [float(row.split(",")[0]) for row in rows[1:]] == nodes.tolist()
        assert csv_out.read_bytes() == csv_in.read_bytes()
