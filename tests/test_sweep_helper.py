"""The sweep helper: dalembert reduces the later half of each large defect sweep in one forked
process, reused by every later sweep, with the serial loop's results bit for bit.

Each bit-identity test compares a split sweep with the serial loop, which it forces by raising
the minimum size, and checks that the helper was asked.  The lifecycle tests start fresh
interpreters, so that a helper that outlived its process, or a sweep that hung, shows."""

import math
import os
import re
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from reccost import (
    LOG_LINE,
    ReccostError,
    analytic,
    certify,
    defect_log,
    identity_report,
    make_family,
    parse_family_spec,
    sample_table,
    sup_defect,
)
from reccost import dalembert, helper
from reccost.grids import symmetric_grid

SPLITS = (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
          and len(os.sched_getaffinity(0)) >= 2)
needs_helper = pytest.mark.skipif(not SPLITS, reason="the helper needs os.fork and two CPUs")


def family(spec):
    return make_family(parse_family_spec(spec), domain=LOG_LINE)


# test_dalembert's TestTableCost table: 811 rows of a noisy cosh, whose spline is not bitwise
# even, so each sweep at T = 2, step 0.001 reduces E's triangle and rescores the blocks it keeps
TS = np.linspace(-4.05, 4.05, 811)
TABLE = sample_table(LOG_LINE, TS, family(
    "noisy-cosh,amplitude=1e-4,mode=trig,freq=2.5,seed=7")(TS))


def outcome(sweep, *args):
    """repr of the sweep's result, with a certificate's grid and values bytes, or its error."""
    try:
        out = sweep(*args)
    except ReccostError as exc:  # a refusal, such as certify's of a Cos-type curvature
        return f"{type(exc).__name__}: {exc}"
    arrays = [getattr(out, name).tobytes() for name in ("grid", "values") if hasattr(out, name)]
    return repr(out), arrays


def serial(sweep, *args):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dalembert, "_HELPER_MIN_PAIRS", math.inf)
        return outcome(sweep, *args)


def request(header):
    """(op, [(r0, r1, c0, c1) of each block the helper must reduce]) of a request's header."""
    op = dalembert._REQUEST.unpack_from(header)[0].rstrip(b"\0").decode()
    return op, np.frombuffer(header, "<i8", offset=dalembert._REQUEST.size).reshape(-1, 4).tolist()


@pytest.fixture
def sent(monkeypatch):
    """Per request that _split asks the helper during the test, in the order the asks return:
    (op, triangle, first row) where the helper answered, triangle where every block's columns
    start at its first row, else None, where the caller reduced the helper's blocks itself."""
    got, ask = [], helper.ask

    def recorded_ask(answer, header, body, meanwhile):
        ours, reply = ask(answer, header, body, meanwhile)
        op, blocks = request(header)
        got.append(None if reply is None else (
            op, all(c0 == r0 for r0, _, c0, _ in blocks), blocks[0][0]))
        return ours, reply

    monkeypatch.setattr(helper, "ask", recorded_ask)
    return got


@needs_helper
class TestSplitIsSerial:
    """Split sweeps give the serial loop's reports, field for field and bit for bit."""

    @pytest.mark.parametrize("spec", [
        "cosh-lambda,lambda=1.03", "quadlog", "cos-k,k=3",
        "noisy-cosh,amplitude=5e-4,mode=sine,freq=4.5",
        "noisy-cosh,amplitude=3e-4,mode=trig,freq=3,seed=7"])
    @pytest.mark.parametrize("step", [0.001, 0.002])
    def test_even_builtins(self, spec, step, sent):
        h = family(spec)
        for sweep in (sup_defect, identity_report, certify):
            assert outcome(sweep, h, 2.0, step) == serial(sweep, h, 2.0, step)
        assert {op for op, triangle, _ in sent} == {"sup_defect", "identity_report"}
        assert all(triangle for _, triangle, _ in sent)

    def test_uneven_table_on_the_even_part_path(self, sent):
        for sweep in (sup_defect, identity_report, certify):
            assert outcome(sweep, TABLE, 2.0, 0.001) == serial(sweep, TABLE, 2.0, 0.001)
        assert [(op, triangle) for op, triangle, _ in sent] == [
            ("sup_defect", True), ("identity_report", True), ("sup_defect", True)]

    def test_even_part_boxes_split_too(self, sent, monkeypatch):
        # TABLE's boxes hold 8 pairs: at a minimum of one pair G's boxes are split like E's
        # triangle, and a box's columns start neither at 0 nor at its first row
        headers, ask = [], helper.ask
        monkeypatch.setattr(helper, "ask", lambda answer, header, *rest: headers.append(
            header) or ask(answer, header, *rest))
        monkeypatch.setattr(dalembert, "_HELPER_MIN_PAIRS", 1)
        for sweep in (sup_defect, identity_report):
            assert outcome(sweep, TABLE, 2.0, 0.001) == serial(sweep, TABLE, 2.0, 0.001)
        assert [op for op, _, _ in sent] == ["sup_defect"] * 2 + ["identity_report"] * 2
        assert any(0 != c0 != r0 for header in headers for r0, _, c0, _ in request(header)[1])

    @pytest.mark.parametrize("op", ["sup_defect", "identity_report"])
    def test_split_picks_every_block_it_is_given(self, op, sent, monkeypatch):
        # one pick per block, in the order given, the helper's share included: the whole
        # table's row blocks reversed, whose maxima need not lie in the block the helper drops
        monkeypatch.setattr(dalembert, "_HELPER_MIN_PAIRS", 1)
        _, axis, nodes, g = dalembert._sweep(TABLE, 2.0, 0.004, op)
        aux, k, scores, _ = dalembert._ops(op)
        blocks = list(dalembert._blocks(axis.size, False))[::-1]
        views = dalembert._buffers(axis.size)
        picks = dalembert._split(op, nodes, aux(g), blocks, views)
        assert np.array_equal(picks, dalembert._reduce(nodes, aux(g), blocks, scores, k, views))
        assert [s[0] for s in sent] == [op] and picks.shape[0] == len(blocks)

    def test_uneven_table_on_the_whole_table_path(self, sent):
        # exact cosh on 8001 rows: its defect is rounding noise, so the even part gives up
        ts = np.linspace(-4.05, 4.05, 8001)
        h = sample_table(LOG_LINE, ts, np.cosh(ts))
        for sweep in (sup_defect, identity_report):
            assert outcome(sweep, h, 2.0, 0.001) == serial(sweep, h, 2.0, 0.001)
        # each sweep splits E's triangle, then the whole table
        assert [(op, triangle) for op, triangle, _ in sent] == [
            ("sup_defect", True), ("sup_defect", False),
            ("identity_report", True), ("identity_report", False)]

    @pytest.mark.parametrize("t0", [3.0, -3.0], ids=["in the helper's rows", "in the caller's"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_node(self, t0, sent):
        # G(3) enters the table from t = 1 on, G(-3) up to t = -1: the first NaN lies in the
        # later or the earlier half of the whole table
        def poisoned(t):
            return np.where(np.abs(t - t0) < 1e-3, np.nan, np.cosh(t) + 1e-3 * np.sin(5.0 * t))

        h = analytic(LOG_LINE, "cosh+sin with NaN", (poisoned,), support=(-700.0, 700.0))
        rep = outcome(sup_defect, h, 2.0, 0.001)
        assert rep == serial(sup_defect, h, 2.0, 0.001) and "epsilon=nan" in rep[0]
        ids = outcome(identity_report, h, 2.0, 0.001)
        assert ids == serial(identity_report, h, 2.0, 0.001) and "product_identity=nan" in ids[0]
        assert len(sent) == 2 and not any(triangle for _, triangle, _ in sent)

    @pytest.mark.parametrize("sweep, spec, T, refused", [
        (identity_report, "cosh-lambda,lambda=100", 3.0, True),
        (identity_report, "powerlaw-w,lambda=170", 2.0, True),
        (sup_defect, "noisy-cosh,amplitude=1e300", 2.0, True),
        (identity_report, "noisy-cosh,freq=1e308", 2.0, False),  # NaN nodes: NaN fields
    ], ids=["cosh-lambda", "powerlaw-w", "sup-defect-noisy-cosh", "nan-nodes"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_and_nan_fields(self, sweep, spec, T, refused, sent):
        h = family(spec)
        got = outcome(sweep, h, T, 0.001)
        assert got == serial(sweep, h, T, 0.001)
        if refused:
            assert got.startswith("RangeOverflowError: ") and got.endswith(
                ", which overflows double precision")
        else:
            assert "product_identity=nan" in got[0]
        assert sent and None not in sent

    @pytest.mark.parametrize("odd, step, pick", [
        (0.0, 0.001, "epsilon=2.0, argmax=DefectSample(t=-2.0, u=-0.25"),
        (2.0**-30, 2.0 / 640,
         "epsilon=2.0000000037252903, argmax=DefectSample(t=0.253125, u=-0.25"),
    ], ids=["even", "uneven"])
    def test_tie_straddling_the_split(self, odd, step, pick, sent):
        # G = -1 at t = +-0.25, else 0: |Delta| = 2 at every (t, -0.25) of the triangle, in rows
        # of both halves, and nowhere more; the first of them, (-2, -0.25), is the serial pick.
        # G + 2^-30 sign(t), exactly, is not even, but its E is that G bit for bit: every block
        # of E's triangle with a row t <= -0.25 has the maximum 2, in both halves, and at step
        # 2 / 640 the triangle's 205 761 pairs are split and fit the kept-pair budget, so the
        # only request is E's triangle
        def tie(t):
            return np.where(np.abs(np.abs(t) - 0.25) < 1e-9, 0.0, 1.0)

        h = analytic(LOG_LINE, "G = -1 at +-0.25", (lambda t: tie(t) + odd * np.sign(t),))
        rep = outcome(sup_defect, h, 2.0, step)
        assert rep == serial(sup_defect, h, 2.0, step)
        assert pick in rep[0]
        [(_, triangle, row)] = sent
        axis, even = symmetric_grid(2.0, step)[1], analytic(LOG_LINE, "E", (tie,))
        assert triangle and 0 < row < np.flatnonzero(axis == -0.25)[0]
        assert abs(defect_log(even, axis[row], -0.25)) == 2.0

    def test_all_ties(self, sent):
        h = family("constant-one")
        for sweep in (sup_defect, identity_report):
            assert outcome(sweep, h, 2.0, 0.001) == serial(sweep, h, 2.0, 0.001)
        assert "argmax=DefectSample(t=-2.0, u=-2.0" in outcome(sup_defect, h, 2.0, 0.001)[0]
        assert len(sent) == 3 and None not in sent

    def test_small_sweeps_stay_serial(self, sent):
        # the CLI's default step: 861 pairs of the triangle
        sup_defect(family("cosh"), 2.0, 0.05)
        assert sent == []


def answered(op, nodes, g, blocks):
    """(the helper's reply to a request for blocks, answered here in this process, and the
    in-process _reduce of the same blocks)."""
    aux, k, scores, _ = dalembert._ops(op)
    spans = [(r.start, r.stop, c.start, c.stop) for r, c in blocks]
    reply = dalembert._answer(dalembert._REQUEST.pack(op.encode()) + np.array(
        spans, "<i8").tobytes(), bytearray(nodes.tobytes()))
    return reply, dalembert._reduce(nodes, aux(g), blocks, scores, k, dalembert._buffers(g.size))


@pytest.mark.parametrize("op", ["sup_defect", "identity_report"])
@pytest.mark.parametrize("triangle", [True, False], ids=["triangle", "whole table"])
def test_the_reply_is_the_picks_array(op, triangle):
    # the helper answers a request with the raw bytes of _reduce's float64 array of (|score|,
    # i, j) per block per score, for the blocks the request lists, which _split reads back as
    # it is
    _, axis, nodes, g = dalembert._sweep(TABLE, 2.0, 0.004, op)
    blocks = list(dalembert._blocks(axis.size // 2 + 1 if triangle else axis.size, triangle))
    b0 = len(blocks) // 2
    reply, picks = answered(op, nodes, g, blocks[b0:])
    assert picks.shape == (len(blocks) - b0, 1 if op == "sup_defect" else 2, 3) and b0 > 0
    assert reply == picks.tobytes()


@pytest.mark.parametrize("op", ["sup_defect", "identity_report"])
def test_the_reply_follows_any_block_list(op, monkeypatch):
    # the helper reduces the blocks it is sent, of any shape, in the order sent: TABLE's even
    # part boxes and the whole table's row blocks, reversed
    lists, split = [], dalembert._split
    monkeypatch.setattr(dalembert, "_split", lambda *a: lists.append(a[3]) or split(*a))
    {"sup_defect": sup_defect, "identity_report": identity_report}[op](TABLE, 2.0, 0.004)
    _, axis, nodes, g = dalembert._sweep(TABLE, 2.0, 0.004, op)
    boxes = lists[-1]  # E's triangle, then G's boxes
    assert len(lists) == 2 and any(0 < c.start != r.start for r, c in boxes)
    blocks = (boxes + list(dalembert._blocks(axis.size, False)))[::-1]
    reply, picks = answered(op, nodes, g, blocks)
    assert picks.shape[0] == len(blocks) and reply == picks.tobytes()


# H = 1 + e^(-4 t^2): |Delta| and the difference-square violation peak at the origin, in the
# helper's half of the triangle, so a sweep that drops that half reads other maxima
BUMP = analytic(LOG_LINE, "1 + exp(-4 t^2)", (lambda t: 1.0 + np.exp(-4.0 * t * t),))


def no_fork():
    raise OSError("fork refused")


def open_fds():
    """This process's open file descriptors, where /proc lists them."""
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


@pytest.mark.parametrize("cpus, fork", [({0}, lambda: pytest.fail("forked")), ({0, 1}, no_fork)],
                         ids=["one CPU", "fork fails"])
def test_sweeps_without_a_helper_run_serially(cpus, fork, monkeypatch):
    # with no helper, each sweep is the serial loop's; the helper's two pipes are opened before
    # the fork, so a fork that fails must close them
    monkeypatch.setattr(helper, "_current", None)  # this test's own process state
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    monkeypatch.setattr(os, "fork", fork, raising=False)
    fds = open_fds()
    for sweep in (sup_defect, identity_report):
        assert outcome(sweep, BUMP, 2.0, 0.002) == serial(sweep, BUMP, 2.0, 0.002)
    assert helper._current is None and open_fds() == fds


def dies(header, body):
    os._exit(0)  # in the helper, before it replies


@pytest.mark.parametrize("refusal", [
    "no fork", "one CPU", "another thread", "busy", "fork fails", "dead before the request",
    "dies on the request"])
def test_every_refusal_runs_meanwhile_once(refusal, monkeypatch):
    # with no helper to answer, ask runs the caller's half once and returns no reply
    monkeypatch.setattr(helper, "_current", None)  # this test's own process state
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    if refusal not in ("dead before the request", "dies on the request"):
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"), raising=False)
    elif not hasattr(os, "fork"):
        pytest.skip("needs os.fork")
    if refusal == "no fork":
        monkeypatch.delattr(os, "fork", raising=False)
    elif refusal == "one CPU":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    elif refusal == "another thread":
        monkeypatch.setattr(threading, "active_count", lambda: 2)
    elif refusal == "busy":  # a sweep interrupted by a signal handler holds the lock
        busy = threading.Lock()
        busy.acquire()
        monkeypatch.setattr(helper, "_current", type("Busy", (), {"lock": busy})())
    elif refusal == "fork fails":
        monkeypatch.setattr(os, "fork", no_fork, raising=False)
    elif refusal == "dead before the request":
        monkeypatch.setattr(helper, "_current", helper.Helper(dies))
        os.kill(helper._current.pid, signal.SIGKILL)
        os.waitpid(helper._current.pid, 0)
    calls = []

    def meanwhile():
        calls.append(1)
        return "ours"

    assert helper.ask(dies, b"header", b"body", meanwhile) == ("ours", None)
    assert calls == [1]
    if refusal != "busy":
        assert helper._current is None  # a dead helper is retired: the next ask forks anew


def status(pid: int, key: str) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        return int(next(line for line in fh if line.startswith(key + ":")).split()[1])


@needs_helper
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads /proc/<pid>/status")
@pytest.mark.parametrize("sweep", [sup_defect, identity_report], ids=lambda f: f.__name__)
@pytest.mark.parametrize("h", [family("cosh-lambda,lambda=1.03"), TABLE], ids=["cosh", "table"])
def test_helper_peak_memory(sweep, h):
    # the helper's own transient, outside the caller's tracemalloc and RUSAGE_SELF: its VmHWM
    # grows by 0.5 MiB across its first sweep at step 0.001 (the three block buffers and the
    # nodes), once a smaller sweep has mapped the code the helper runs (3 MiB of file pages);
    # for the table, the helper reduces E's triangle
    helper.stop()
    sweep(h, 2.0, 0.003)  # 223 446 pairs: a fresh helper
    pid = helper._current.pid
    base = status(pid, "VmHWM")
    sweep(h, 2.0, 0.001)
    assert helper._current.pid == pid
    assert (status(pid, "VmHWM") - base) * 1024 < 2**20


LIFECYCLE = """
import os, sys
fork = os.fork
def reporting_fork():
    pid = fork()
    if pid:
        print("helper:", pid, file=sys.stderr, flush=True)
    return pid
os.fork = reporting_fork
{body}
"""


def run_probe(body: str, timeout: float = 120) -> tuple[str, list[int]]:
    """stdout of body in a fresh interpreter, and the pid of every helper it forked."""
    proc = subprocess.run([sys.executable, "-c", LIFECYCLE.format(body=body)],
                          capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, [int(p) for p in re.findall(r"helper: (\d+)", proc.stderr)]


def gone(pid: int) -> bool:
    """Whether pid is no process at all, not even an unreaped one."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


@needs_helper
class TestLifecycle:
    """The helper never outlives its process, never hangs a sweep and never answers a sweep
    that is not its caller's."""

    def test_cold_cli_reaps_its_helper(self):
        out, pids = run_probe(
            "import runpy\n"
            "sys.argv = ['reccost', 'sup-defect', '--family', 'cosh', '--T', '2', '--step', "
            "'0.001']\n"
            "runpy.run_module('reccost', run_name='__main__')\n")
        assert "reccost sup-defect: ok" in out
        assert len(pids) == 1 and gone(pids[0])

    def test_interpreter_exit_reaps_the_helper(self):
        out, pids = run_probe(
            "from reccost import make_family, FamilySpec, LOG_LINE, sup_defect\n"
            "print(sup_defect(make_family(FamilySpec('cosh'), LOG_LINE), 2.0, 0.001).epsilon)\n")
        assert float(out) >= 0.0
        assert len(pids) == 1 and gone(pids[0])

    def test_exit_never_waits_on_a_forked_child(self):
        # the child sleeps 3 s without sweeping, its output closed so that only the parent and
        # its helper hold the probe's pipes: the parent's exit closes its ends of the helper's
        # pipes, the helper reads EOF and is reaped at once
        out, pids = run_probe(
            "import time\n"
            "from reccost import make_family, FamilySpec, LOG_LINE, sup_defect\n"
            "sup_defect(make_family(FamilySpec('cosh'), LOG_LINE), 2.0, 0.001)\n"
            "if fork() == 0:\n"
            "    null = os.open(os.devnull, os.O_WRONLY)\n"
            "    os.dup2(null, 1)\n"
            "    os.dup2(null, 2)\n"
            "    time.sleep(3)\n"
            "    os._exit(0)\n"
            "print(time.time())\n")
        assert time.time() - float(out) < 1.5
        assert len(pids) == 1 and gone(pids[0])

    def test_killed_helper(self):
        # the second sweep writes to a helper that is gone: it reduces the whole table itself
        out, pids = run_probe(
            "import signal, time\n"
            "from reccost import dalembert, helper, make_family, FamilySpec, LOG_LINE, sup_defect\n"
            "h = make_family(FamilySpec('cosh-lambda', {'lambda': 1.03}), domain=LOG_LINE)\n"
            "print(repr(sup_defect(h, 2.0, 0.001)))\n"
            "os.kill(helper._current.pid, signal.SIGKILL)\n"
            "time.sleep(0.1)\n"
            "print(repr(sup_defect(h, 2.0, 0.001)))\n"
            "dalembert._HELPER_MIN_PAIRS = float('inf')\n"
            "print(repr(sup_defect(h, 2.0, 0.001)))\n", timeout=60)
        first, second, want = out.splitlines()
        assert first == second == want
        assert len(pids) == 1 and gone(pids[0])

    def test_killed_helper_mid_request(self):
        # the helper dies between request and reply: the caller reads EOF and reduces the
        # helper's half itself; the next sweep forks a new helper
        out, pids = run_probe(
            "import signal\n"
            "from reccost import helper, make_family, FamilySpec, LOG_LINE, sup_defect\n"
            "h = make_family(FamilySpec('cosh-lambda', {'lambda': 1.03}), domain=LOG_LINE)\n"
            "print(repr(sup_defect(h, 2.0, 0.001)))\n"
            "ask = helper.ask\n"
            "def ask_and_kill(answer, header, body, meanwhile):\n"
            "    def killing():\n"
            "        os.kill(helper._current.pid, signal.SIGKILL)\n"
            "        return meanwhile()\n"
            "    return ask(answer, header, body, killing)\n"
            "helper.ask = ask_and_kill\n"
            "print(repr(sup_defect(h, 2.0, 0.001)))\n"
            "helper.ask = ask\n"
            "print(repr(sup_defect(h, 2.0, 0.001)))\n", timeout=60)
        assert len(set(out.splitlines())) == 1
        # two helpers, unless the first replied before the kill landed
        assert len(pids) in (1, 2) and all(map(gone, pids))

    def test_interrupt_between_request_and_reply_retires_the_helper(self, monkeypatch):
        h = family("cosh-lambda,lambda=1.03")
        want = serial(sup_defect, h, 2.0, 0.001)
        sup_defect(h, 2.0, 0.001)
        pid = helper._current.pid
        reduce = dalembert._reduce
        calls = []

        def interrupted(*args):
            calls.append(1)
            if len(calls) == 1:  # the caller's half, after the request went out
                raise KeyboardInterrupt
            return reduce(*args)

        monkeypatch.setattr(dalembert, "_reduce", interrupted)
        with pytest.raises(KeyboardInterrupt):
            sup_defect(h, 2.0, 0.001)
        assert helper._current is None and gone(pid)
        assert outcome(sup_defect, h, 2.0, 0.001) == want  # no stale reply is read
        assert helper._current.pid != pid
        helper.stop()  # forked under the patch, which it would keep

    def test_forked_child_leaves_the_parents_helper_alone(self):
        h = family("cosh-lambda,lambda=1.03")
        want = serial(sup_defect, h, 2.0, 0.001)
        assert outcome(sup_defect, h, 2.0, 0.001) == want
        parent_helper = helper._current
        read, write = os.pipe()
        child = os.fork()
        if child == 0:  # never returns into pytest
            code = 1
            try:
                ok = helper._current is None  # forgotten at the fork
                ok = ok and outcome(sup_defect, h, 2.0, 0.001) == want
                ok = ok and helper._current not in (None, parent_helper)
                helper.stop()  # the child's own helper
                os.write(write, b"ok" if ok else b"wrong")
                code = 0
            finally:
                os._exit(code)
        os.close(write)
        deadline = time.monotonic() + 60
        while os.waitpid(child, os.WNOHANG) == (0, 0):
            if time.monotonic() > deadline:
                os.kill(child, signal.SIGKILL)
                os.waitpid(child, 0)
                pytest.fail("the forked child's sweep hung")
            time.sleep(0.01)
        with os.fdopen(read, "rb") as fh:
            assert fh.read() == b"ok"
        assert helper._current is parent_helper
        assert outcome(sup_defect, h, 2.0, 0.001) == want
        assert helper._current is parent_helper  # it answered: a failed request retires it

    def test_threads_sweep_serially(self, sent):
        # more threads than CPUs, switching often: each gets the serial answer
        specs = ["cosh-lambda,lambda=1.03", "quadlog", "cos-k,k=3"]
        handles = [family(spec) for spec in specs]
        want = [serial(sup_defect, h, 2.0, 0.002) for h in handles]
        got = [None] * len(handles)

        def sweep(k):
            got[k] = outcome(sup_defect, handles[k], 2.0, 0.002)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=sweep, args=(k,)) for k in range(len(handles))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == want and sent == [None] * len(handles)

    def test_a_reentrant_sweep_runs_serially(self, monkeypatch, sent):
        # a sweep started while the helper serves another, as a signal handler's would be
        h, inner = family("cosh-lambda,lambda=1.03"), family("quadlog")
        want = serial(sup_defect, h, 2.0, 0.001), serial(sup_defect, inner, 2.0, 0.001)
        got, reduce = [], dalembert._reduce

        def reentrant(*args):
            monkeypatch.setattr(dalembert, "_reduce", reduce)  # once
            got.append(outcome(sup_defect, inner, 2.0, 0.001))
            return reduce(*args)

        monkeypatch.setattr(dalembert, "_reduce", reentrant)
        got.insert(0, outcome(sup_defect, h, 2.0, 0.001))
        assert tuple(got) == want and [s is None for s in sent] == [True, False]
