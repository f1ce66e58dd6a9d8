"""One helper process per Python process, forked from it, that answers its requests.

``dalembert`` splits each large defect sweep with it through one call,
``ask(answer, header, body, meanwhile)``: the request (header, body) goes to the
process's helper, forked at the first ask, which answers it with
``answer(header, body)``, while this process runs ``meanwhile()``; ``ask``
returns ``meanwhile()``'s result and the reply, or None in place of the reply
where no helper answered.  The helper answers every request with the ``answer``
of the ask that forked it.  No helper answers unless ``os.fork`` exists, at
least two CPUs are in the process's affinity mask and the caller is the
process's only Python thread (forking a process with threads is unsafe); nor
where the helper is busy serving a sweep that a signal handler interrupted (a
non-blocking lock), the fork fails or the helper has died, which retires it, so
that the next ask forks a new one.  A process forked from one with a helper
runs ``stop`` at the fork (``os.register_at_fork``), so it closes its copies of
the pipes and forks its own helper, and the parent's exit never waits on it.

A request and a reply are one message each: the byte lengths of a header and
a body (``_FRAME``), then the two.  The helper exits when its request pipe
reaches EOF, or on a request once its reply finds the reply pipe closed.
``stop``, run at interpreter exit and by ``cli.main`` before its
``os._exit``, closes the pipes and reaps it, and so does an exception between
a request and its reply, so that no stale reply is ever read.
Loading this module is lazy: only a sweep large enough to split imports it.
"""

from __future__ import annotations

import atexit
import os
import struct
import threading

_FRAME = struct.Struct("<qq")  # byte lengths of a message's header and body


class Helper:
    """The forked helper process, which answers each request (header, body) with the bytes of
    answer(header, body), and this process's ends of its two pipes."""

    def __init__(self, answer):
        fds = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            self.pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            raise
        requests, self.requests, self.replies, replies = fds
        if self.pid == 0:
            try:
                import signal  # here alone: its import leaves cyclic garbage in the caller

                os.close(self.requests)
                os.close(self.replies)
                signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller decides; it retires us
                _serve(answer, requests, replies)
            finally:
                os._exit(0)
        os.close(requests)
        os.close(replies)
        self.lock = threading.Lock()

    def retire(self):
        """Closes this process's ends of the pipes, so the helper exits once it has answered
        any request it holds, and reaps it.  It is no longer the process's helper."""
        global _current
        if _current is self:
            _current = None
        if self.requests < 0:
            return
        for fd in (self.requests, self.replies):
            os.close(fd)
        self.requests = self.replies = -1
        try:
            os.waitpid(self.pid, 0)
        except ChildProcessError:  # reaped already, or, in a forked process, its parent's
            pass


_current: Helper | None = None  # this process's helper: at most one


def ask(answer, header: bytes, body, meanwhile):
    """(meanwhile(), reply): this process runs meanwhile while the process's helper, forked now
    with answer where it has none, answers the request (header, body); reply is its answer, or
    None where no helper answered, and the caller then does the helper's work itself."""
    global _current
    usable = (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
              and len(os.sched_getaffinity(0)) >= 2 and threading.active_count() == 1)
    if usable and _current is None:
        try:
            _current = Helper(answer)
        except OSError:  # the fork failed: no helper
            pass
    worker = _current if usable else None
    if worker is None or not worker.lock.acquire(blocking=False):
        return meanwhile(), None
    try:
        try:
            _write(worker.requests, header, body)
        except OSError:  # BrokenPipeError: it has died
            worker.retire()
        ours = meanwhile()
        reply = _read(worker.replies) if worker.replies >= 0 else None
    except BaseException:  # its reply would be read as the next request's
        worker.retire()
        raise
    finally:
        worker.lock.release()
    if reply is None:  # it has died
        worker.retire()
    return ours, None if reply is None else reply[0]


def stop() -> None:
    """Retires the process's helper, if it has one; a later ask forks a new one."""
    if _current is not None:
        _current.retire()


atexit.register(stop)
if hasattr(os, "fork"):
    os.register_at_fork(after_in_child=stop)


def _serve(answer, requests: int, replies: int) -> None:
    """The helper's loop: replies to each request with answer(header, body), until EOF."""
    while (request := _read(requests)) is not None:
        _write(replies, answer(*request), b"")


def _write(fd: int, header: bytes, body) -> None:
    for data in (_FRAME.pack(len(header), memoryview(body).nbytes), header, body):
        view = memoryview(data).cast("B")
        while view:
            view = view[os.write(fd, view):]


def _read(fd: int):
    """(header, body) of the next message on fd, or None at EOF."""
    frame = bytearray(_FRAME.size)
    if not _fill(fd, frame):
        return None
    header, body = (bytearray(size) for size in _FRAME.unpack(frame))
    return (bytes(header), body) if _fill(fd, header) and _fill(fd, body) else None


def _fill(fd: int, buffer: bytearray) -> bool:
    """Reads fd into the whole of buffer; False where fd reaches EOF first."""
    view = memoryview(buffer)
    while view:
        got = os.readv(fd, [view])
        if got == 0:
            return False
        view = view[got:]
    return True
