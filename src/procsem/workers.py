"""Work split over forked worker processes, with the standard library alone.

`run_in_processes(n, work)` calls `work(k)` for k = 0 … n-1 at once: run 0
in the calling process and every other run in a child forked for it. A
child sends its result back through a pipe as JSON and leaves through
`os._exit`, so no exit handler, buffered output or `finally` block that it
inherited from its parent runs in it.
"""

from __future__ import annotations

import json
import os
import sys
from functools import partial
from typing import Any, Callable


def usable_cpus() -> int:
    """The CPUs this process may run on; 1 where it cannot fork or cannot
    tell."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _forked(work: Callable[[], Any]) -> tuple[int, int]:
    """Start `work` in a forked child. Returns the child's pid and the read
    end of a pipe that carries, as one JSON object, what `work` returned or
    the one-line error it raised."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid:
        os.close(write_end)
        return pid, read_end
    code = 1
    try:
        os.close(read_end)
        try:
            message = {"result": work()}
        except (OSError, ValueError) as exc:
            message = {"error": str(exc), "os_error": isinstance(exc, OSError)}
        with open(write_end, "wb") as pipe:
            pipe.write(json.dumps(message).encode("utf-8"))
        code = 0
    except BaseException:
        # Anything else is a fault: print its traceback, as an uncaught
        # exception would, and exit 1.
        sys.excepthook(*sys.exc_info())
        sys.stderr.flush()
    finally:
        os._exit(code)


def _reaped(pid: int, read_end: int) -> dict[str, Any]:
    """The message of a child from `_forked`, once it has exited; a child
    that failed without sending one is a ChildProcessError."""
    try:
        with open(read_end, "rb") as pipe:
            message = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise ChildProcessError(f"worker process {pid} failed with exit status {code}")
    return json.loads(message)


def run_in_processes(n_runs: int, work: Callable[[int], Any]) -> list[Any]:
    """`[work(0), …, work(n_runs - 1)]`, run at once: run 0 in this process,
    every other run in a forked child, whose result must be JSON-serialisable
    and comes back as JSON decodes it.

    Every child is reaped before this returns or raises, also when run 0
    raises. An OSError or ValueError of a child is raised here with the
    child's message, after run 0 has ended; a child that fails otherwise
    prints its traceback and is a ChildProcessError here.
    """
    children: list[tuple[int, int]] = []
    outcomes: list[dict[str, Any] | OSError] = []
    try:
        for k in range(1, n_runs):
            children.append(_forked(partial(work, k)))
        results = [work(0)]
    finally:
        for child in children:
            try:
                outcomes.append(_reaped(*child))
            except OSError as exc:
                outcomes.append(exc)
    for outcome in outcomes:
        if isinstance(outcome, OSError):
            raise outcome
        if "error" in outcome:
            raise (OSError if outcome["os_error"] else ValueError)(outcome["error"])
        results.append(outcome["result"])
    return results
