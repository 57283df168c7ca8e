"""The worker's one entry point: speak the wire protocol on stdin/stdout.

The coordinator spawns every worker interpreter by
backends.worker_command(), ``python -S -c`` with code that drops the
cwd's entry from sys.path, reads the code of the package modules it
runs from the pipe on fd 3 that its argument names, puts a finder that
runs that code first on sys.meta_path, and calls main(): it runs no
``site``, ``.pth`` file, ``sitecustomize``, ``runpy`` or CLI, compiles
no package module and imports nothing from the caller's cwd.  Started
without a code pipe, as by TSPBENCH_WORKER_BIN, it finds the package
through the PYTHONPATH that backends._worker_env sets.  It imports the
kernel's package modules (core, permutation, errors), protocol and this
one; a hybrid worker also imports team for its fork team, and no worker
imports backends.  None imports dataclasses, typing or signal, and none
imports json, re or enum unless a line is rejected and json.loads words
the error.

Tasks arrive one per line and each produces exactly one result line.
A shutdown message ends the process with exit code 0.  Any protocol
violation or task failure emits an error message and exits nonzero; the
coordinator is fail-fast and discards partial results, so there is no
point in limping on.
"""

from __future__ import annotations

import os
import sys

from .core import CostMatrix, solve_range
from .errors import ProtocolError
from .permutation import WorkRange
from .protocol import Task, decode_task, error_message, parse_message, result_message


def _run_task(task: Task):
    matrix = CostMatrix(task.matrix)
    work = WorkRange(task.start, task.end)
    if task.threads == 1:
        return solve_range(matrix, work)
    # Local fork team, imported lazily: a team of one needs none, and a
    # worker started without its code compiles every module it imports.
    from .team import solve_interval_team

    return solve_interval_team(matrix, work, task.threads)


def run_worker(stdin=None, stdout=None) -> int:
    inp = sys.stdin if stdin is None else stdin
    out = sys.stdout if stdout is None else stdout
    while True:
        line = inp.readline()
        if not line:
            return 1  # coordinator vanished without sending shutdown
        try:
            msg = parse_message(line)
            if msg["type"] == "shutdown":
                return 0
            if msg["type"] != "task":
                raise ProtocolError(f"unexpected {msg['type']!r} message for a worker")
            result = _run_task(decode_task(msg))
            out.write(result_message(result))
            out.flush()
        except Exception as exc:
            out.write(error_message(f"{type(exc).__name__}: {exc}"))
            out.flush()
            return 1


def main() -> None:
    """Serve a worker interpreter, then leave by os._exit: the reply is
    flushed, and the interpreter's teardown would only delay the exit
    that the coordinator reaps."""
    code = run_worker()
    sys.stdout.flush()
    os._exit(code)
