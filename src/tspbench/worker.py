"""The worker's one entry point: speak the wire protocol on stdin/stdout.

The coordinator spawns every worker interpreter by
backends.worker_command(), ``python -S -c`` with code that drops the
cwd's entry from sys.path, reads one map of code, every package module a
worker may run and core's scan block, from the start of its stdin (an
8-byte size, then the map) when given an argument, puts a finder that
runs that code first on sys.meta_path, and calls main(): it runs no
``site``, ``.pth`` file, ``sitecustomize``, ``runpy`` or CLI, compiles
neither a package module nor the block, and imports nothing from the
caller's cwd.  Started with no code, as by TSPBENCH_WORKER_BIN, it finds
the package through the PYTHONPATH that backends._worker_env sets, and
compiles the block at its first task of n >= 6 cities (core._kernel).
Whatever the map holds, a worker imports only what it runs: the kernel's
package modules (core, permutation, errors), protocol, this one and,
given a map, block5; a hybrid worker also imports team, and no worker
imports backends.  Of the standard library past what ``python -S`` loads,
it imports only the builtins _collections and itertools and json's
_json: no os, collections, reprlib or __future__, and no json, re or
enum unless a line is rejected and json.loads words it.

Tasks arrive one per line and each produces exactly one result line.
A shutdown message ends the process with exit code 0.  Any protocol
violation or task failure emits an error message and exits nonzero; the
coordinator is fail-fast and discards partial results, so there is no
point in limping on.
"""

import posix
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
    """Serve a worker interpreter, then leave by posix._exit: the reply is
    flushed, and the interpreter's teardown would only delay the exit
    that the coordinator reaps.  A worker started with its code (an
    argument) holds core's block before its first scan: the code map
    carries it as the module block5, so no worker compiles it."""
    if sys.argv[1:]:
        from . import block5, core

        core._block = block5.block
    code = run_worker()
    sys.stdout.flush()
    posix._exit(code)
