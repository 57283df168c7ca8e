"""The fork team, and the one loop that starts, reads and reaps every child.

A team of ``threads`` members scans one interval: the caller's for
shared_memory, a worker interpreter's span for hybrid.  The caller is
member 0, as an OpenMP master is: it forks members 1 .. threads-1,
which inherit the matrix copy-on-write, and scans the first range
itself.  CPython's interpreter lock keeps OS threads from running the
scan in parallel, so a fork team is the working analog of threads
sharing memory.  Spawned or forked, every child answers with one
wire-protocol line on its own pipe, member 0 builds the same line, and
_run_workers starts, reads and reaps them all, and kills and reaps the
rest on failure.  This module is apart from backends so that a hybrid
worker imports only the code its team runs.
"""

from __future__ import annotations

import os
import sys
import time
from _signal import SIGKILL  # signal's enum wrappers cost a hybrid worker's start

from .core import (
    EMPTY_RESULT, CostMatrix, SolveResult, block_for, path_cost, reduce_results, solve_range,
)
from .errors import ExecutionError, ProtocolError, ValidationError
from .permutation import WorkRange, partition
from .protocol import decode_result, error_message, parse_message, result_message


def _reply(idx: int, line: str, work: WorkRange, code: int, matrix: CostMatrix) -> SolveResult:
    """Decode the one line every worker answers with (empty if it exited
    with ``code`` first) and check that worker ``idx`` scanned ``work``
    and that its tour costs what it claims on ``matrix``."""
    if not line:
        raise ExecutionError(f"worker {idx} exited without a result (exit code {code})")
    try:
        msg = parse_message(line)
        if msg["type"] == "result":
            result = decode_result(msg)
            if result.evaluated != work.count:
                raise ExecutionError(
                    f"worker {idx} evaluated {result.evaluated} permutations, expected {work.count}"
                )
            if (result == EMPTY_RESULT) if work.count == 0 else (
                path_cost(result.optimal_path[1:-1], matrix) == result.optimal_cost
            ):
                return result
            raise ProtocolError(f"tour {result.optimal_path} does not cost {result.optimal_cost}")
    except (ProtocolError, ValidationError) as exc:
        raise ProtocolError(f"worker {idx}: {exc}") from None
    if msg["type"] == "error":
        text = " ".join(str(msg.get("message", "")).splitlines())  # one error line
        if len(text) > 200:  # a short message is quoted as it is, a long one cut
            text = f"{text[:200]}... ({len(text)} characters)"
        raise ExecutionError(f"worker {idx} failed: {text}")
    raise ProtocolError(f"worker {idx} sent an unexpected {msg['type']!r} message")


def _member_line(matrix: CostMatrix, work: WorkRange) -> str:
    """The one reply line of a team member: its result, or its error."""
    try:
        return result_message(solve_range(matrix, work))
    except Exception as exc:
        return error_message(f"{type(exc).__name__}: {exc}")


def _team_member(matrix: CostMatrix, work: WorkRange, fd: int):
    """Forked child: write one reply line to ``fd`` and leave by os._exit,
    never returning into the caller's stack nor flushing inherited
    stdio.  Its stdout becomes ``fd`` first: in a hybrid worker the
    inherited stdout is the coordinator's reply pipe, which must see EOF
    as soon as the worker dies, not when its team does."""
    try:
        os.dup2(fd, 1)
        line = _member_line(matrix, work)
        with open(fd, "w", encoding="utf-8") as pipe:
            pipe.write(line)
        os._exit(0)
    finally:
        os._exit(1)  # reached only if the reply could not be written


def _reap(idx: int, pid: int) -> int:
    """Exit code of worker ``idx``, child ``pid``, given 60 s to exit; the
    poll interval doubles from 0.1 ms to 10 ms (most exit at once)."""
    deadline, delay = time.monotonic() + 60, 1e-4
    while not (waited := os.waitpid(pid, os.WNOHANG))[0]:
        if time.monotonic() > deadline:
            raise ExecutionError(f"worker {idx} did not exit within 60 s of its reply")
        time.sleep(delay)
        delay = min(2 * delay, 0.01)
    return os.waitstatus_to_exitcode(waited[1])


def _run_workers(matrix: CostMatrix, spans: list[WorkRange], start, team=False):
    """Start a child per span by ``start(work, fd) -> pid``, ``fd`` being
    its reply pipe; then, in worker order, read each reply, reap that
    child and check the reply.  The first failure aborts the solve, and
    every exit path closes every pipe and kills the rest and reaps them.
    In a fork ``team`` the caller is worker 0: spans[0] gets no child,
    and the caller scans it after the starts and checks its reply line
    alike.  Otherwise every child is a spawned worker that leads a
    process group its fork team joins, and every kill is of the group,
    so a team dies with its worker."""
    first = 1 if team else 0
    if spans[first:] and not (hasattr(os, "fork") and hasattr(os, "posix_spawnp")):
        raise ExecutionError(f"fork and posix_spawn unavailable on {sys.platform}")
    workers: list[tuple[int, int]] = []  # (pid, reply read end) of every started child
    reaped = 0
    try:
        for idx, work in enumerate(spans[first:], first):
            pipe: tuple[int, ...] = ()
            try:
                pipe = os.pipe()
                workers.append((start(work, pipe[1]), pipe[0]))
            except OSError as exc:
                for fd in pipe:
                    os.close(fd)
                raise ExecutionError(f"failed to spawn worker {idx}: {exc}") from exc
            os.close(pipe[1])
        results = [_reply(0, _member_line(matrix, spans[0]), spans[0], 0, matrix)] if team else []
        for idx, ((pid, fd), work) in enumerate(zip(workers, spans[first:]), first):
            with open(fd, encoding="utf-8", errors="replace", closefd=False) as reply:
                line = reply.readline()
            code = _reap(idx, pid)
            reaped += 1
            if not team and not line:
                # Its team may run on.  Killed after the reap, which keeps
                # the exit code real: the reaped pid stays the team's group
                # id while a member lives, so the signal reaches no stranger.
                try:
                    os.killpg(pid, SIGKILL)
                except ProcessLookupError:
                    pass
            results.append(_reply(idx, line, work, code, matrix))
            if code != 0:
                raise ExecutionError(f"worker {idx} exited with code {code} after its result")
        return results
    finally:
        for idx, (pid, fd) in enumerate(workers):
            os.close(fd)
            if idx >= reaped:  # not reaped, so the pid is still ours to kill
                (os.kill if team else os.killpg)(pid, SIGKILL)
                os.waitpid(pid, 0)


def solve_interval_team(matrix: CostMatrix, work: WorkRange, threads: int) -> SolveResult:
    """Scan [work.start, work.end) with a local team of ``threads``
    workers.  The interval is split by the same quotient/remainder rule
    as the global partitioner, so a hybrid worker's local split lines
    up exactly with the flat global partition.  The caller is member 0:
    it forks members 1 .. threads-1 and scans the first range inline.
    When that range, the longest, is long enough for core's block, the
    block is compiled before the forks, so no member compiles its own."""
    sub = [WorkRange(work.start + r.start, work.start + r.end) for r in partition(work.count, threads)]
    block_for(sub[0].count)
    # os.fork() is 0 only in the child, which _team_member never lets return
    return reduce_results(_run_workers(
        matrix, sub, lambda w, fd: os.fork() or _team_member(matrix, w, fd), team=True
    ))
