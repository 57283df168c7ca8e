"""One two-level executor over the shared permutation partitioner.

solve() splits the index space once into processes x threads contiguous
ranges (hybrid_ranges) and runs each process's span on one of two
process transports with one of two team transports:

* process: on the caller, or in a worker interpreter that the package
  starts by posix_spawn of itself.  A worker gets everything, the matrix
  included, over line-delimited JSON (see protocol.py), so the
  coordinator stays a pure master: it partitions, distributes, collects
  and reduces, but evaluates no permutations itself.
* team: inline for a team of one, else forked members that inherit the
  matrix copy-on-write.  CPython's interpreter lock keeps OS threads
  from running the scan in parallel, so a fork team is the working
  analog of threads sharing memory.

Spawned or forked, every worker answers with one wire-protocol line on
its own pipe, and one loop (_run_workers) starts, reads and reaps them
all, and kills and reaps the rest on failure.  shared_memory is caller
x team, message_passing is worker x inline and hybrid is worker x team;
serial is the reference scan.  Every backend is bit-identical to
serial: each worker scans a disjoint range and the reduction takes the
minimum by (cost, permutation), which is associative and commutative,
so the combination order never matters.
"""

from __future__ import annotations

import os
import signal
import sys
import time
from dataclasses import dataclass
from functools import partial

from .core import EMPTY_RESULT, CostMatrix, SolveResult, path_cost, reduce_results
from .core import solve_range, solve_serial
from .errors import ExecutionError, ProtocolError, ValidationError
from .permutation import WorkRange, factorial, partition
from .protocol import decode_result, error_message, parse_message, result_message
from .protocol import shutdown_message, task_message

KINDS = ("serial", "shared_memory", "message_passing", "hybrid")

#: Set this to an executable path to replace the default self-invocation
#: of the worker process (a testing hook; the replacement is called with
#: a single --worker argument and must speak the wire protocol).
WORKER_BIN_ENV_VAR = "TSPBENCH_WORKER_BIN"


@dataclass(frozen=True)
class BackendSpec:
    """One execution configuration.  ``parallel_elements`` is the p used
    for speedup and efficiency accounting: threads for shared memory,
    processes for message passing, and their product for hybrid."""

    kind: str
    threads: int | None = None
    processes: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown backend kind {self.kind!r} (expected one of {KINDS})")
        for name, value, wanted in (
            ("threads", self.threads, self.kind in ("shared_memory", "hybrid")),
            ("processes", self.processes, self.kind in ("message_passing", "hybrid")),
        ):
            if wanted:
                if type(value) is not int or value < 1:  # a bool is no count
                    raise ValidationError(f"{self.kind} backend needs {name} >= 1, got {value!r}")
            elif value is not None:
                raise ValidationError(f"{self.kind} backend does not take {name}")

    @property
    def parallel_elements(self) -> int:
        return (self.processes or 1) * (self.threads or 1)

    def label(self) -> str:
        """Compact token form, the same grammar parse_backend_spec reads."""
        if self.kind == "serial":
            return "serial"
        if self.kind == "shared_memory":
            return f"threads:{self.threads}"
        if self.kind == "message_passing":
            return f"procs:{self.processes}"
        return f"hybrid:{self.processes}x{self.threads}"


def parse_backend_spec(token: str) -> BackendSpec:
    """Parse the compact backend grammar: ``serial``, ``threads:T``,
    ``procs:P`` or ``hybrid:PxT``."""
    token = token.strip()
    try:
        if token == "serial":
            return BackendSpec("serial")
        if token.startswith("threads:"):
            return BackendSpec("shared_memory", threads=int(token.split(":", 1)[1]))
        if token.startswith("procs:"):
            return BackendSpec("message_passing", processes=int(token.split(":", 1)[1]))
        if token.startswith("hybrid:"):
            p, t = token.split(":", 1)[1].split("x", 1)
            return BackendSpec("hybrid", processes=int(p), threads=int(t))
    except (ValueError, ValidationError) as exc:
        raise ValidationError(f"bad backend spec {token!r}: {exc}") from None
    raise ValidationError(
        f"bad backend spec {token!r} (expected serial, threads:T, procs:P or hybrid:PxT)"
    )


def solve(matrix: CostMatrix, spec: BackendSpec) -> SolveResult:
    """Run one solve with the given backend configuration."""
    if spec.kind == "serial":
        return solve_serial(matrix)
    threads = spec.threads or 1
    groups = hybrid_ranges(factorial(matrix.n - 1), spec.processes or 1, threads)
    spans = [WorkRange(group[0].start, group[-1].end) for group in groups]
    if spec.kind == "shared_memory":
        return solve_interval_team(matrix, spans[0], threads)
    workers = _run_workers(matrix, spans, partial(_spawn_worker, matrix, threads), groups=True)
    return reduce_results(workers)


def hybrid_ranges(total: int, processes: int, threads: int) -> list[list[WorkRange]]:
    """Per-process lists of per-thread ranges, the split solve() runs.

    One flat partition into processes * threads ranges, grouped in
    order: process j owns ranges j*threads .. (j+1)*threads - 1.  The
    flattened result is identical to partition(total, processes * threads).
    """
    if processes < 1 or threads < 1:
        raise ValidationError(f"processes and threads must be >= 1, got {processes} and {threads}")
    flat = partition(total, processes * threads)
    return [flat[j * threads : (j + 1) * threads] for j in range(processes)]


def _counted(idx: int, work: WorkRange, result: SolveResult) -> SolveResult:
    """Check that worker ``idx`` scanned exactly its range."""
    if result.evaluated != work.count:
        raise ExecutionError(
            f"worker {idx} evaluated {result.evaluated} permutations, expected {work.count}"
        )
    return result


def _reply(idx: int, line: str, work: WorkRange, code: int, matrix: CostMatrix) -> SolveResult:
    """Decode the one line every worker answers with (empty if it exited
    with ``code`` first) and check that worker ``idx`` scanned ``work``
    and that its tour costs what it claims on ``matrix``."""
    if not line:
        raise ExecutionError(f"worker {idx} exited without a result (exit code {code})")
    try:
        msg = parse_message(line)
        if msg["type"] == "result":
            result = _counted(idx, work, decode_result(msg))
            if (result == EMPTY_RESULT) if work.count == 0 else (
                path_cost(result.optimal_path[1:-1], matrix) == result.optimal_cost
            ):
                return result
            raise ProtocolError(f"tour {result.optimal_path} does not cost {result.optimal_cost}")
    except (ProtocolError, ValidationError) as exc:
        raise ProtocolError(f"worker {idx}: {exc}") from None
    if msg["type"] == "error":
        raise ExecutionError(f"worker {idx} failed: {msg.get('message', '')}")
    raise ProtocolError(f"worker {idx} sent an unexpected {msg['type']!r} message")


# --- worker lifecycle ------------------------------------------------------


def _team_member(matrix: CostMatrix, work: WorkRange, fd: int):
    """Forked child: write one reply line to ``fd`` and leave by os._exit,
    never returning into the caller's stack nor flushing inherited
    stdio.  Its stdout becomes ``fd`` first: in a hybrid worker the
    inherited stdout is the coordinator's reply pipe, which must see EOF
    as soon as the worker dies, not when its team does."""
    try:
        os.dup2(fd, 1)
        try:
            line = result_message(solve_range(matrix, work))
        except Exception as exc:
            line = error_message(f"{type(exc).__name__}: {exc}")
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


def _run_workers(matrix: CostMatrix, spans: list[WorkRange], start, groups=False):
    """Start a child per span by ``start(work, fd) -> pid``, ``fd`` being
    its reply pipe; then, in worker order, read each reply, reap that
    child and check the reply.  The first failure aborts the solve, and
    every exit path closes every pipe and kills the rest and reaps them.
    With ``groups`` each child leads a process group that its fork team
    joins, and every kill is of the group, so a team dies with its
    worker."""
    if not (hasattr(os, "fork") and hasattr(os, "posix_spawnp")):
        raise ExecutionError(f"fork and posix_spawn unavailable on {sys.platform}")
    workers: list[tuple[int, int]] = []  # (pid, reply read end) of every started child
    reaped = 0
    try:
        for idx, work in enumerate(spans):
            pipe: tuple[int, ...] = ()
            try:
                pipe = os.pipe()
                workers.append((start(work, pipe[1]), pipe[0]))
            except OSError as exc:
                for fd in pipe:
                    os.close(fd)
                raise ExecutionError(f"failed to spawn worker {idx}: {exc}") from exc
            os.close(pipe[1])
        results = []
        for idx, ((pid, fd), work) in enumerate(zip(workers, spans)):
            with open(fd, encoding="utf-8", errors="replace", closefd=False) as reply:
                line = reply.readline()
            code = _reap(idx, pid)
            reaped += 1
            if groups and not line:
                # Its team may run on.  Killed after the reap, which keeps
                # the exit code real: the reaped pid stays the team's group
                # id while a member lives, so the signal reaches no stranger.
                try:
                    os.killpg(pid, signal.SIGKILL)
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
                (os.killpg if groups else os.kill)(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def solve_interval_team(matrix: CostMatrix, work: WorkRange, threads: int) -> SolveResult:
    """Scan [work.start, work.end) with a local team of ``threads``
    workers.  The interval is split by the same quotient/remainder rule
    as the global partitioner, so a hybrid worker's local split lines
    up exactly with the flat global partition.  A team of one runs
    inline; a larger team forks."""
    sub = [WorkRange(work.start + r.start, work.start + r.end) for r in partition(work.count, threads)]
    if threads == 1:
        return _counted(0, sub[0], solve_range(matrix, sub[0]))
    # os.fork() is 0 only in the child, which _team_member never lets return
    team = _run_workers(matrix, sub, lambda w, fd: os.fork() or _team_member(matrix, w, fd))
    return reduce_results(team)


def worker_command() -> list[str]:
    override = os.environ.get(WORKER_BIN_ENV_VAR)
    if override:
        return [override, "--worker"]
    return [sys.executable, "-m", "tspbench", "--worker"]


def _worker_env() -> dict:
    # Make self-invocation work from a source checkout as well as an
    # installed package.
    env = dict(os.environ)
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_dir + (os.pathsep + existing if existing else "")
    return env


def _spawn_worker(matrix: CostMatrix, threads: int, work: WorkRange, fd: int) -> int:
    """Start a worker interpreter that answers on ``fd``, as the leader of
    a new process group that its fork team joins, and send it its span,
    the team size ``threads`` and the shutdown in one write."""
    cmd = worker_command()
    task_in, task_out = os.pipe()
    stdio = [(os.POSIX_SPAWN_DUP2, task_in, 0), (os.POSIX_SPAWN_DUP2, fd, 1)]
    try:
        with open(task_out, "w", encoding="utf-8") as pipe:
            try:
                pid = os.posix_spawnp(cmd[0], cmd, _worker_env(), file_actions=stdio,
                                      setpgroup=0, setsigdef=(signal.SIGPIPE,))
            finally:
                os.close(task_in)
            pipe.write(task_message(matrix.costs, work, threads) + shutdown_message())
    except BrokenPipeError:
        pass  # the worker exited early; its empty reply reports the exit code
    return pid


# --- per-backend shorthands ------------------------------------------------


def solve_shared_memory(matrix: CostMatrix, threads: int) -> SolveResult:
    """Partition the permutation space over ``threads`` workers sharing
    the read-only matrix, then reduce their local optima."""
    return solve(matrix, BackendSpec("shared_memory", threads=threads))


def solve_message_passing(matrix: CostMatrix, processes: int) -> SolveResult:
    """Distribute the matrix and one index range to each of
    ``processes`` isolated worker interpreters, then reduce the
    collected results on the coordinator."""
    return solve(matrix, BackendSpec("message_passing", processes=processes))


def solve_hybrid(matrix: CostMatrix, processes: int, threads: int) -> SolveResult:
    """Two-level solve: ``processes`` isolated workers, each running a
    local team of ``threads``.  Workers reduce locally, the coordinator
    reduces their answers, and the flat partition guarantees the same
    work assignment as shared_memory(processes * threads)."""
    return solve(matrix, BackendSpec("hybrid", processes=processes, threads=threads))
