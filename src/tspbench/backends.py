"""One two-level executor over the shared permutation partitioner.

solve() splits the index space once into processes x threads contiguous
ranges (hybrid_ranges) and runs each process's span on one of two
process transports with one of two team transports:

* process: on the caller, or in a worker interpreter that the package
  starts by posix_spawn (see worker_command and worker.py).  A worker
  gets everything, the matrix included, over line-delimited JSON (see
  protocol.py), so the coordinator stays a pure master: it partitions,
  distributes, collects and reduces, but evaluates no permutations
  itself.
* team: inline, as a message-passing worker scans its span, or a fork
  team whose member 0 is the process itself, scanning the first range,
  and whose other members are forked and inherit the matrix
  copy-on-write (see team.py, the one module a hybrid worker imports).

Spawned, forked or inline, every worker answers with one wire-protocol
line, and one loop (team._run_workers) starts, reads and reaps them
all, and kills and reaps the rest on failure.  shared_memory is
caller x team, message_passing is worker x inline and hybrid is worker
x team; serial is the reference scan.  Every backend is bit-identical
to serial: each worker scans a disjoint range and the reduction takes
the minimum by (cost, permutation), which is associative and
commutative, so the combination order never matters.
"""

from __future__ import annotations

import os
import sys
from _signal import SIGPIPE  # not signal, whose enum wrappers would cost every import
from collections import namedtuple

from .core import CostMatrix, SolveResult, reduce_results, solve_serial
from .errors import ValidationError
from .permutation import WorkRange, factorial, partition
from .protocol import shutdown_message, task_message
from .team import _run_workers, solve_interval_team

KINDS = ("serial", "shared_memory", "message_passing", "hybrid")

#: Set this to an executable path to replace the default worker
#: interpreter (a testing hook; the replacement is run with no argument
#: and must speak the wire protocol).
WORKER_BIN_ENV_VAR = "TSPBENCH_WORKER_BIN"


class BackendSpec(namedtuple("BackendSpec", "kind threads processes")):
    """One execution configuration, checked like CostMatrix.
    ``parallel_elements`` is the p used for speedup and efficiency
    accounting: threads for shared memory, processes for message
    passing, and their product for hybrid."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    def __new__(cls, kind: str, threads: int | None = None, processes: int | None = None):
        if kind not in KINDS:
            raise ValidationError(f"unknown backend kind {kind!r} (expected one of {KINDS})")
        for name, value, wanted in (
            ("threads", threads, kind in ("shared_memory", "hybrid")),
            ("processes", processes, kind in ("message_passing", "hybrid")),
        ):
            if wanted:
                if type(value) is not int or value < 1:  # a bool is no count
                    raise ValidationError(f"{kind} backend needs {name} >= 1, got {value!r}")
            elif value is not None:
                raise ValidationError(f"{kind} backend does not take {name}")
        return super().__new__(cls, kind, threads, processes)

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
    workers = _run_workers(matrix, spans, lambda w, fd: _spawn_worker(matrix, threads, w, fd))
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


# --- worker start ----------------------------------------------------------


def worker_command() -> list[str]:
    override = os.environ.get(WORKER_BIN_ENV_VAR)
    if override:
        return [override]
    # -S skips site and -c skips runpy and the CLI: the worker imports
    # only what it runs (see worker.py).  -c also puts the cwd first on
    # sys.path, as '', which the code drops before it imports anything,
    # so no module in the caller's cwd shadows the package or the stdlib
    # (PYTHONSAFEPATH leaves the entry out, and nothing is dropped).
    return [sys.executable, "-S", "-c",
            "import sys; sys.path[0] or sys.path.pop(0); from tspbench.worker import main; main()"]


def _worker_env() -> dict:
    # A worker runs under -S, without site-packages, so this is how it
    # finds the package: checked out, installed or editable alike.
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
                                      setpgroup=0, setsigdef=(SIGPIPE,))
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
