"""One two-level executor over the shared permutation partitioner.

solve() splits the index space once into processes x threads contiguous
ranges (hybrid_ranges) and runs each process's span on one of two
process transports with one of two team transports:

* process: on the caller, or in a worker interpreter spawned by
  self-invocation.  A worker gets everything, the matrix included,
  over line-delimited JSON (see protocol.py), so the coordinator stays
  a pure master: it partitions, distributes, collects and reduces, but
  evaluates no permutations itself.
* team: inline for a team of one, else forked workers that inherit the
  matrix copy-on-write and report over private pipes.  CPython's
  interpreter lock keeps OS threads from running the scan in parallel,
  so a fork team is the working analog of threads sharing memory.

shared_memory is caller x team, message_passing is worker x inline and
hybrid is worker x team; serial is the reference scan.  Every backend
is bit-identical to serial: each worker scans a disjoint range and the
reduction takes the minimum by (cost, permutation), which is
associative and commutative, so the combination order never matters.
"""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
from dataclasses import dataclass

from .core import CostMatrix, SolveResult, check_city_count, reduce_results, solve_range, solve_serial
from .errors import ExecutionError, ProtocolError, ValidationError
from .permutation import WorkRange, factorial, partition
from .protocol import decode_result, parse_message, shutdown_message, task_message

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
        wants_threads = self.kind in ("shared_memory", "hybrid")
        wants_processes = self.kind in ("message_passing", "hybrid")
        for name, value, wanted in (
            ("threads", self.threads, wants_threads),
            ("processes", self.processes, wants_processes),
        ):
            if wanted:
                if not isinstance(value, int) or value < 1:
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
    check_city_count(matrix.n)
    threads = spec.threads or 1
    groups = hybrid_ranges(factorial(matrix.n - 1), spec.processes or 1, threads)
    spans = [WorkRange(group[0].start, group[-1].end) for group in groups]
    if spec.kind == "shared_memory":
        return solve_interval_team(matrix, spans[0], threads)
    return reduce_results(_wire_workers(matrix, spans, threads))


def hybrid_ranges(total: int, processes: int, threads: int) -> list[list[WorkRange]]:
    """Per-process lists of per-thread ranges, the split solve() runs.

    One flat partition into processes * threads ranges, grouped in
    order: process j owns ranges j*threads .. (j+1)*threads - 1.  The
    flattened result is identical to partition(total, processes * threads).
    """
    if processes < 1 or threads < 1:
        raise ValidationError(
            f"processes and threads must be >= 1, got {processes} and {threads}"
        )
    flat = partition(total, processes * threads)
    return [flat[j * threads : (j + 1) * threads] for j in range(processes)]


def _counted(idx: int, work: WorkRange, result: SolveResult) -> SolveResult:
    """Check that worker ``idx`` scanned exactly its range."""
    if result.evaluated != work.count:
        raise ExecutionError(
            f"worker {idx} evaluated {result.evaluated} permutations, expected {work.count}"
        )
    return result


# --- teams -----------------------------------------------------------------


def _team_child(matrix, work, conn):
    conn.send(solve_range(matrix, work))
    conn.close()


def _fork_team(matrix: CostMatrix, ranges: list[WorkRange]) -> list[SolveResult]:
    """Run solve_range on a forked worker per range.

    Children inherit the matrix copy-on-write; each sends one small
    result through a private pipe.  Small sends never block, so every
    child exits promptly and join-then-collect cannot deadlock.
    """
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError as exc:
        raise ExecutionError(f"fork start method unavailable: {exc}") from None
    team = []
    try:
        for work in ranges:
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_team_child, args=(matrix, work, send))
            try:
                proc.start()
            except OSError as exc:
                raise ExecutionError(f"shared-memory worker spawn failed: {exc}") from exc
            send.close()
            team.append((proc, recv))
        results = []
        for idx, ((proc, recv), work) in enumerate(zip(team, ranges)):
            proc.join()
            if proc.exitcode != 0:
                raise ExecutionError(
                    f"shared-memory worker {idx} exited with code {proc.exitcode}"
                )
            if not recv.poll():
                raise ExecutionError(f"shared-memory worker {idx} sent no result")
            results.append(_counted(idx, work, recv.recv()))
        return results
    finally:
        for proc, recv in team:
            if proc.is_alive():
                proc.terminate()
                proc.join()
            recv.close()


def solve_interval_team(matrix: CostMatrix, work: WorkRange, threads: int) -> SolveResult:
    """Scan [work.start, work.end) with a local team of ``threads``
    workers.  The interval is split by the same quotient/remainder rule
    as the global partitioner, so a hybrid worker's local split lines
    up exactly with the flat global partition.  A team of one runs
    inline; a larger team forks."""
    if threads < 1:
        raise ValidationError(f"threads must be >= 1, got {threads}")
    sub = [WorkRange(work.start + r.start, work.start + r.end) for r in partition(work.count, threads)]
    if threads == 1:
        return _counted(0, sub[0], solve_range(matrix, sub[0]))
    return reduce_results(_fork_team(matrix, sub))


# --- worker interpreters ---------------------------------------------------


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


def _wire_workers(matrix: CostMatrix, spans: list[WorkRange], threads: int) -> list[SolveResult]:
    """Spawn one child interpreter per span, send each its span and the
    team size ``threads``, collect exactly one result per worker, then
    shut them down.

    Fail-fast: the first worker error, protocol violation or premature
    exit aborts the solve and discards partial results.
    """
    cmd = worker_command()
    env = _worker_env()
    workers: list[subprocess.Popen] = []
    try:
        for idx in range(len(spans)):
            try:
                workers.append(
                    subprocess.Popen(
                        cmd,
                        stdin=subprocess.PIPE,
                        stdout=subprocess.PIPE,
                        text=True,
                        bufsize=1,
                        env=env,
                    )
                )
            except OSError as exc:
                raise ExecutionError(f"failed to spawn worker {idx}: {exc}") from exc
        for idx, (proc, work) in enumerate(zip(workers, spans)):
            try:
                proc.stdin.write(task_message(matrix.costs, work, threads))
                proc.stdin.flush()
            except OSError as exc:
                raise ExecutionError(f"worker {idx} closed its input: {exc}") from exc
        results = []
        for idx, (proc, work) in enumerate(zip(workers, spans)):
            line = proc.stdout.readline()
            if not line:
                raise ExecutionError(
                    f"worker {idx} exited without a result (exit code {proc.poll()})"
                )
            try:
                msg = parse_message(line)
            except ProtocolError as exc:
                raise ProtocolError(f"worker {idx}: {exc}") from None
            if msg["type"] == "error":
                raise ExecutionError(f"worker {idx} failed: {msg.get('message', '')}")
            if msg["type"] != "result":
                raise ProtocolError(f"worker {idx} sent an unexpected {msg['type']!r} message")
            try:
                result = decode_result(msg)
            except (ProtocolError, ValidationError) as exc:
                raise ProtocolError(f"worker {idx}: {exc}") from None
            results.append(_counted(idx, work, result))
        for proc in workers:
            try:
                proc.stdin.write(shutdown_message())
                proc.stdin.flush()
                proc.stdin.close()
            except OSError:
                pass  # already exiting; the wait below judges it
        for idx, proc in enumerate(workers):
            try:
                code = proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                raise ExecutionError(f"worker {idx} ignored shutdown") from None
            if code != 0:
                raise ExecutionError(f"worker {idx} exited with code {code} after shutdown")
        return results
    finally:
        for proc in workers:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


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
