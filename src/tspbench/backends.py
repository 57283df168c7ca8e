"""One two-level executor over the shared permutation partitioner.

solve() splits the index space once into processes x threads contiguous
ranges (hybrid_ranges) and runs each process's span on one of two
process transports with one of two team transports:

* process: on the caller, or in a worker interpreter that the package
  starts by posix_spawn (see worker_command and worker.py).  A worker
  reads on its stdin the code of every package module a worker runs and
  core's block, one map per coordinator, and then its task, the matrix
  included, as line-delimited JSON (see protocol.py), so the coordinator
  stays a pure master: it partitions, distributes, collects and reduces,
  but evaluates no permutations itself.
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

import marshal
import os
import sys
from _signal import SIGPIPE  # not signal, whose enum wrappers would cost every import

from .core import CostMatrix, SolveResult, block_code, reduce_results, solve_serial
from .errors import ValidationError, record
from .permutation import WorkRange, factorial, partition
from .protocol import shutdown_message, task_message
from .team import _run_workers, solve_interval_team

KINDS = ("serial", "shared_memory", "message_passing", "hybrid")

#: Set this to an executable path to replace the default worker
#: interpreter (a testing hook; the replacement is run with no argument
#: and must speak the wire protocol).
WORKER_BIN_ENV_VAR = "TSPBENCH_WORKER_BIN"


class BackendSpec(record("BackendSpec", "kind threads processes")):
    """One execution configuration, checked like CostMatrix.
    ``parallel_elements`` is the p used for speedup and efficiency
    accounting: threads for shared memory, processes for message
    passing, and their product for hybrid."""

    __slots__ = ()

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


#: The package modules a worker may import; only a hybrid worker's fork
#: team imports team.
WORKER_MODULES = ("tspbench", "tspbench.core", "tspbench.errors", "tspbench.permutation",
                  "tspbench.protocol", "tspbench.team", "tspbench.worker")
#: The name under which the code map carries core's block, as a module
#: that defines it; worker.main imports it.
BLOCK_MODULE = "tspbench.block5"
_shipped = b""  # every worker's code, marshalled, built once per process


def worker_command() -> list[str]:
    override = os.environ.get(WORKER_BIN_ENV_VAR)
    if override:
        return [override]
    # -S skips site and -c skips runpy and the CLI: the worker imports
    # only what it runs (see worker.py).  -c also puts the cwd first on
    # sys.path, as '', which the code drops before it imports anything,
    # so no module in the caller's cwd shadows the package or the stdlib
    # (PYTHONSAFEPATH leaves the entry out, and nothing is dropped).
    # Given an argument, it reads from its stdin, ahead of its task, an
    # 8-byte size and that much code, and imports the package from it by a
    # finder that goes first and imports nothing (importlib's, frozen).
    return [sys.executable, "-S", "-c", (
        "import sys; sys.path[0] or sys.path.pop(0)\n"
        "if sys.argv[1:]:\n"
        "    import marshal\n"
        "    from _frozen_importlib_external import spec_from_file_location\n"
        "    size = int.from_bytes(sys.stdin.buffer.read(8), 'big')\n"
        "    code = marshal.loads(sys.stdin.buffer.read(size))\n"
        "    class Shipped:\n"
        "        find_spec = lambda name, *_: spec_from_file_location(name, code[name].co_filename,"
        " loader=Shipped, submodule_search_locations=None if '.' in name else [])"
        " if name in code else None\n"
        "        create_module = lambda _: None\n"
        "        exec_module = lambda module: exec(code[module.__name__], module.__dict__)\n"
        "    sys.meta_path.insert(0, Shipped)\n"
        "from tspbench.worker import main; main()"
    )]


def _worker_env() -> dict:
    # A worker runs under -S, without site-packages, so this is how it
    # finds the package: checked out, installed or editable alike.
    env = dict(os.environ)
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_dir + (os.pathsep + existing if existing else "")
    return env


def _worker_code() -> bytes:
    """The code of each of WORKER_MODULES and core's block, marshalled by
    name: one map for every worker, built once per process.  Each
    module's own loader reads its code from a .pyc where one exists, or
    compiles it in memory.  The coordinator holds the block from here on."""
    global _shipped
    if not _shipped:
        from importlib.util import find_spec  # site has loaded it; -S pays at the first spawn

        code = {name: find_spec(name).loader.get_code(name) for name in WORKER_MODULES}
        _shipped = marshal.dumps(code | {BLOCK_MODULE: block_code()})
    return _shipped


def _spawn_worker(matrix: CostMatrix, threads: int, work: WorkRange, fd: int) -> int:
    """Start a worker interpreter that answers on ``fd``, as the leader of
    a new process group that its fork team joins.  Send it on its stdin,
    in one write, the code it runs (unless TSPBENCH_WORKER_BIN replaces
    it), then its span, the team size ``threads`` and the shutdown."""
    cmd = worker_command()
    ship = not os.environ.get(WORKER_BIN_ENV_VAR)
    read, write = os.pipe()
    try:
        pid = os.posix_spawnp(cmd[0], cmd + ["shipped"] * ship, _worker_env(),
                              file_actions=[(os.POSIX_SPAWN_DUP2, read, 0),
                                            (os.POSIX_SPAWN_DUP2, fd, 1)],
                              setpgroup=0, setsigdef=(SIGPIPE,))
    except BaseException:
        os.close(write)
        raise
    finally:
        os.close(read)
    code = _worker_code() if ship else b""  # built at the first spawn while that worker starts
    data = len(code).to_bytes(8, "big") * ship + code
    data += (task_message(matrix.costs, work, threads) + shutdown_message()).encode()
    _make_room(write, len(data))
    _send(write, data)
    return pid


def _make_room(fd: int, size: int) -> None:
    """Let the pipe ``fd`` hold ``size`` bytes, so that writing them waits
    on no reader, where Linux's F_SETPIPE_SZ allows it.  Elsewhere the
    write waits until the worker reads its stdin, which it does first."""
    try:
        from fcntl import F_GETPIPE_SZ, F_SETPIPE_SZ, fcntl

        if fcntl(fd, F_GETPIPE_SZ) < size:
            fcntl(fd, F_SETPIPE_SZ, size)
    except (ImportError, OSError):
        pass


def _send(fd: int, data: bytes) -> None:
    """Write ``data`` to the pipe ``fd`` and close it."""
    try:
        with open(fd, "wb") as pipe:
            pipe.write(data)
    except BrokenPipeError:
        pass  # the worker exited early; its empty reply reports the exit code


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
