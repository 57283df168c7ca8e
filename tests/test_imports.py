"""Import-cost guards: importing the library must not pull in modules
that only some paths need."""

import ast
import fcntl
import importlib.util
import marshal
import os
import shutil
import subprocess
import sys

import pytest

from tspbench import backends, core
from tspbench.backends import parse_backend_spec, solve, worker_command
from tspbench.core import CostMatrix, solve_range, solve_serial
from tspbench.errors import ProtocolError, ValidationError
from tspbench.instances import generate_instance
from tspbench.permutation import WorkRange
from tspbench.protocol import (
    decode_result, decode_task, parse_message, shutdown_message, task_message,
)

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def printed_after(statement: str, expression: str, *flags: str) -> str:
    """What ``print(expression)`` writes after ``statement`` runs in a
    fresh interpreter, started with ``flags``, with src/ on PYTHONPATH."""
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    code = f"import sys\n{statement}\nprint({expression})"
    out = subprocess.run(
        [sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True, check=True,
        timeout=60,
    )
    return out.stdout.strip()


def loaded_after(statement: str, module: str, *flags: str) -> bool:
    """Whether ``module`` is in sys.modules after ``statement`` runs (see
    printed_after)."""
    return printed_after(statement, f"{module!r} in sys.modules", *flags) == "True"


#: An expression for the package's modules in sys.modules, sorted.
PACKAGE_MODULES = "sorted(m for m in sys.modules if m.partition('.')[0] == 'tspbench')"

#: The package modules a worker interpreter imports.
WORKER_MODULES = ["tspbench", "tspbench.core", "tspbench.errors", "tspbench.permutation",
                  "tspbench.protocol", "tspbench.worker"]

#: All that a worker imports past the modules ``python -S`` starts with,
#: besides the package's own: two builtins and json's C accelerator.
FLOOR_MODULES = ["_collections", "_json", "itertools"]

#: What no worker imports, a hybrid one included.
HEAVY_MODULES = ["dataclasses", "inspect", "typing", "signal", "enum", "functools", "types"]


@pytest.mark.parametrize(
    "statement,module",
    [
        ("import tspbench.backends, tspbench.bench", "multiprocessing"),
        ("import tspbench.backends, tspbench.bench", "subprocess"),
        ("import tspbench.worker", "tspbench.backends"),
        ("import tspbench", "tspbench.core"),
        (
            "import contextlib, io\n"
            "from tspbench.cli import cli_dispatch\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    cli_dispatch(['--help'])",
            "tspbench.core",
        ),
    ],
)
def test_import_leaves_module_out(statement, module):
    assert not loaded_after(statement, module)


@pytest.mark.parametrize("module", ["typing", "dataclasses", "inspect"])
def test_library_leaves_typing_out(module):
    # under -S, because site itself may import typing (a .pth file can)
    assert not loaded_after("import tspbench.bench, tspbench.cli, tspbench.worker", module, "-S")


@pytest.mark.parametrize("module", HEAVY_MODULES)
def test_worker_path_leaves_module_out_under_no_site(module):
    # a worker's modules, started with -S, and the coordinator's backends;
    # both take their signal numbers from _signal
    assert not loaded_after("import tspbench.worker, tspbench.backends", module, "-S")


@pytest.mark.parametrize("module", HEAVY_MODULES)
def test_hybrid_worker_path_leaves_module_out_under_no_site(module):
    # the modules a hybrid worker imports: its fork team comes from team
    assert not loaded_after("import tspbench.worker, tspbench.team", module, "-S")


def test_worker_imports_only_the_kernel_and_the_protocol():
    assert printed_after("import tspbench.worker", PACKAGE_MODULES, "-S") == str(WORKER_MODULES)


def test_hybrid_task_adds_only_the_team():
    # a team of two forks; the printed result is the 4-city optimum
    statement = (
        "from tspbench.protocol import Task\n"
        "from tspbench.worker import _run_task\n"
        "rows = ((0, 10, 15, 20), (10, 0, 35, 25), (15, 35, 0, 30), (20, 25, 30, 0))\n"
        "result = _run_task(Task(4, rows, 0, 6, 2))"
    )
    printed = printed_after(statement, f"tuple(result), {PACKAGE_MODULES}", "-S")
    assert printed == f"(80, (0, 1, 3, 2, 0), 6) {sorted([*WORKER_MODULES, 'tspbench.team'])}"


@pytest.mark.parametrize("team", [False, True], ids=["procs", "hybrid"])
def test_worker_imports_nothing_past_the_floor(team):
    # everything, standard library included, that a worker's imports add
    # to what python -S starts with: no os, collections, reprlib or __future__
    statement = f"start = set(sys.modules)\nimport tspbench.worker{', tspbench.team' * team}"
    printed = printed_after(statement, "sorted(set(sys.modules) - start)", "-S")
    assert printed == str(sorted([*FLOOR_MODULES, *WORKER_MODULES, *["tspbench.team"] * team]))


@pytest.mark.parametrize("module", ["collections", "reprlib"])
def test_coordinator_modules_leave_module_out_under_no_site(module):
    # every record is made by errors.record, and reprlib waits for an error
    assert not loaded_after("import tspbench.backends, tspbench.instances", module, "-S")


@pytest.mark.parametrize(
    "reject,text",
    [
        (lambda: parse_message('"' + "y" * 300 + '"'),
         "message is not an object: '\"yyyyyyyyyyy...yyyyyyyyyyyy\"'"),
        (lambda: parse_message('{"v":"' + "1" * 100 + '","type":"task"}'),
         "unsupported protocol version '111111111111...1111111111111'"),
        (lambda: parse_message('{"v":1,"type":"' + "z" * 50 + '"}'),
         "unknown message type 'zzzzzzzzzzzz...zzzzzzzzzzzzz'"),
        (lambda: decode_task({"n": "x" * 50}),
         "field 'n' must be an integer >= 2, got 'xxxxxxxxxxxx...xxxxxxxxxxxxx'"),
        (lambda: decode_task({"n": 2, "matrix": [[0, 1], [1, 0]], "start": "x" * 50}),
         "field 'start' must be a decimal string, got 'xxxxxxxxxxxx...xxxxxxxxxxxxx'"),
        (lambda: decode_result({"cost": 1, "path": [*range(100), "a"]}),
         "field 'path' must be a list of integers, got [0, 1, 2, 3, 4, 5, ...]"),
        (lambda: CostMatrix(((0, 2**200), (1, 0))),
         "cost[0][1] = 160693804425899027...2993782792835301376 exceeds the maximum 1000000000"),
    ],
    ids=["not-an-object", "version", "type", "int-field", "index-field", "path", "cost"],
)
def test_error_quotes_its_value_through_reprlib(reject, text):
    # reprlib, imported only here, still shortens each quoted value
    with pytest.raises((ProtocolError, ValidationError)) as info:
        reject()
    assert str(info.value) == text


#: The code every worker interpreter runs: it drops the cwd's entry from
#: sys.path and, given an argument, reads an 8-byte size and that much
#: code from stdin and imports the package from it.
BOOTSTRAP = """\
import sys; sys.path[0] or sys.path.pop(0)
if sys.argv[1:]:
    import marshal
    from _frozen_importlib_external import spec_from_file_location
    size = int.from_bytes(sys.stdin.buffer.read(8), 'big')
    code = marshal.loads(sys.stdin.buffer.read(size))
    class Shipped:
        find_spec = lambda name, *_: spec_from_file_location(name, code[name].co_filename, \
loader=Shipped, submodule_search_locations=None if '.' in name else []) if name in code else None
        create_module = lambda _: None
        exec_module = lambda module: exec(code[module.__name__], module.__dict__)
    sys.meta_path.insert(0, Shipped)
from tspbench.worker import main; main()"""

#: A hybrid task, a team of two forks, whose result is the 4-city optimum.
HYBRID_TASK = (
    "from tspbench.protocol import Task\n"
    "from tspbench.worker import _run_task\n"
    "rows = ((0, 10, 15, 20), (10, 0, 35, 25), (15, 35, 0, 30), (20, 25, 30, 0))\n"
    "result = _run_task(Task(4, rows, 0, 6, 2))"
)


def printed_by_shipped_worker(monkeypatch, tmp_path, statement, expression):
    """What ``print(expression)`` writes after ``statement`` runs in a
    worker interpreter that read the shipped code: the real command,
    with ``statement`` in place of its entry into worker.main, and a
    PYTHONPATH that leads to no package.  The code comes on stdin behind
    its 8-byte size, with an argument, as _spawn_worker sends it."""
    monkeypatch.delenv("TSPBENCH_WORKER_BIN", raising=False)
    *cmd, boot = worker_command()
    boot = boot.rpartition("\n")[0]  # all but the line that enters worker.main
    code = backends._worker_code()
    out = subprocess.run(
        [*cmd, f"{boot}\n{statement}\nprint({expression})", "shipped"],
        input=len(code).to_bytes(8, "big") + code,
        env=dict(os.environ, PYTHONPATH=str(tmp_path)), capture_output=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr.decode()
    return out.stdout.decode().strip()


#: An expression for the loader of each package module in sys.modules,
#: by name, and whether its __file__ is the module's source under src/.
PACKAGE_LOADERS = (
    "sorted((m, sys.modules[m].__loader__.__name__, sys.modules[m].__file__ == "
    f"{SRC_DIR!r} + '/' + m.replace('.', '/') + ('/__init__' if m == 'tspbench' else '') + '.py')"
    " for m in sys.modules if m.partition('.')[0] == 'tspbench')"
)


@pytest.mark.parametrize("team", [False, True], ids=["procs", "hybrid"])
def test_shipped_worker_imports_the_same_modules_from_the_shipped_code(monkeypatch, tmp_path, team):
    # the package modules that the two tests above pin, each run from the
    # shipped code by the bootstrap's finder and known by its source path
    statement = HYBRID_TASK if team else "import tspbench.worker"
    modules = sorted([*WORKER_MODULES, *["tspbench.team"] * team])
    expression = f"{'tuple(result), ' * team}{PACKAGE_LOADERS}"
    printed = printed_by_shipped_worker(monkeypatch, tmp_path, statement, expression)
    loaders = str([(m, "Shipped", True) for m in modules])
    assert printed == (f"(80, (0, 1, 3, 2, 0), 6) {loaders}" if team else loaders)


@pytest.mark.parametrize("team", [False, True], ids=["procs", "hybrid"])
def test_shipped_worker_imports_nothing_past_the_floor(monkeypatch, tmp_path, team):
    # the same floor in a worker that runs the code the coordinator sent,
    # a hybrid one through its first team task
    start = ast.literal_eval(printed_after("", "sorted(sys.modules)", "-S"))
    statement = HYBRID_TASK if team else "import tspbench.worker"
    printed = printed_by_shipped_worker(monkeypatch, tmp_path, statement, "sorted(sys.modules)")
    added = sorted(set(ast.literal_eval(printed.rpartition("\n")[2])) - set(start))
    assert added == sorted([*FLOOR_MODULES, *WORKER_MODULES, *["tspbench.team"] * team])


@pytest.mark.parametrize("team", [False, True], ids=["procs", "hybrid"])
def test_shipped_code_is_the_loaders_own(team):
    # one map for every worker: each module a worker may import, team's
    # included whether this kind of worker imports it or not, and core's
    # block as the module block5
    shipped = marshal.loads(backends._worker_code())
    block = shipped.pop("tspbench.block5")
    assert block == core.block_code() and block.co_filename == "<block5>"
    assert set([*WORKER_MODULES, *["tspbench.team"] * team]) <= set(shipped)
    assert sorted(shipped) == sorted([*WORKER_MODULES, "tspbench.team"])
    for name, code in shipped.items():
        spec = importlib.util.find_spec(name)
        assert code == spec.loader.get_code(name) and code.co_filename == spec.origin


@pytest.mark.parametrize("team", [False, True], ids=["procs", "hybrid"])
def test_shipped_worker_holds_the_block_before_its_first_scan(monkeypatch, tmp_path, team):
    # worker.main, up to the loop that reads tasks: that loop is replaced
    # by one task of an n = 8 half (2,520 leaves), and every compile()
    # call from the start is recorded: none is made.
    matrix = generate_instance(8, 0, symmetric=False)
    statement = (
        "import builtins\n"
        "compiled, real_compile = [], builtins.compile\n"
        "builtins.compile = lambda *args, **kw: compiled.append(args[1]) or real_compile(*args, **kw)\n"
        "from tspbench import core, worker\n"
        "from tspbench.protocol import Task\n"
        "def first_task():\n"
        "    held = core._block is not None\n"
        f"    result = worker._run_task(Task(8, {matrix.costs!r}, 0, 2520, {2 if team else 1}))\n"
        "    print(held, core._block5() is core._block, tuple(result), compiled)\n"
        "    return 0\n"
        "worker.run_worker = first_task\n"
        "worker.main()"
    )
    printed = printed_by_shipped_worker(monkeypatch, tmp_path, statement, "'main returned'")
    assert printed == f"True True {tuple(solve_range(matrix, WorkRange(0, 2520)))} []"


@pytest.mark.skipif(not hasattr(fcntl, "F_SETPIPE_SZ"), reason="needs the pipe capacity")
@pytest.mark.parametrize("team", [False, True], ids=["procs", "hybrid"])
def test_shipped_code_fits_in_the_pipe(team):
    # One map serves both kinds of worker.  A worker's stdin, with the
    # room _spawn_worker makes in it, takes the whole map and a task line
    # at once.  A write that waited for the worker to read would run
    # spawns one after another, and a worker stuck before its read would
    # hang the coordinator.
    task = task_message(generate_instance(12, 0, symmetric=False).costs, WorkRange(0, 39916800),
                        2 if team else 1)
    code = backends._worker_code()
    data = len(code).to_bytes(8, "big") + code + (task + shutdown_message()).encode()
    read, write = os.pipe()
    try:
        backends._make_room(write, len(data))
        os.set_blocking(write, False)
        assert os.write(write, data) == len(data)
    finally:
        os.close(read)
        os.close(write)


@pytest.mark.skipif(not hasattr(fcntl, "F_SETPIPE_SZ"), reason="needs the pipe capacity")
@pytest.mark.parametrize("threads", [1, 2], ids=["procs", "hybrid"])
def test_spawn_does_not_wait_for_the_worker_to_read_its_code(threads):
    # A worker stopped as soon as it is spawned, so that it reads nothing
    # of its stdin until the spawn has returned: the spawn writes the
    # code and the task in one write and returns.  Then the worker goes
    # on, reads its stdin to its end and exits.
    code = (
        "import os, signal, sys\n"
        "from tspbench import backends\n"
        "from tspbench.instances import generate_instance\n"
        "from tspbench.permutation import WorkRange\n"
        "backends.worker_command = lambda: [sys.executable, '-S', '-c', "
        "'import sys; sys.stdin.buffer.read()']\n"
        "spawn = os.posix_spawnp\n"
        "os.posix_spawnp = lambda *a, **kw: os.kill(pid := spawn(*a, **kw), signal.SIGSTOP) or pid\n"
        "read, write = os.pipe()\n"
        f"pid = backends._spawn_worker(generate_instance(8, 0, symmetric=False), {threads}, "
        "WorkRange(0, 5040), write)\n"
        "os.kill(pid, signal.SIGCONT)\n"
        "os.close(write)\n"
        "print(os.read(read, 1), os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))"
    )
    env = {k: v for k, v in os.environ.items() if k != "TSPBENCH_WORKER_BIN"}
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(env, PYTHONPATH=SRC_DIR), capture_output=True,
        text=True, check=True, timeout=60,
    )
    assert out.stdout == "b'' 0\n"


def test_shipped_workers_solve_with_no_package_on_their_path(monkeypatch, tmp_path):
    # the workers' PYTHONPATH leads to an empty directory, so they can run
    # only the code the coordinator sends
    monkeypatch.delenv("TSPBENCH_WORKER_BIN", raising=False)
    monkeypatch.setattr(backends, "_worker_env", lambda: dict(os.environ, PYTHONPATH=str(tmp_path)))
    m = generate_instance(8, 0, symmetric=False)
    for token in ("procs:2", "hybrid:1x2"):
        assert solve(m, parse_backend_spec(token)) == solve_serial(m)


@pytest.mark.parametrize("no_bytecode", ["1", None], ids=["PYTHONDONTWRITEBYTECODE", "default"])
def test_solves_write_bytecode_only_where_allowed(tmp_path, no_bytecode):
    # a copy of the package, solved on by a coordinator and its workers
    shutil.copytree(os.path.join(SRC_DIR, "tspbench"), tmp_path / "tspbench")
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONDONTWRITEBYTECODE", "TSPBENCH_WORKER_BIN")}
    if no_bytecode:
        env["PYTHONDONTWRITEBYTECODE"] = no_bytecode
    code = (
        "from tspbench.backends import parse_backend_spec, solve\n"
        "from tspbench.instances import generate_instance\n"
        "m = generate_instance(7, 0, symmetric=False)\n"
        "print(solve(m, parse_backend_spec('procs:2')) == solve(m, parse_backend_spec('hybrid:1x2')))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], cwd=tmp_path, env=dict(env, PYTHONPATH=str(tmp_path)),
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout == "True\n"
    assert (tmp_path / "tspbench" / "__pycache__").exists() is (no_bytecode is None)


def test_spawned_worker_finds_the_package_through_its_env_alone(tmp_path):
    # The worker runs under -S from a cwd without the package, so only
    # the PYTHONPATH that _worker_env sets can lead it there.
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "TSPBENCH_WORKER_BIN")}
    code = (
        f"import sys\nsys.path.insert(0, {SRC_DIR!r})\n"
        "from tspbench.backends import parse_backend_spec, solve, worker_command\n"
        "from tspbench.core import solve_serial\n"
        "from tspbench.instances import generate_instance\n"
        "m = generate_instance(7, 0, symmetric=False)\n"
        "print(worker_command()[1:], solve(m, parse_backend_spec('procs:2')) == solve_serial(m))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True,
        check=True, timeout=60,
    )
    assert out.stdout.split("\n") == [f"{['-S', '-c', BOOTSTRAP]} True", ""]


@pytest.mark.parametrize("safe_path", [None, "1"], ids=["cwd-on-path", "PYTHONSAFEPATH"])
def test_spawned_worker_imports_nothing_from_the_cwd(tmp_path, safe_path):
    # Under -c, sys.path starts with the cwd ('') unless PYTHONSAFEPATH is
    # set; here it holds a stdlib module that every worker imports, the
    # one it loads from a path, and a package, and both raise.
    (tmp_path / "_json.py").write_text("raise ImportError('_json from the cwd')\n")
    (tmp_path / "tspbench").mkdir()
    (tmp_path / "tspbench" / "__init__.py").write_text("raise ImportError('package from the cwd')\n")
    drop = ("PYTHONPATH", "TSPBENCH_WORKER_BIN", "PYTHONSAFEPATH")
    env = {k: v for k, v in os.environ.items() if k not in drop}
    if safe_path:
        env["PYTHONSAFEPATH"] = safe_path
    code = (
        f"import sys\nsys.path[:] = [{SRC_DIR!r}, *filter(None, sys.path)]\n"
        "from tspbench.backends import parse_backend_spec, solve\n"
        "from tspbench.core import solve_serial\n"
        "from tspbench.instances import generate_instance\n"
        "m = generate_instance(7, 0, symmetric=False)\n"
        "print([solve(m, parse_backend_spec(s)) == solve_serial(m) for s in ('procs:2', 'hybrid:1x2')])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert (out.returncode, out.stdout, out.stderr) == (0, "[True, True]\n", "")


@pytest.mark.parametrize("module", ["json", "re", "enum", "runpy", "tspbench.cli"])
def test_worker_leaves_module_out_under_no_site(module):
    # the worker is entered directly, and its codec is json's C accelerator
    assert not loaded_after("import tspbench.worker", module, "-S")


@pytest.mark.parametrize(
    "line, reason",
    [
        ("not json\n", "Expecting value: line 1 column 1 (char 0)"),
        ('{"v":1,\n', "Expecting property name enclosed in double quotes"),
    ],
    ids=["not-json", "broken-object"],
)
def test_worker_answers_a_malformed_line_with_one_error_and_exit_1(monkeypatch, line, reason):
    # the real worker command: its one error line is flushed before os._exit
    monkeypatch.delenv("TSPBENCH_WORKER_BIN", raising=False)
    out = subprocess.run(
        worker_command(), input=line, env=dict(os.environ, PYTHONPATH=SRC_DIR),
        capture_output=True, text=True, timeout=60,
    )
    assert (out.returncode, out.stderr) == (1, "")
    (reply,) = out.stdout.splitlines()
    message = parse_message(reply)
    assert message["type"] == "error"
    assert message["message"].startswith(f"ProtocolError: malformed message line: {reason}")
