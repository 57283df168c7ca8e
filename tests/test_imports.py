"""Import-cost guards: importing the library must not pull in modules
that only some paths need."""

import fcntl
import importlib.util
import marshal
import os
import shutil
import subprocess
import sys

import pytest

from tspbench import backends
from tspbench.backends import parse_backend_spec, solve, worker_command
from tspbench.core import solve_serial
from tspbench.instances import generate_instance
from tspbench.protocol import parse_message

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


#: The code every worker interpreter runs: it drops the cwd's entry from
#: sys.path and, given a code pipe's fd, imports the package from it.
BOOTSTRAP = """\
import sys; sys.path[0] or sys.path.pop(0)
if sys.argv[1:]:
    import marshal
    from _frozen_importlib_external import spec_from_file_location
    with open(int(sys.argv[1]), 'rb') as pipe: code = marshal.loads(pipe.read())
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


def printed_by_shipped_worker(monkeypatch, tmp_path, team, statement, expression):
    """What ``print(expression)`` writes after ``statement`` runs in a
    worker interpreter that read the shipped code for a fork ``team`` or
    none: the real command, with ``statement`` in place of its entry into
    worker.main, and a PYTHONPATH that leads to no package."""
    monkeypatch.delenv("TSPBENCH_WORKER_BIN", raising=False)
    *cmd, boot = worker_command()
    boot = boot.rpartition("\n")[0]  # all but the line that enters worker.main
    read, write = os.pipe()
    try:
        with open(write, "wb") as pipe:  # no wait: the code fits in the pipe
            pipe.write(backends._worker_code(team))
        out = subprocess.run(
            [*cmd, f"{boot}\n{statement}\nprint({expression})", str(read)], pass_fds=(read,),
            env=dict(os.environ, PYTHONPATH=str(tmp_path)), capture_output=True, text=True,
            check=True, timeout=60,
        )
    finally:
        os.close(read)
    return out.stdout.strip()


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
    # code pipe by the bootstrap's finder and known by its source path
    statement = HYBRID_TASK if team else "import tspbench.worker"
    modules = sorted([*WORKER_MODULES, *["tspbench.team"] * team])
    expression = f"{'tuple(result), ' * team}{PACKAGE_LOADERS}"
    printed = printed_by_shipped_worker(monkeypatch, tmp_path, team, statement, expression)
    loaders = str([(m, "Shipped", True) for m in modules])
    assert printed == (f"(80, (0, 1, 3, 2, 0), 6) {loaders}" if team else loaders)


@pytest.mark.parametrize("team", [False, True], ids=["procs", "hybrid"])
def test_shipped_code_is_the_loaders_own(team):
    shipped = marshal.loads(backends._worker_code(team))
    assert sorted(shipped) == sorted([*WORKER_MODULES, *["tspbench.team"] * team])
    for name, code in shipped.items():
        spec = importlib.util.find_spec(name)
        assert code == spec.loader.get_code(name) and code.co_filename == spec.origin


@pytest.mark.skipif(not hasattr(fcntl, "F_GETPIPE_SZ"), reason="needs the pipe capacity")
@pytest.mark.parametrize("team", [False, True], ids=["procs", "hybrid"])
def test_shipped_code_fits_in_the_pipe(team):
    # A larger write would wait for the worker to read: spawns would run
    # one after another, and a worker stuck before its read would hang
    # the coordinator.
    read, write = os.pipe()
    try:
        capacity = fcntl.fcntl(read, fcntl.F_GETPIPE_SZ)
    finally:
        os.close(read)
        os.close(write)
    assert len(backends._worker_code(team)) < capacity


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
    # set; here it holds a stdlib module and a package that both raise.
    (tmp_path / "reprlib.py").write_text("raise ImportError('reprlib from the cwd')\n")
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
