"""Import-cost guards: importing the library must not pull in modules
that only some paths need."""

import os
import subprocess
import sys

import pytest

from tspbench.backends import worker_command
from tspbench.protocol import parse_message

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def loaded_after(statement: str, module: str, *flags: str) -> bool:
    """Whether ``module`` is in sys.modules after ``statement`` runs in
    a fresh interpreter, started with ``flags``, with src/ on PYTHONPATH."""
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    code = f"import sys\n{statement}\nprint({module!r} in sys.modules)"
    out = subprocess.run(
        [sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True, check=True,
        timeout=60,
    )
    return out.stdout.strip() == "True"


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


@pytest.mark.parametrize(
    "module", ["dataclasses", "inspect", "typing", "signal", "enum", "functools", "types"]
)
def test_worker_path_leaves_module_out_under_no_site(module):
    # the modules a worker interpreter, started with -S, imports; a hybrid
    # worker's fork team takes its signal numbers from _signal
    assert not loaded_after("import tspbench.worker, tspbench.backends", module, "-S")


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
    assert out.stdout.split("\n") == [
        "['-S', '-c', 'from tspbench.worker import main; main()'] True", ""
    ]


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
