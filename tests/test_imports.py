"""Import-cost guards: importing the library must not pull in modules
that only some paths need."""

import os
import subprocess
import sys

import pytest

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


def test_library_leaves_typing_out():
    # under -S, because site itself may import typing (a .pth file can)
    assert not loaded_after("import tspbench.bench, tspbench.cli, tspbench.worker", "typing", "-S")
