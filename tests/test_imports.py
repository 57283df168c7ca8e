"""Import-cost guards: importing the library must not pull in modules
that only some paths need."""

import os
import subprocess
import sys

import pytest

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def loaded_after(statement: str, module: str) -> bool:
    """Whether ``module`` is in sys.modules after ``statement`` runs in
    a fresh interpreter with src/ on PYTHONPATH."""
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    code = f"import sys\n{statement}\nprint({module!r} in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    return out.stdout.strip() == "True"


@pytest.mark.parametrize(
    "statement,module",
    [
        ("import tspbench.backends, tspbench.bench", "multiprocessing"),
        ("import tspbench.backends, tspbench.bench", "subprocess"),
        ("import tspbench.worker", "tspbench.backends"),
    ],
)
def test_import_leaves_module_out(statement, module):
    assert not loaded_after(statement, module)
