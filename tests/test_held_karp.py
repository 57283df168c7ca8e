"""A second, independent oracle at a size itertools cannot reach.

perfbench's Held-Karp solver shares no code with tspbench and returns
the lexicographically smallest optimal tour, so it checks the serial
walk and a forked team on cost, path and tie-break at n = 11, where
``brute_force_best`` in conftest would take minutes, on both kernel
paths.
"""

import importlib.util
from pathlib import Path

import pytest

from conftest import KERNEL_PATHS, kernel_path
from tspbench.backends import parse_backend_spec, solve
from tspbench.core import solve_serial
from tspbench.instances import generate_instance
from tspbench.permutation import factorial

ORACLE_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "oracle.py"


def load_held_karp():
    spec = importlib.util.spec_from_file_location("perfbench_oracle", ORACLE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.held_karp


@pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "asymmetric"])
def test_eleven_cities_match_held_karp(symmetric):
    matrix = generate_instance(11, 611, symmetric)
    expected = load_held_karp()(matrix.costs)
    for path in KERNEL_PATHS:
        with kernel_path(path):
            results = (solve_serial(matrix), solve(matrix, parse_backend_spec("threads:2")))
        for result in results:
            assert (result.optimal_cost, result.optimal_path) == expected, path
            assert result.evaluated == factorial(10)
