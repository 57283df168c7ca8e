"""A second, independent oracle at a size itertools cannot reach.

perfbench's Held-Karp solver shares no code with tspbench and returns
the lexicographically smallest optimal tour, so it checks the serial
walk and a forked team on cost, path and tie-break at n = 11, where
``brute_force_best`` in conftest would take minutes, on every kernel
path, and the serial walk at n = 12 on the lanes path.  Near-tie
instances, every cost 1 or 2, check that the lane filter skips no block
that holds a better tour, at the shipped thresholds.
"""

import importlib.util
from pathlib import Path

import pytest

from conftest import KERNEL_PATHS, kernel_path
from tspbench.backends import parse_backend_spec, solve
from tspbench.core import CostMatrix, solve_serial
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


@pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "asymmetric"])
def test_twelve_cities_match_held_karp_on_the_lanes_path(symmetric):
    matrix = generate_instance(12, 612, symmetric)
    expected = load_held_karp()(matrix.costs)
    with kernel_path("lanes"):
        result = solve_serial(matrix)
    assert (result.optimal_cost, result.optimal_path) == expected
    assert result.evaluated == factorial(11)


def near_tie(n, seed, symmetric):
    """generate_instance's matrix with every off-diagonal cost reduced to
    1 or 2: many tours tie or differ by 1, where a lane test that is off
    by one drops the optimum."""
    costs = generate_instance(n, seed, symmetric).costs
    return CostMatrix(tuple(tuple(0 if i == j else 1 + c % 2 for j, c in enumerate(row))
                            for i, row in enumerate(costs)))


@pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "asymmetric"])
@pytest.mark.parametrize("n,seed", [(10, seed) for seed in range(8)] + [(11, seed) for seed in range(3)])
def test_near_ties_match_held_karp(n, seed, symmetric):
    matrix = near_tie(n, seed, symmetric)
    result = solve_serial(matrix)  # a full scan at n >= 10 takes the lanes path
    assert (result.optimal_cost, result.optimal_path) == load_held_karp()(matrix.costs)
    assert result.evaluated == factorial(n - 1)
