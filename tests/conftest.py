import itertools
import os

import pytest

from tspbench.core import CostMatrix

# 4-city example with hand-checkable leg sums; two tours cost 80
# ((1,3,2) and (2,3,1)) so it also exercises the tie-break.
FOUR_CITY_ROWS = (
    (0, 10, 15, 20),
    (10, 0, 35, 25),
    (15, 35, 0, 30),
    (20, 25, 30, 0),
)


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail any test that leaves a child process behind, running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left child {pid} unreaped" if pid else "the test left a child running")


@pytest.fixture
def four_city_matrix() -> CostMatrix:
    return CostMatrix(FOUR_CITY_ROWS)


def tour_cost(rows, perm) -> int:
    """Independent accumulation oracle: sum the legs directly."""
    cost = rows[0][perm[0]]
    for a, b in zip(perm, perm[1:]):
        cost += rows[a][b]
    return cost + rows[perm[-1]][0]


def brute_force_best(rows):
    """Oracle solver: enumerate tours with itertools.permutations (a
    code path fully independent of the library's unrank/successor
    scan), minimum by (cost, permutation)."""
    n = len(rows)
    best = None
    for perm in itertools.permutations(range(1, n)):
        key = (tour_cost(rows, perm), perm)
        if best is None or key < best:
            best = key
    cost, perm = best
    return cost, (0, *perm, 0)


def all_ones(n: int) -> CostMatrix:
    return CostMatrix(tuple(tuple(0 if i == j else 1 for j in range(n)) for i in range(n)))
