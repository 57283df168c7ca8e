"""The Held-Karp oracle against itertools brute force at every small n.

Run with ``python3 -m pytest perfbench/test_oracle.py``.
"""

import itertools
import random

import pytest

from oracle import held_karp


def brute_force(rows):
    n = len(rows)
    best = None
    for perm in itertools.permutations(range(1, n)):
        tour = (0, *perm, 0)
        key = (sum(rows[a][b] for a, b in zip(tour, tour[1:])), tour)
        if best is None or key < best:
            best = key
    return best


def random_rows(n, seed, symmetric, high):
    rng = random.Random(seed)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j or (symmetric and j < i):
                continue
            rows[i][j] = rng.randint(1, high)
            if symmetric:
                rows[j][i] = rows[i][j]
    return rows


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("high", [3, 1000])
def test_matches_brute_force(n, symmetric, high):
    # high=3 makes many tours tie, so the tie-break is exercised too.
    for seed in range(4):
        rows = random_rows(n, seed, symmetric, high)
        assert held_karp(rows) == brute_force(rows)


@pytest.mark.parametrize("n", range(2, 9))
def test_all_equal_costs_tie_every_tour(n):
    rows = [[0 if i == j else 7 for j in range(n)] for i in range(n)]
    assert held_karp(rows) == (7 * n, (0, *range(1, n), 0))
    assert held_karp(rows) == brute_force(rows)


def test_rejects_non_square():
    with pytest.raises(ValueError):
        held_karp([[0, 1]])
