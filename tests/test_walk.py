"""The prefix-cost walk against the scan it replaced.

``_scan`` below is the library's previous kernel, kept verbatim as the
reference: it recomputes every tour from scratch and steps with
next_permutation.  solve_range must return what the old solve_range
returned, (cost, path, evaluated), on every range checked here, on
symmetric, asymmetric and all-ones matrices, with and without the
fault variable, and on both kernel paths: the plain walk and the
5-level blocks.  The block's 120 totals are also checked one by one
against path_cost.
"""

import os
from unittest import mock

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from conftest import KERNEL_PATHS, all_ones, kernel_path, next_permutation
from tspbench import core
from tspbench.core import (
    EMPTY_RESULT,
    FAULT_ENV_VAR,
    INFINITE_COST,
    MAX_CITIES,
    SolveResult,
    path_cost,
    solve_range,
    solve_serial,
)
from tspbench.errors import ValidationError
from tspbench.instances import generate_instance
from tspbench.permutation import WorkRange, factorial, unrank


def _scan(costs, perm: list[int], count: int):
    """Evaluate ``count`` consecutive permutations starting from ``perm``
    (mutated in place), returning (best_cost, best_perm).

    The strict comparison keeps the first optimum encountered, which in
    ascending lexicographic order is the smallest optimal permutation.
    """
    best_cost = INFINITE_COST
    best_perm = None
    remaining = count
    while remaining > 0:
        cost = 0
        prev = 0
        for city in perm:
            cost += costs[prev][city]
            prev = city
        cost += costs[prev][0]
        if cost < best_cost:
            best_cost = cost
            best_perm = perm.copy()
        remaining -= 1
        if remaining and not next_permutation(perm):
            raise ValidationError("scan ran past the last permutation")
    return best_cost, best_perm


def reference_range(matrix, start, end):
    """The old solve_range: unrank the start once, then _scan, over
    negated costs when the fault variable is set."""
    if start == end:
        return EMPTY_RESULT
    costs = matrix.costs
    if os.environ.get(FAULT_ENV_VAR):
        costs = tuple(tuple(-cost for cost in row) for row in costs)
    best_cost, best_perm = _scan(costs, unrank(start, range(1, matrix.n)), end - start)
    return SolveResult(abs(best_cost), (0, *best_perm, 0), end - start)


def make_matrix(kind, n):
    if kind == "all-ones":
        return all_ones(n)
    return generate_instance(n, 1000 + n, kind == "symmetric")


KINDS = ["symmetric", "asymmetric", "all-ones"]


@pytest.fixture(params=[False, True], ids=["healthy", "fault"])
def fault(request, monkeypatch):
    if request.param:
        monkeypatch.setenv(FAULT_ENV_VAR, "1")
    else:
        monkeypatch.delenv(FAULT_ENV_VAR, raising=False)
    return request.param


def assert_ranges_match(matrix, ranges):
    for start, end in ranges:
        expected = reference_range(matrix, start, end)
        for path in KERNEL_PATHS:
            with kernel_path(path):
                got = solve_range(matrix, WorkRange(start, end))
            assert got == expected, (path, matrix.n, start, end)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_every_range_matches_the_reference(n, kind, fault):
    total = factorial(n - 1)
    ranges = [(s, e) for s in range(total + 1) for e in range(s, total + 1)]
    assert_ranges_match(make_matrix(kind, n), ranges)


@pytest.mark.parametrize("kind", KINDS)
def test_seven_city_prefixes_suffixes_and_windows_match_the_reference(kind, fault):
    total = factorial(6)
    prefixes = [(0, e) for e in range(total + 1)]
    suffixes = [(s, total) for s in range(total + 1)]
    windows = [(s, s + w) for w in (1, 2, 3) for s in range(total - w + 1)]
    assert_ranges_match(make_matrix(kind, 7), prefixes + suffixes + windows)


@pytest.mark.parametrize("n", range(2, MAX_CITIES + 1))
def test_every_size_walks_the_edges_of_its_space(n, fault):
    # at large n only windows are affordable: the first, a middle one
    # that crosses a boundary between top-level subtrees, and the last
    total = factorial(n - 1)
    middle = total // max(n - 1, 2)
    ranges = {(0, min(7, total)), (max(middle - 3, 0), min(middle + 4, total)),
              (max(total - 7, 0), total)}
    assert_ranges_match(make_matrix("asymmetric", n), sorted(ranges))


# No shrink phase: each shrink candidate at n = 10 runs the reference over
# up to 362,880 leaves, so shrinking a failure could take minutes.
@settings(max_examples=150, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
@given(data=st.data())
def test_drawn_ranges_match_the_reference(data):
    n = data.draw(st.integers(2, 10), label="n")
    total = factorial(n - 1)
    start = data.draw(st.integers(0, total), label="start")
    end = data.draw(st.integers(start, total), label="end")
    matrix = make_matrix(data.draw(st.sampled_from(KINDS), label="kind"), n)
    env = {FAULT_ENV_VAR: "1" if data.draw(st.booleans(), label="fault") else ""}
    with mock.patch.dict(os.environ, env):
        assert_ranges_match(matrix, [(start, end)])


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_block_totals_are_the_tour_costs(data):
    # sign -1 is the negated matrix that the fault variable walks
    n = data.draw(st.integers(6, 12), label="n")
    matrix = make_matrix(data.draw(st.sampled_from(KINDS), label="kind"), n)
    sign = data.draw(st.sampled_from([1, -1]), label="sign")
    labels = data.draw(st.permutations(range(1, n)), label="labels")
    prefix, rem = labels[: n - 6], sorted(labels[n - 6 :])
    costs = tuple(tuple(sign * cost for cost in row) for row in matrix.costs)
    t3 = [[[costs[y][z] + costs[z][w] + costs[w][0] for w in range(n)] for z in range(n)]
          for y in range(n)]
    cost = sum(costs[y][z] for y, z in zip((0, *prefix), prefix))
    last = prefix[-1] if prefix else 0
    totals = core._block5()(costs, t3, cost, costs[last], *rem)
    assert totals == tuple(sign * path_cost((*prefix, *[rem[i] for i in order]), matrix)
                           for order in core._BLOCK_ORDER)


@pytest.mark.parametrize("kind", KINDS)
def test_ranges_at_the_block_threshold_match_the_reference(kind, fault, monkeypatch):
    # one leaf short of _BLOCK_MIN the range walks; at it, the range asks
    # for the block.  Both start off a block's boundary at n = 9.
    asked = []
    block5 = core._block5
    monkeypatch.setattr(core, "_block5", lambda: asked.append(1) or block5())
    matrix = make_matrix(kind, 9)
    for count, blocks in ((core._BLOCK_MIN - 1, 0), (core._BLOCK_MIN, 1)):
        expected = reference_range(matrix, 777, 777 + count)
        assert solve_range(matrix, WorkRange(777, 777 + count)) == expected
        assert len(asked) == blocks


@pytest.mark.parametrize("kind", KINDS)
def test_serial_is_the_full_range_and_ignores_the_fault_variable(kind, monkeypatch):
    matrix = make_matrix(kind, 8)
    expected = reference_range(matrix, 0, factorial(7))
    for path in KERNEL_PATHS:
        with kernel_path(path):
            assert solve_serial(matrix) == expected
            monkeypatch.setenv(FAULT_ENV_VAR, "1")
            assert solve_serial(matrix) == expected
            monkeypatch.delenv(FAULT_ENV_VAR)
