"""The prefix-cost walk against the scan it replaced.

``_scan`` below is the library's previous kernel, kept verbatim as the
reference: it recomputes every tour from scratch and steps with
next_permutation.  solve_range must return what the old solve_range
returned, (cost, path, evaluated), on every range checked here, on
symmetric, asymmetric, all-ones and near-tie matrices, with and without
the fault variable, and on both kernel paths: the 5-level blocks, and
the blocks behind the lane filter (on one below n = 7, where the filter
meets no whole block and the two coincide).  The block's 120 totals and
the lane table's 120 lanes are also checked one by one against
path_cost, and the flat lane table against ``_LaneTable``, the lazy
table it replaced, kept verbatim below as its reference.  The filter
must run exactly the blocks that the range cuts or that improve on the
best tour before them, and the table must keep its size bound.
"""

import gc
import math
import os
import sys
import weakref
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from conftest import KERNEL_PATHS, all_ones, kernel_path, next_permutation
from test_held_karp import near_tie
from tspbench import core
from tspbench.core import (
    _LANE,
    _LANE_ONES,
    EMPTY_RESULT,
    FAULT_ENV_VAR,
    INFINITE_COST,
    MAX_CITIES,
    MAX_COST,
    CostMatrix,
    SolveResult,
    path_cost,
    reduce_results,
    solve_range,
    solve_serial,
)
from tspbench.backends import parse_backend_spec, solve
from tspbench.errors import ExecutionError, ValidationError
from tspbench.instances import generate_instance
from tspbench.permutation import WorkRange, factorial, partition, unrank


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
    if kind == "near-ties":
        return near_tie(n, 1000 + n, True)
    return generate_instance(n, 1000 + n, kind == "symmetric")


KINDS = ["symmetric", "asymmetric", "all-ones"]

#: The walk gates' kinds: near ties, every cost 1 or 2, make tours that
#: tie or differ by 1, where a lane test that is off by one drops the
#: optimum.
GATE_KINDS = [*KINDS, "near-ties"]


@pytest.fixture(params=[False, True], ids=["healthy", "fault"])
def fault(request, monkeypatch):
    if request.param:
        monkeypatch.setenv(FAULT_ENV_VAR, "1")
    else:
        monkeypatch.delenv(FAULT_ENV_VAR, raising=False)
    return request.param


def assert_ranges_match(matrix, ranges, paths=KERNEL_PATHS):
    for start, end in ranges:
        expected = reference_range(matrix, start, end)
        for path in paths:
            with kernel_path(path):
                got = solve_range(matrix, WorkRange(start, end))
            assert got == expected, (path, matrix.n, start, end)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_every_range_matches_the_reference(n, kind, fault):
    # One path: below n = 7 the two coincide (see the next test).  At
    # n = 6 every nonempty range is one slice [lo, hi) of one block.
    total = factorial(n - 1)
    ranges = [(s, e) for s in range(total + 1) for e in range(s, total + 1)]
    assert_ranges_match(make_matrix(kind, n), ranges, ["lanes"])


@pytest.mark.parametrize("path", KERNEL_PATHS)
def test_six_city_ranges_are_one_block_call_and_none_below_seven_reach_a_lane(path, monkeypatch):
    # The root holds five labels at n = 6, so every nonempty range there
    # is one block call, of which the walk keeps a slice; below it no
    # range calls the block.  The filter stands only before a whole
    # subtree of five labels, and no range below n = 7 holds one, so none
    # looks up a lane entry.  A full n = 7 range shows that the counts
    # see both.
    calls = []
    block = core._block5()
    monkeypatch.setattr(core, "_block5", lambda: lambda *a: calls.append(("block", len(a[0])))
                        or block(*a))

    class CountingTable(list):
        def __getitem__(self, key):
            calls.append(("lane", n))
            return super().__getitem__(key)

    build = core._lane_table
    monkeypatch.setattr(core, "_lane_table", lambda costs: CountingTable(build(costs)))
    with kernel_path(path):
        for n in range(2, 7):
            matrix, total = make_matrix("asymmetric", n), factorial(n - 1)
            for start in range(total + 1):
                for end in range(start, total + 1):
                    calls.clear()
                    solve_range(matrix, WorkRange(start, end))
                    expected = [("block", 6)] if n == 6 and end > start else []
                    assert calls == expected, (n, start, end)
        calls.clear()
        n = 7
        solve_range(make_matrix("asymmetric", n), WorkRange(0, factorial(6)))
    assert ("block", 7) in calls and (("lane", 7) in calls) == (path == "lanes")


@pytest.mark.parametrize("kind", GATE_KINDS)
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
    matrix = make_matrix(data.draw(st.sampled_from(GATE_KINDS), label="kind"), n)
    env = {FAULT_ENV_VAR: "1" if data.draw(st.booleans(), label="fault") else ""}
    with mock.patch.dict(os.environ, env):
        assert_ranges_match(matrix, [(start, end)])


# The lanes path on near ties, every cost 1 or 2, over ranges of 80-500
# blocks at n = 10 and 11, where its tables are largest: a lane test
# that is off by one skips a block that holds a new best on about half
# of such ranges.  The 20 draws take ~0.5 s.
@settings(max_examples=20, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
@given(data=st.data())
def test_drawn_lane_ranges_on_near_ties_match_the_reference(data):
    n = data.draw(st.integers(10, 11), label="n")
    total = factorial(n - 1)
    start = data.draw(st.integers(0, total - 10_000), label="start")
    end = data.draw(st.integers(start + 10_000, min(start + 60_000, total)), label="end")
    matrix = near_tie(n, data.draw(st.integers(0, 7), label="seed"),
                      data.draw(st.booleans(), label="symmetric"))
    env = {FAULT_ENV_VAR: "1" if data.draw(st.booleans(), label="fault") else ""}
    with mock.patch.dict(os.environ, env):
        assert_ranges_match(matrix, [(start, end)], ["lanes"])


def flipped(matrix):
    """The CostMatrix of MAX_COST - c, diagonal 0, which solve_range walks
    under the fault variable: a tour of cost c on ``matrix`` costs
    n * MAX_COST - c on it."""
    return CostMatrix([[0 if i == j else MAX_COST - c for j, c in enumerate(row)]
                       for i, row in enumerate(matrix.costs)])


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_block_totals_are_the_tour_costs(data):
    # flip walks the matrix of MAX_COST - c that the fault variable walks
    n = data.draw(st.integers(6, 12), label="n")
    matrix = make_matrix(data.draw(st.sampled_from(KINDS), label="kind"), n)
    flip = data.draw(st.booleans(), label="flip")
    labels = data.draw(st.permutations(range(1, n)), label="labels")
    prefix, rem = labels[: n - 6], sorted(labels[n - 6 :])
    costs = (flipped(matrix) if flip else matrix).costs
    t3 = [[[costs[y][z] + costs[z][w] + costs[w][0] for w in range(n)] for z in range(n)]
          for y in range(n)]
    cost = sum(costs[y][z] for y, z in zip((0, *prefix), prefix))
    last = prefix[-1] if prefix else 0
    totals = core._block5()(costs, t3, cost, costs[last], *rem)
    sign, offset = (-1, n * MAX_COST) if flip else (1, 0)
    assert totals == tuple(offset + sign * path_cost((*prefix, *[rem[i] for i in order]), matrix)
                           for order in core._BLOCK_ORDER)


def test_the_kernel_walks_only_cost_matrices(fault, monkeypatch):
    # Every matrix _walk is given is a CostMatrix of costs in [0, MAX_COST],
    # healthy or not, from serial, a range, and both members of a fork
    # team: the forked one inherits the spy, and its error fails the solve.
    walk, calls = core._walk, []

    def spy(matrix, *rest):
        if type(matrix) is not CostMatrix or not all(
                0 <= cost <= MAX_COST for row in matrix.costs for cost in row):
            raise TypeError(f"the kernel was given {matrix!r}")
        calls.append(matrix.n)
        return walk(matrix, *rest)

    monkeypatch.setattr(core, "_walk", spy)
    matrix, total = make_matrix("asymmetric", 8), factorial(7)
    halves = [reference_range(matrix, r.start, r.end) for r in partition(total, 2)]
    for path in KERNEL_PATHS:
        with kernel_path(path):
            assert solve_serial(matrix).evaluated == total
            assert solve_range(matrix, WorkRange(0, total)) == reference_range(matrix, 0, total)
            assert solve(matrix, parse_backend_spec("threads:2")) == reduce_results(halves)
    assert calls == [8] * 3 * len(KERNEL_PATHS)  # the forked member's are its own
    caller = os.getpid()  # a forked member given bare costs fails the solve
    monkeypatch.setattr(core, "_walk", lambda m, *rest: spy(m if os.getpid() == caller else m.costs,
                                                            *rest))
    with pytest.raises(ExecutionError, match="worker 1 failed: TypeError: the kernel was given"):
        solve(matrix, parse_backend_spec("threads:2"))


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


class _LaneTable(dict):
    """One walk's lane table: table[mask << 4 | last] holds, in lane i,
    the cost of last -> the ith ordering of the labels set in mask -> 0,
    with the orderings in lexicographic order; the costs are a
    CostMatrix's, so each lane is in [0, 6 * MAX_COST] (see _LANE).  An
    entry of k labels is built at its first lookup, from the entries of
    k - 1: the sum over its labels x_i of (costs[last][x_i] * ones +
    table[x_i, rem - x_i]) << 40 * i * (k-1)!.  A table with n > 16
    would need a wider key."""

    def __init__(self, costs):
        super().__init__((x, row[0]) for x, row in enumerate(costs))
        self.costs = costs

    def __missing__(self, key):
        mask = key >> 4
        row = self.costs[key & 15]
        below = mask.bit_count() - 1  # labels in each entry this one is built from
        ones, width = _LANE_ONES[below], _LANE * factorial(below)
        lanes = shift = 0
        rest = mask
        while rest:  # the labels in increasing order
            bit = rest & -rest
            rest ^= bit
            x = bit.bit_length() - 1
            lanes += (row[x] * ones + self[(mask ^ bit) << 4 | x]) << shift
            shift += width
        self[key] = lanes
        return lanes


def lane_keys(n):
    """Every key a walk can look up in its lane table at ``n`` cities,
    entries of fewer labels included: each last city >= 1 with each set
    of up to five of the other labels."""
    return [sum(1 << x for x in rem) << 4 | last for last in range(1, n)
            for k in range(6) for rem in combinations(sorted(set(range(1, n)) - {last}), k)]


@pytest.mark.parametrize("n,kind", [(n, kind) for n in range(7, 12)
                                    for kind in [*KINDS, "max", "flipped"]] + [(13, "asymmetric")])
def test_flat_lane_table_is_the_lazy_one(n, kind):
    # flipped is the matrix of MAX_COST - c that the fault variable walks
    if kind == "max":
        matrix = max_matrix(n)
    elif kind == "flipped":
        matrix = flipped(make_matrix("asymmetric", n))
    else:
        matrix = make_matrix(kind, n)
    table, reference = core._lane_table(matrix.costs), _LaneTable(matrix.costs)
    keys = lane_keys(n)
    assert len(keys) == core._lane_entries(n)
    assert [table[key] for key in keys] == [reference[key] for key in keys]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_lane_entries_are_the_suffix_costs(data):
    # lane i of an entry is last -> the ith ordering of its five labels
    # -> 0; flip walks the matrix of MAX_COST - c that the fault variable
    # walks, and MAX_COST makes the largest lanes.  No walk builds a
    # table below n = 7 or looks up last city 0.
    n = data.draw(st.integers(7, core._LANES_MAX_N), label="n")
    kind = data.draw(st.sampled_from([*KINDS, "max"]), label="kind")
    matrix = max_matrix(n) if kind == "max" else make_matrix(kind, n)
    flip = data.draw(st.booleans(), label="flip")
    labels = data.draw(st.permutations(range(1, n)), label="labels")
    rem = sorted(labels[:5])
    last = data.draw(st.sampled_from(labels[5:]), label="last")
    costs = (flipped(matrix) if flip else matrix).costs
    lanes = core._lane_table(costs)[sum(1 << x for x in rem) << 4 | last]
    cities = [(last, *[rem[i] for i in order], 0) for order in core._BLOCK_ORDER]
    assert [lanes >> core._LANE * i & (1 << core._LANE) - 1 for i in range(120)] == [
        sum(costs[y][z] for y, z in zip(tour, tour[1:])) for tour in cities]


def max_matrix(n):
    return CostMatrix([[0 if i == j else MAX_COST for j in range(n)] for i in range(n)])


def blocks_that_run(matrix, start, end):
    """How many block calls the lane filter leaves on [start, end) at
    n >= 7, over the negated costs when the fault variable is set: one
    for each subtree of five labels that the range cuts, and one for
    each whole one that holds a tour cheaper than every tour before it
    in the range."""
    sign = -1 if os.environ.get(FAULT_ENV_VAR) else 1
    perm = unrank(start, range(1, matrix.n))
    best, low, calls = INFINITE_COST, INFINITE_COST, 0
    for index in range(start, end):
        cost = sign * path_cost(perm, matrix)
        first = index - index % 120
        low = min(low, cost) if index > max(first, start) else cost
        if index == min(first + 119, end - 1):  # the last leaf of a block in the range
            calls += first < start or first + 120 > end or low < best
            best = min(best, low)
        next_permutation(perm)
    return calls


def counting_block(monkeypatch):
    """A list that gets one entry per block call from now on."""
    calls, block = [], core._block5()
    monkeypatch.setattr(core, "_block5", lambda: lambda *args: calls.append(1) or block(*args))
    return calls


def tour_matrix(tour, symmetric):
    """An n = 8 matrix on which ``tour`` is the one optimum, or ties with
    its reverse when ``symmetric``: each leg costs 1, and the legs of
    ``tour`` 0.  Asymmetric, its first leg costs 2, so that ``tour``
    costs 2, and every other tour at least 3, one early on exactly 3."""
    rows = [[0 if i == j else 1 for j in range(8)] for i in range(8)]
    for y, z in zip((0, *tour), (*tour, 0)):
        rows[y][z] = 0
        if symmetric:
            rows[z][y] = 0
    if not symmetric:
        rows[0][tour[0]] = 2
    return CostMatrix(rows)


#: The one optimum in lane 0 and in lane 119 of the seventh block.
LANE_TOURS = {"lane-0": (2, 1, 3, 4, 5, 6, 7), "lane-119": (2, 1, 7, 6, 5, 4, 3)}

LANE_CASES = {
    **{case: tour_matrix(tour, symmetric=False) for case, tour in LANE_TOURS.items()},
    "equal-optima": tour_matrix(LANE_TOURS["lane-0"], symmetric=True),
    "all-ones": all_ones(8),
    "symmetric": make_matrix("symmetric", 8),
    "asymmetric": make_matrix("asymmetric", 8),
}


@pytest.mark.parametrize("case", LANE_CASES)
def test_lane_filter_runs_exactly_the_blocks_that_improve(case, fault, monkeypatch):
    # lane-0 and lane-119: the one optimum is the first or the last leaf
    # of a block, and 1 below the best before it; equal-optima: the
    # block of the later of two optima must not run.  The range 1234 ..
    # 4321 cuts a block at each end, and each of those runs.
    matrix = LANE_CASES[case]
    total = factorial(7)
    calls = counting_block(monkeypatch)
    for start, end in ((0, total), (1234, 4321)):
        calls.clear()
        with kernel_path("lanes"):
            got = solve_range(matrix, WorkRange(start, end))
        assert got == reference_range(matrix, start, end)
        assert len(calls) == blocks_that_run(matrix, start, end)
    if case in LANE_TOURS and not fault:
        with kernel_path("lanes"):
            assert solve_serial(matrix) == SolveResult(2, (0, *LANE_TOURS[case], 0), total)


def test_largest_lanes_keep_the_first_tour(fault, monkeypatch):
    # every tour at n = 13 costs 13 * MAX_COST, negated under the fault
    # variable: of a range's blocks only the first runs, and the last
    # too when the range cuts it
    n = core._LANES_MAX_N
    matrix = max_matrix(n)
    calls = counting_block(monkeypatch)
    for start, end in ((0, 5040), (777, 777 + 5040), (factorial(n - 1) - 5040, factorial(n - 1))):
        calls.clear()
        with kernel_path("lanes"):
            got = solve_range(matrix, WorkRange(start, end))
        assert got == reference_range(matrix, start, end)
        assert len(calls) == blocks_that_run(matrix, start, end) == (2 if start % 120 else 1)


def spy_tables(monkeypatch):
    """A list of weak references to every lane table built from now on."""
    tables, build = [], core._lane_table

    class Table(list):  # a list takes no weak reference, a subclass does
        pass

    def spy(costs):
        table = Table(build(costs))
        tables.append(weakref.ref(table))
        return table

    monkeypatch.setattr(core, "_lane_table", spy)
    return tables


@pytest.mark.parametrize("n", [10, 13, 14])
def test_lane_table_is_built_from_its_threshold_up_to_its_size_cap(n, monkeypatch):
    # with the thresholds as they are: a range one leaf short of
    # _LANES_MIN leaves per table entry builds no table, one at it builds
    # one at n <= 13, and no n >= 14 range builds one, not even on the
    # lanes path, where a range at n <= 13 builds one from its first
    # whole subtree of five labels
    tables = spy_tables(monkeypatch)
    matrix = make_matrix("asymmetric", n)
    threshold = core._LANES_MIN * core._lane_entries(n)
    for count in (threshold - 1, threshold):
        tables.clear()
        expected = reference_range(matrix, 777, 777 + count)
        assert solve_range(matrix, WorkRange(777, 777 + count)) == expected
        assert len(tables) == (count == threshold and n <= core._LANES_MAX_N)
    for start, end, whole in ((777, 777 + 5040, True), (60, 240, True), (60, 239, False)):
        tables.clear()
        with kernel_path("lanes"):
            solve_range(matrix, WorkRange(start, end))
        assert len(tables) == (whole and n <= core._LANES_MAX_N), (start, end)


def test_lane_table_is_freed_when_the_walk_returns(monkeypatch):
    # no reference cycle keeps it for the cyclic collector
    tables = spy_tables(monkeypatch)
    gc.disable()
    try:
        with kernel_path("lanes"):
            solve_range(make_matrix("asymmetric", 9), WorkRange(0, 5040))
    finally:
        gc.enable()
    assert len(tables) == 1 and tables[0]() is None


def test_lane_table_keeps_its_size_bound():
    # The fullest table a walk can build, at n = 13: its list, with every
    # entry of five labels and the entries of fewer labels they are built
    # from, stays under the 6 MB that core states.
    n = core._LANES_MAX_N
    table = core._lane_table(make_matrix("asymmetric", n).costs)
    keys = lane_keys(n)
    assert len(keys) == core._lane_entries(n) == 12_288 and all(table[key] for key in keys)
    assert sum((key >> 4).bit_count() == 5 for key in keys) == (n - 1) * math.comb(n - 2, 5) == 5_544
    assert sys.getsizeof(table) + sum(map(sys.getsizeof, {id(v): v for v in table}.values())) < 6 * 2**20
