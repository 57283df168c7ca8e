"""Problem instances, tour-cost evaluation, and the exhaustive solver.

A problem instance is an immutable square matrix of non-negative
integer trip costs.  Tours start and end at city 0, so a candidate
solution is a permutation of the remaining labels 1 .. n-1 and the
solver scans all (n-1)! of them keeping the cheapest.  One kernel,
``_walk``, does every scan: a depth-first walk of the permutation tree
in lexicographic order that carries each prefix's cost down, handing
each whole subtree of five labels to a block generated at first use.

Among equal-cost optima the lexicographically smallest permutation
wins.  Every backend applies the same tie-break, which makes results
identical bit for bit regardless of how the permutation space was
partitioned or in which order partial results were combined.
"""

from __future__ import annotations

import os
import reprlib
from collections import namedtuple
from collections.abc import Iterable, Sequence
from itertools import permutations

from .errors import ExecutionError, ValidationError
from .permutation import WorkRange, factorial

#: Hard cap on one trip cost, enforced at construction.  34 legs of
#: 10**9 still sum well inside 64 bits, so accumulated tour costs are
#: exact in any consumer, wire format included.
MAX_COST = 10**9

#: Cost reported for an empty work range: strictly larger than any real
#: tour cost, and representable as a 64-bit value on the wire.
INFINITE_COST = 2**63 - 1

#: Largest solvable instance; (n-1)! must stay inside the 128-bit
#: index range.
MAX_CITIES = 34

#: The scan kernel's name, recorded in every benchmark report.
KERNEL = "prefix-walk+block5+tail3"

#: Environment variable for fault-injection tests: when set (non-empty)
#: solve_range walks the negated costs, so it keeps the costliest tour
#: instead of the cheapest and any harness that checks backends against
#: the serial baseline must fail loudly.  Never set this outside tests.
FAULT_ENV_VAR = "TSPBENCH_FAULT_INVERT"


def check_city_count(n: int) -> None:
    """The one size rule.  It is checked only where a size enters the
    program, CostMatrix included, so every CostMatrix is solvable."""
    if type(n) is not int:  # 4.0 and True are no count
        raise ValidationError(f"city count must be an integer, got {n!r}")
    if not 2 <= n <= MAX_CITIES:
        raise ValidationError(f"city count must be in 2 .. {MAX_CITIES}, got {n}")


class CostMatrix(namedtuple("CostMatrix", "costs")):
    """Square grid of non-negative integer trip costs with a zero
    diagonal; costs[i][j] need not equal costs[j][i].  A named tuple
    checked whenever one is built, unpickled or copied, and safe to
    share read-only across any number of workers."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    def __new__(cls, costs: Iterable[Iterable[int]]):
        rows = tuple(tuple(row) for row in costs)
        n = len(rows)
        check_city_count(n)
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValidationError(
                    f"row {i} has {len(row)} entries, expected {n} (matrix must be square)"
                )
            for j, cost in enumerate(row):
                if not isinstance(cost, int) or isinstance(cost, bool):
                    raise ValidationError(f"cost[{i}][{j}] is not an integer: {cost!r}")
                if cost < 0:
                    raise ValidationError(f"cost[{i}][{j}] is negative: {cost}")
                if cost > MAX_COST:
                    raise ValidationError(
                        f"cost[{i}][{j}] = {reprlib.repr(cost)} exceeds the maximum {MAX_COST}"
                    )
            if row[i] != 0:
                raise ValidationError(f"diagonal entry [{i}][{i}] must be 0, got {row[i]}")
        return super().__new__(cls, rows)

    @property
    def n(self) -> int:
        return len(self.costs)


class SolveResult(namedtuple("SolveResult", "optimal_cost optimal_path evaluated")):
    """Optimal cost and closed tour, plus how many permutations were
    examined to find them.  The empty sentinel (infinite cost, empty
    path, zero evaluated) stands for "no permutations scanned" and is
    the identity of result reduction.  Checked like CostMatrix."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    def __new__(cls, optimal_cost: int, optimal_path: Iterable[int], evaluated: int):
        optimal_path = tuple(optimal_path)
        if optimal_cost < 0:
            raise ValidationError(f"negative tour cost {optimal_cost}")
        if evaluated < 0:
            raise ValidationError(f"negative evaluation count {evaluated}")
        if optimal_path:
            if optimal_path[0] != 0 or optimal_path[-1] != 0:
                raise ValidationError("tour must start and end at city 0")
            inner = optimal_path[1:-1]
            if len(set(inner)) != len(inner) or 0 in inner:
                raise ValidationError("tour must visit each remaining city exactly once")
        return super().__new__(cls, optimal_cost, optimal_path, evaluated)


#: Reduction identity: the result of scanning nothing.
EMPTY_RESULT = SolveResult(INFINITE_COST, (), 0)


def path_cost(perm: Sequence[int], matrix: CostMatrix) -> int:
    """Cost of the closed tour 0 -> perm[0] -> ... -> perm[-1] -> 0.

    ``perm`` must be a permutation of 1 .. n-1.
    """
    n = matrix.n
    if len(perm) != n - 1:
        raise ValidationError(f"permutation has {len(perm)} labels, expected {n - 1}")
    seen = set()
    for label in perm:
        if not isinstance(label, int) or not 1 <= label < n:
            raise ValidationError(f"city label {label!r} out of range 1 .. {n - 1}")
        if label in seen:
            raise ValidationError(f"city label {label} repeated")
        seen.add(label)
    costs = matrix.costs
    prev = 0
    total = 0
    for city in perm:
        total += costs[prev][city]
        prev = city
    return total + costs[prev][0]


def _fault_enabled() -> bool:
    return bool(os.environ.get(FAULT_ENV_VAR))


#: Smallest range that scans in 5-level blocks.  Compiling the block
#: costs ~3 ms per process, building its n**3 suffix table 0.1 ms at
#: n = 10 and 3 ms at n = 34, and a block leaf saves ~0.15 us, so blocks
#: pay from 20,000-25,000 leaves (CPython 3.11 under -S); smaller ranges,
#: every n = 8 solve and every half of n = 9 among them, keep the walk.
_BLOCK_MIN = 25_000

#: Leaf i of a block is the tour that orders its five labels as
#: _BLOCK_ORDER[i] (indices into them), in lexicographic order.
_BLOCK_ORDER = tuple(permutations(range(5)))

_block = None


def _block5():
    """The block, compiled once per process: block(costs, t3, cost, row,
    a, b, c, d, e) returns, as one tuple in _BLOCK_ORDER, the totals of
    the 120 tours that end a prefix of cost ``cost``, whose last city's
    row is ``row``, with the labels a < b < c < d < e.  Each prefix sum
    of up to three labels is computed once and shared by every leaf
    below it, and a leaf adds the last three legs in one subscript of
    the suffix table t3[y][z][w], the cost of y -> z -> w -> 0."""
    global _block
    if _block is None:
        lines = [
            "def block(costs, t3, cost, row, a, b, c, d, e):",
            " ra, rb, rc, rd, re = costs[a], costs[b], costs[c], costs[d], costs[e]",
            " ua, ub, uc, ud, ue = t3[a], t3[b], t3[c], t3[d], t3[e]",
            *(f" t{y}{z} = u{y}[{z}]" for y in "abcde" for z in "abcde" if y != z),
        ]
        leaves = []
        for order in _BLOCK_ORDER:
            p = "".join("abcde"[i] for i in order)
            for k in (1, 2, 3):  # the first leaf below a prefix defines its sum
                if order[k:] == tuple(sorted(order[k:])):
                    up, via = (f"x{p[:k - 1]}", f"r{p[k - 2]}") if k > 1 else ("cost", "row")
                    lines.append(f" x{p[:k]} = {up} + {via}[{p[k - 1]}]")
            leaves.append(f"x{p[:3]} + t{p[2]}{p[3]}[{p[4]}]")
        lines.append(f" return ({', '.join(leaves)})")
        namespace = {}
        exec(compile("\n".join(lines), "<block5>", "exec"), namespace)
        _block = namespace["block"]
    return _block


def block_for(count: int):
    """The block, compiled now, if a scan of ``count`` leaves uses it;
    else None.  A fork team asks before it forks, so that its members
    inherit the block instead of each compiling one."""
    return _block5() if count >= _BLOCK_MIN else None


def _walk(costs, n: int, start: int, count: int):
    """Best tour among the permutations of 1 .. n-1 with lexicographic
    index in [start, start + count), as (best_cost, closed_path).

    The walk descends over the sorted remaining labels (Knuth, TAOCP
    Vol. 4A, 7.2.1.2), so a leaf adds only its last legs to the cost of
    its prefix, and the last three levels are unrolled.  A range of at
    least _BLOCK_MIN leaves builds the three-leg suffix table t3 and
    costs every whole subtree of five labels in one _block5 call,
    keeping its first cheapest leaf.  The walk enters once, at the
    root's edge over the range, which splits it into whole subtrees and
    the ragged edges that lead to them (a full range is all subtrees);
    factorial arithmetic skips every subtree outside it.  The strict
    ``<`` keeps the first optimum visited, the smallest in lexicographic
    order.
    """
    home = [row[0] for row in costs]
    # tails[y][z]: the last two legs y -> z -> 0 of a tour
    tails = [[row[z] + home[z] for z in range(n)] for row in costs]
    prefix = [0]
    best_cost = INFINITE_COST
    best_path = None
    visited = 0

    def subtree(last, cost, rem):
        # every ordering of ``rem`` after ``prefix``, whose cost is ``cost``
        nonlocal best_cost, best_path, visited
        row = costs[last]
        if len(rem) != 3:
            if not rem:  # a leaf below a ragged edge, or of a tour of n < 4
                visited += 1
                if cost + home[last] < best_cost:
                    best_cost, best_path = cost + home[last], (*prefix, 0)
            for i, x in enumerate(rem):
                prefix.append(x)
                subtree(x, cost + row[x], rem[:i] + rem[i + 1 :])
                prefix.pop()
            return
        a, b, c = rem
        ra, rb, rc = costs[a], costs[b], costs[c]
        ta, tb, tc = tails[a], tails[b], tails[c]
        best = best_cost
        x = cost + row[a]
        if x + ra[b] + tb[c] < best:
            best, best_path = x + ra[b] + tb[c], (*prefix, a, b, c, 0)
        if x + ra[c] + tc[b] < best:
            best, best_path = x + ra[c] + tc[b], (*prefix, a, c, b, 0)
        x = cost + row[b]
        if x + rb[a] + ta[c] < best:
            best, best_path = x + rb[a] + ta[c], (*prefix, b, a, c, 0)
        if x + rb[c] + tc[a] < best:
            best, best_path = x + rb[c] + tc[a], (*prefix, b, c, a, 0)
        x = cost + row[c]
        if x + rc[a] + ta[b] < best:
            best, best_path = x + rc[a] + ta[b], (*prefix, c, a, b, 0)
        if x + rc[b] + tb[a] < best:
            best, best_path = x + rc[b] + tb[a], (*prefix, c, b, a, 0)
        best_cost = best
        visited += 6

    if (block := block_for(count)) is not None:
        # each whole subtree of five labels is one block call; rebinding
        # subtree leaves the walk below the threshold as it was, where a
        # length test in the walk itself slowed n = 8 solves by ~6%
        walk_subtree = subtree
        # t3[y][z][w]: the last three legs y -> z -> w -> 0 of a tour
        t3 = [[[cost + tail for tail in tails[z]] for z, cost in enumerate(row)] for row in costs]

        def subtree(last, cost, rem):
            nonlocal best_cost, best_path, visited
            if len(rem) != 5:
                return walk_subtree(last, cost, rem)
            totals = block(costs, t3, cost, costs[last], *rem)
            low = min(totals)
            if low < best_cost:
                order = _BLOCK_ORDER[totals.index(low)]
                best_cost, best_path = low, (*prefix, *[rem[i] for i in order], 0)
            visited += 120

    def edge(last, cost, rem, lo, hi):
        # leaves lo .. hi-1 of the subtree below ``prefix``; a child wholly
        # inside them is a subtree, one cut by lo or hi an edge again
        size = factorial(len(rem) - 1)  # leaves below each child
        row = costs[last]
        for i in range(lo // size, (hi - 1) // size + 1):
            x = rem[i]
            child_lo = max(lo - i * size, 0)
            child_hi = min(hi - i * size, size)
            prefix.append(x)
            if child_hi - child_lo == size:
                subtree(x, cost + row[x], rem[:i] + rem[i + 1 :])
            else:
                edge(x, cost + row[x], rem[:i] + rem[i + 1 :], child_lo, child_hi)
            prefix.pop()

    edge(0, 0, tuple(range(1, n)), start, start + count)
    if visited != count:
        raise ExecutionError(f"scan visited {visited} permutations, expected {count}")
    return best_cost, best_path


def solve_serial(matrix: CostMatrix) -> SolveResult:
    """Scan all (n-1)! tours in lexicographic order and keep the
    cheapest; the reference every parallel backend is checked against.
    """
    n = matrix.n
    total = factorial(n - 1)
    best_cost, best_path = _walk(matrix.costs, n, 0, total)
    return SolveResult(best_cost, best_path, total)


def solve_range(matrix: CostMatrix, work: WorkRange) -> SolveResult:
    """Best tour among permutations with lexicographic indices in
    [work.start, work.end); the primitive every worker runs.

    The walk reaches the first index by factorial arithmetic, so a
    worker pays nothing for the permutations before its range.  An
    empty range yields the infinite-cost sentinel.
    """
    n = matrix.n
    total = factorial(n - 1)
    if work.end > total:
        raise ValidationError(
            f"work range [{work.start}, {work.end}) exceeds the {total} permutations of n={n}"
        )
    if work.count == 0:
        return EMPTY_RESULT
    costs = matrix.costs
    if _fault_enabled():  # keep the first costliest tour: walk negated costs
        costs = tuple(tuple(-cost for cost in row) for row in costs)
    best_cost, best_path = _walk(costs, n, work.start, work.count)
    # abs() undoes the negation: a real tour cost is never negative
    return SolveResult(abs(best_cost), best_path, work.count)


def reduce_results(results: Iterable[SolveResult]) -> SolveResult:
    """Combine per-worker results: minimum by (cost, path), with
    evaluation counts summed so the reduced result reports the full
    amount of work performed.  The minimum is associative, commutative
    and total, with EMPTY_RESULT as identity, so partial results may be
    combined in any order."""
    best = EMPTY_RESULT
    evaluated = 0
    for result in results:
        evaluated += result.evaluated
        if (result.optimal_cost, result.optimal_path) < (best.optimal_cost, best.optimal_path):
            best = result
    return SolveResult(best.optimal_cost, best.optimal_path, evaluated)
