"""Problem instances, tour-cost evaluation, and the exhaustive solver.

A problem instance is an immutable square matrix of non-negative
integer trip costs.  Tours start and end at city 0, so a candidate
solution is a permutation of the remaining labels 1 .. n-1 and the
solver scans all (n-1)! of them keeping the cheapest.  One kernel,
``_walk``, does every scan: a depth-first walk of the permutation tree
in lexicographic order that carries each prefix's cost down, handing
each subtree of five labels, whole or cut by the range, to a block
generated at first use, and on long ranges first testing all 120 tours
of a whole one at once, as the lanes of one integer.

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
KERNEL = "prefix-walk+block5+tail3+lanes"

#: Environment variable for fault-injection tests: when set (non-empty)
#: solve_range walks the CostMatrix of MAX_COST - c, so it keeps the
#: costliest tour instead of the cheapest and any harness that checks
#: backends against the serial baseline must fail loudly.  Never set
#: this outside tests.
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


#: Leaf i of a block is the tour that orders its five labels as
#: _BLOCK_ORDER[i] (indices into them), in lexicographic order.
_BLOCK_ORDER = tuple(permutations(range(5)))

#: The lane filter (see _walk) serves ranges from _LANES_MIN leaves at
#: n <= _LANES_MAX_N.  A subtree of five labels recurs (k-7)! times in a
#: subtree of k labels, and its entry costs about one block call to
#: build, so a range must span subtrees of eight labels or more to repay
#: its table; no n <= 9 range is that long.  Block held, process_time,
#: medians of 15, filter / blocks over n = 10..13: 2,520 leaves 2.2-4.1x,
#: 40,320 0.81-1.56x, 80,640 0.48-0.94x, 181,440 0.53-0.65x.  A full
#: n = 13 table holds (n-1)*C(n-2, 5) = 5,544 entries of five labels,
#: 12,289 in all, and under 6 MB with its keys.
_LANES_MIN = 80_000
_LANES_MAX_N = 13

#: A lane is 40 bits of an int, in _BLOCK_ORDER from the lowest.  An
#: entry of _LaneTable holds a suffix cost in each lane, and _walk adds
#: cost - best_cost + _LANE_SHIFT to each of the 120 lanes of an entry
#: of five labels, which makes lane i total_i - best_cost + 2**39: its
#: top bit is clear exactly when tour i costs less than the best.  Costs
#: are never negative, so an entry's lanes lie in [0, 6 * MAX_COST], the
#: best in [0, 34 * MAX_COST + 1], and as 34 * MAX_COST + 1 < 2**35 a
#: sum's lanes lie in (2**39 - 2**35, 2**39 + 2**35): each stays in
#: [0, 2**40), and no lane carries into or borrows from the next.
#: _LANE_ONES[k] has a 1 in each of the lowest k! lanes, and _LANE_HIGH
#: the top bit of 120.
_LANE = 40
_LANE_SHIFT = 1 << _LANE - 1
_LANE_ONES = tuple(((1 << _LANE * factorial(k)) - 1) // ((1 << _LANE) - 1) for k in range(6))
_LANE_HIGH = _LANE_ONES[5] << _LANE - 1


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


_block = None  # the block, once this process holds it
_block_code = None  # the code that defines it, once this process compiled it


def _block5():
    """The block, made once per process: block(costs, t3, cost, row, a,
    b, c, d, e) returns, as one tuple in _BLOCK_ORDER, the totals of the
    120 tours that end a prefix of cost ``cost``, whose last city's row
    is ``row``, with the labels a < b < c < d < e.  Each prefix sum of up
    to three labels is computed once and shared by every leaf below it,
    and a leaf adds the last three legs in one subscript of the suffix
    table t3[y][z][w], the cost of y -> z -> w -> 0.  It is the one
    kernel for five remaining labels, so a process makes it at its
    first walk of n >= 6 cities, from _block_code, compiled here at most
    once per process; a spawned worker gets the block with its code
    instead (see worker.main)."""
    global _block, _block_code
    if _block is None:
        if _block_code is None:
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
            _block_code = compile("\n".join(lines), "<block5>", "exec")
        namespace = {}
        exec(_block_code, namespace)
        _block = namespace["block"]
    return _block


def block_code():
    """The code of a module that defines _block5's block, compiled at
    most once per process, which holds the block from then on.  The
    coordinator ships it with every spawned worker's code."""
    _block5()
    return _block_code


def block_for(n: int):
    """The block, made now, if a tour of ``n`` cities has five labels
    left after city 0 (n >= 6); else None.  A fact about the tree, not a
    tuned threshold: every walk of n >= 6 cities costs each subtree of
    five labels, whole or cut by its range, in one block call.  A fork
    team asks before it forks, so that its members inherit the block
    instead of each compiling one."""
    return _block5() if n >= 6 else None


def _walk(matrix: CostMatrix, start: int, count: int):
    """Best tour of ``matrix`` among the permutations of 1 .. n-1 with
    lexicographic index in [start, start + count), as (best_cost,
    closed_path), the best starting at n * MAX_COST + 1, above any tour.

    The walk descends over the sorted remaining labels (Knuth, TAOCP
    Vol. 4A, 7.2.1.2), so a leaf adds only its last legs to the cost of
    its prefix.  At n >= 6 it builds the three-leg suffix table t3 and
    costs every subtree of five labels in one block call (block_for),
    keeping its first cheapest leaf.  The walk enters once, at the root's
    edge over the range, which splits it into whole subtrees and the
    ragged edges that lead to them (a full range is all subtrees);
    factorial arithmetic skips every subtree outside it, and an edge of
    five labels keeps the slice of its block's totals in the range.
    Below n = 6 the walk recurses down to its leaves.  The strict ``<``
    keeps the first optimum visited, the smallest in lexicographic order.

    A range of _LANES_MIN leaves or more at n <= _LANES_MAX_N also
    builds a lane table (_LaneTable), whose entry for a last city and
    five labels holds the suffix costs of all 120 orderings, one to a
    40-bit lane of one int (SWAR: Lamport, CACM 18(8), 1975).  Before a
    whole block, one multiply-add puts cost - best_cost + 2**39 into each
    lane (the bounds are stated at _LANE), and one mask tests all 120 top
    bits: a lane's is clear exactly when its tour costs strictly less
    than the best so far.  With none clear, no tour of the block can
    replace the best under the strict ``<``, and the block counts its
    120 leaves; with any clear, the block runs as above.  So each tour
    still gets its own sum and its own comparison, nothing is pruned,
    and (cost, path) and the count are those of the blocks alone.
    """
    costs, n = matrix.costs, matrix.n
    home = [row[0] for row in costs]
    block = block_for(n)
    if block:  # t3[y][z][w]: the last three legs y -> z -> w -> 0 of a tour
        tails = [[row[z] + home[z] for z in range(n)] for row in costs]  # y -> z -> 0
        t3 = [[[cost + tail for tail in tails[z]] for z, cost in enumerate(row)] for row in costs]
    prefix = [0]
    best_cost = n * MAX_COST + 1
    best_path = None
    visited = 0

    def subtree(last, cost, rem):
        # every ordering of ``rem`` after ``prefix``, whose cost is ``cost``
        nonlocal best_cost, best_path, visited
        row = costs[last]
        if len(rem) == 5:
            totals = block(costs, t3, cost, row, *rem)
            low = min(totals)
            if low < best_cost:
                order = _BLOCK_ORDER[totals.index(low)]
                best_cost, best_path = low, (*prefix, *[rem[i] for i in order], 0)
            visited += 120
            return
        if not rem:  # a leaf of a tour of n < 6
            visited += 1
            if cost + home[last] < best_cost:
                best_cost, best_path = cost + home[last], (*prefix, 0)
        for i, x in enumerate(rem):
            prefix.append(x)
            subtree(x, cost + row[x], rem[:i] + rem[i + 1 :])
            prefix.pop()

    if count >= _LANES_MIN and n <= _LANES_MAX_N:
        # a whole block runs only when a lane of its entry is below the best
        block_subtree = subtree
        table = _LaneTable(costs)

        def subtree(last, cost, rem):
            nonlocal visited
            if len(rem) == 5:
                a, b, c, d, e = rem
                lanes = table[(1 << a | 1 << b | 1 << c | 1 << d | 1 << e) << 4 | last]
                if (lanes + (cost - best_cost + _LANE_SHIFT) * _LANE_ONES[5]) & _LANE_HIGH == _LANE_HIGH:
                    visited += 120
                    return
            block_subtree(last, cost, rem)

    def edge(last, cost, rem, lo, hi):
        # leaves lo .. hi-1 of the subtree below ``prefix``; a child wholly
        # inside them is a subtree, one cut by lo or hi an edge again
        nonlocal best_cost, best_path, visited
        row = costs[last]
        if len(rem) == 5:  # the block's totals in [lo, hi)
            totals = block(costs, t3, cost, row, *rem)
            low = min(totals[lo:hi])
            if low < best_cost:
                order = _BLOCK_ORDER[totals.index(low, lo, hi)]
                best_cost, best_path = low, (*prefix, *[rem[i] for i in order], 0)
            visited += hi - lo
            return
        size = factorial(len(rem) - 1)  # leaves below each child
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
    # Each closure that recurses is in a reference cycle through its own
    # cell.  Breaking the cycles frees t3 and the tables now, instead of
    # at a cyclic collection that may come many solves later.
    subtree = edge = None
    if visited != count:
        raise ExecutionError(f"scan visited {visited} permutations, expected {count}")
    return best_cost, best_path


def solve_serial(matrix: CostMatrix) -> SolveResult:
    """Scan all (n-1)! tours in lexicographic order and keep the
    cheapest; the reference every parallel backend is checked against.
    """
    total = factorial(matrix.n - 1)
    return SolveResult(*_walk(matrix, 0, total), total)


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
    if not _fault_enabled():
        return SolveResult(*_walk(matrix, work.start, work.count), work.count)
    # keep the first costliest tour: a tour of cost c costs n * MAX_COST - c
    # on the matrix of MAX_COST - c (diagonal 0), whose walk keeps the first cheapest
    flipped = CostMatrix([[0 if i == j else MAX_COST - c for j, c in enumerate(row)]
                          for i, row in enumerate(matrix.costs)])
    best_cost, best_path = _walk(flipped, work.start, work.count)
    return SolveResult(n * MAX_COST - best_cost, best_path, work.count)


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
