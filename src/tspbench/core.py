"""Problem instances, tour-cost evaluation, and the exhaustive solver.

A problem instance is an immutable square matrix of non-negative
integer trip costs.  Tours start and end at city 0, so a candidate
solution is a permutation of the remaining labels 1 .. n-1 and the
solver scans all (n-1)! of them keeping the cheapest.  One kernel,
``_walk``, does every scan: a depth-first walk of the permutation tree
in lexicographic order that carries each prefix's cost down.

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
KERNEL = "prefix-walk"

#: Environment variable for fault-injection tests: when set (non-empty)
#: solve_range walks the negated costs, so it keeps the costliest tour
#: instead of the cheapest and any harness that checks backends against
#: the serial baseline must fail loudly.  Never set this outside tests.
FAULT_ENV_VAR = "TSPBENCH_FAULT_INVERT"


def check_city_count(n: int) -> None:
    """The one size rule.  It is checked only where a size enters the
    program, CostMatrix included, so every CostMatrix is solvable."""
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


def _walk(costs, n: int, start: int, count: int):
    """Best tour among the permutations of 1 .. n-1 with lexicographic
    index in [start, start + count), as (best_cost, closed_path).

    The walk descends over the sorted remaining labels (Knuth, TAOCP
    Vol. 4A, 7.2.1.2), so a leaf adds only its last legs to the cost of
    its prefix, and the last three levels are unrolled.  The walk enters
    once, at the root's edge over the range, which splits it into whole
    subtrees and the ragged edges that lead to them (a full range is all
    subtrees); factorial arithmetic skips every subtree outside it.  The
    strict ``<`` keeps the first optimum visited, the smallest in
    lexicographic order.
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


def better_result(a: SolveResult, b: SolveResult) -> SolveResult:
    """The smaller of two results by (cost, path).  Associative,
    commutative, total, and with EMPTY_RESULT as identity, so
    reductions may combine partial results in any order."""
    if (b.optimal_cost, b.optimal_path) < (a.optimal_cost, a.optimal_path):
        return b
    return a


def reduce_results(results: Iterable[SolveResult]) -> SolveResult:
    """Combine per-worker results: minimum by (cost, path), with
    evaluation counts summed so the reduced result reports the full
    amount of work performed."""
    best = EMPTY_RESULT
    evaluated = 0
    for result in results:
        evaluated += result.evaluated
        best = better_result(best, result)
    return SolveResult(best.optimal_cost, best.optimal_path, evaluated)


def _parse_int(text: str) -> int:
    """An integer in the instance format: an optional ``-`` and ASCII
    digits, nothing of Python's wider syntax (``+``, ``_``, other scripts)."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(text)
    return int(text)


def parse_instance(text: str) -> CostMatrix:
    """Parse the plain-text instance format.

    Line 1 is the city count n; lines 2 .. n+1 hold n comma-separated
    non-negative integers each, in ASCII digits.  Ragged rows, negative
    entries and a nonzero diagonal are rejected.
    """
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise ValidationError("empty instance file")
    head = lines[0].strip()
    try:
        n = _parse_int(head)
    except ValueError:
        head = reprlib.repr(head)
        raise ValidationError(f"line 1: expected the city count, got {head}") from None
    check_city_count(n)
    if len(lines) - 1 != n:
        raise ValidationError(f"expected {n} matrix rows, found {len(lines) - 1}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != n:
            raise ValidationError(f"line {lineno}: expected {n} values, got {len(parts)}")
        try:
            rows.append(tuple(_parse_int(p) for p in parts))
        except ValueError:
            raise ValidationError(f"line {lineno}: non-integer cost entry") from None
    return CostMatrix(tuple(rows))


def format_instance(matrix: CostMatrix) -> str:
    """Serialize a matrix in the plain-text instance format."""
    lines = [str(matrix.n)]
    lines.extend(",".join(str(c) for c in row) for row in matrix.costs)
    return "\n".join(lines) + "\n"
