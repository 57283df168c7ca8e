"""Problem instances, tour-cost evaluation, and the exhaustive solver.

A problem instance is an immutable square matrix of non-negative
integer trip costs.  Tours start and end at city 0, so a candidate
solution is a permutation of the remaining labels 1 .. n-1 and the
solver scans all (n-1)! of them keeping the cheapest.  One kernel,
``_walk``, does every scan: one recursive walk of the permutation tree
in lexicographic order that carries each prefix's cost down, hands each
subtree of five labels, whole or cut by the range, to a block generated
at first use, and on long ranges first tests all 120 tours of a whole
one at once, as the lanes of one integer, in the loop of its parent.

Among equal-cost optima the lexicographically smallest permutation
wins.  Every backend applies the same tie-break, which makes results
identical bit for bit regardless of how the permutation space was
partitioned or in which order partial results were combined.
"""

import posix
from itertools import combinations, permutations

from .errors import ExecutionError, ValidationError, quoted, record
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


class CostMatrix(record("CostMatrix", "costs")):
    """Square grid of non-negative integer trip costs with a zero
    diagonal; costs[i][j] need not equal costs[j][i].  A record (see
    errors.record) checked whenever one is built, unpickled or copied,
    and safe to share read-only across any number of workers."""

    __slots__ = ()

    def __new__(cls, costs: "Iterable[Iterable[int]]"):
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
                        f"cost[{i}][{j}] = {quoted(cost)} exceeds the maximum {MAX_COST}"
                    )
            if row[i] != 0:
                raise ValidationError(f"diagonal entry [{i}][{i}] must be 0, got {row[i]}")
        return super().__new__(cls, rows)

    @property
    def n(self) -> int:
        return len(self.costs)


class SolveResult(record("SolveResult", "optimal_cost optimal_path evaluated")):
    """Optimal cost and closed tour, plus how many permutations were
    examined to find them.  The empty sentinel (infinite cost, empty
    path, zero evaluated) stands for "no permutations scanned" and is
    the identity of result reduction.  Checked like CostMatrix."""

    __slots__ = ()

    def __new__(cls, optimal_cost: int, optimal_path: "Iterable[int]", evaluated: int):
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


def path_cost(perm: "Sequence[int]", matrix: CostMatrix) -> int:
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
    return bool(posix.environ.get(FAULT_ENV_VAR.encode()))


#: Leaf i of a block is the tour that orders its five labels as
#: _BLOCK_ORDER[i] (indices into them), in lexicographic order.
_BLOCK_ORDER = tuple(permutations(range(5)))

#: The lane filter (see _walk) serves a range at n <= _LANES_MAX_N with
#: _LANES_MIN leaves or more for each entry of its table, which a walk
#: builds whole (_lane_entries).  Block held, process_time, medians of
#: 15, filter / blocks on mid-space ranges: they break even near 18,500
#: leaves at n = 9 (960 entries), 38,500 at 10 (1,971), 80,000 at 11
#: (3,820), 170,000 at 12 (7,018) and 275,000 at 13 (12,288), which is
#: 19-24 leaves per entry; 24 is the highest.  Past it the filter wins:
#: a full n = 9 scan takes 0.54x the blocks' time, a full n = 10 one
#: 0.23x.  A full n = 13 table fills 12,288 of the 2**17 slots of its
#: list and takes 5.2 MiB with its ints, under 6 MiB.
_LANES_MIN = 24
_LANES_MAX_N = 13

#: A lane is 40 bits of an int, in _BLOCK_ORDER from the lowest.  An
#: entry of _lane_table holds a suffix cost in each lane, and _walk adds
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


def _lane_table(costs):
    """One walk's lane table, a list: table[mask << 4 | last] holds, in
    lane i, the cost of last -> the ith ordering of the labels set in
    mask -> 0, with the orderings in lexicographic order, for each last
    city >= 1 and each mask of up to five labels without it; no walk
    looks up last city 0.  The costs are a CostMatrix's, so each lane is
    in [0, 6 * MAX_COST] (see _LANE).  It is built once, level by level
    over the label sets of size k = 1 .. 5, in the subset-size order of
    Held and Karp's recurrence (J. SIAM 10(1), 1962), but it keeps every
    ordering's cost, not one minimum: for the labels y_0 < .. < y_k-1 of
    a set S, the entry of a last city is the sum over i of
    (costs[last][y_i] * _LANE_ONES[k-1] + table[y_i, S - y_i])
    << 40 * i * (k-1)!.  The second terms do not depend on the last city,
    so their sum is made once per set.  A table with n > 16 would need a
    wider key."""
    n = len(costs)
    table = [0] * (1 << n + 4)
    labels = range(1, n)
    for x in labels:
        table[x] = costs[x][0]
    for k in range(1, 6):
        width = _LANE * factorial(k - 1)
        legs = [_LANE_ONES[k - 1] << width * i for i in range(k)]
        for subset in combinations(labels, k):
            mask = 0
            for y in subset:
                mask |= 1 << y
            key = mask << 4
            base = 0
            for i, y in enumerate(subset):
                base += table[key ^ 16 << y | y] << width * i
            for last in labels:
                if not mask >> last & 1:
                    row = costs[last]
                    lanes = base
                    for i, y in enumerate(subset):
                        lanes += row[y] * legs[i]
                    table[key | last] = lanes
    return table


def _lane_entries(n: int) -> int:
    """The entries of a lane table at ``n`` cities: each last city >= 1
    with each set of up to five of the other n - 2 labels."""
    sets = subsets = 1
    for k in range(1, 6):
        subsets = subsets * (n - 1 - k) // k  # C(n-2, k) from C(n-2, k-1)
        sets += subsets
    return (n - 1) * sets


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
    its prefix.  One recursive walk(last, cost, rem, lo, hi) covers
    leaves lo .. hi-1 below a prefix, from the root's [start, start +
    count) down; factorial arithmetic skips the children outside them,
    and only the first and the last child can be cut.  Five labels left
    is one block call (block_for; n >= 6, with the three-leg suffix table
    t3), of whose totals the walk keeps the first cheapest in [lo, hi).
    One label left is the leaf of a tour of n < 6.  The strict ``<``
    keeps the first optimum visited, the smallest in lexicographic order.

    A range at n <= _LANES_MAX_N with _LANES_MIN leaves or more for each
    entry of a lane table (_lane_entries) also uses one, whose entry for
    a last city and five labels holds the suffix costs of all 120
    orderings, one to a 40-bit lane of one int (SWAR: Lamport, CACM
    18(8), 1975).  A node of six labels with a whole child builds its
    label mask once, and the walk's first such node builds the whole
    table (_lane_table), so a walk that tests no lane builds none, and
    none below n = 7 does.  In its loop the node tests each whole child
    before calling it: one multiply-add puts cost - best_cost + 2**39
    into each lane of the child's entry, table[mask ^ 1 << x + 4 | x]
    (the bounds are stated at _LANE), and one mask tests all 120 top
    bits: a lane's is clear exactly when its tour costs strictly less
    than the best so far.  With none clear, no tour of the child can
    replace the best under the strict ``<``, and the node counts its 120
    leaves; with any clear, the child runs its block as above.  So each
    tour still gets its own sum and its own comparison, nothing is
    pruned, and (cost, path) and the count are those of the blocks
    alone.
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
    filtered = n <= _LANES_MAX_N and count >= _LANES_MIN * _lane_entries(n)
    table = None  # built at the first node that tests a lane

    def walk(last, cost, rem, lo, hi):
        # leaves lo .. hi-1 of the orderings of ``rem`` after ``prefix``,
        # whose cost is ``cost``; a child wholly inside them gets [0, size)
        nonlocal best_cost, best_path, visited, table
        row = costs[last]
        if len(rem) == 5:  # the block's totals in [lo, hi); a full slice is the tuple itself
            totals = block(costs, t3, cost, row, *rem)[lo:hi]
            low = min(totals)
            if low < best_cost:
                order = _BLOCK_ORDER[lo + totals.index(low)]
                best_cost, best_path = low, (*prefix, *[rem[i] for i in order], 0)
            visited += hi - lo
            return
        if len(rem) == 1:  # the leaf of a tour of n < 6
            x = rem[0]
            visited += 1
            if cost + row[x] + home[x] < best_cost:
                best_cost, best_path = cost + row[x] + home[x], (*prefix, x, 0)
            return
        size = factorial(len(rem) - 1)  # leaves below each child
        first, final = lo // size, (hi - 1) // size
        # a whole child runs only when a lane of its entry is below the best;
        # (lo + 119) // 120 is the first whole child, and it ends by hi
        lanes = size == 120 and filtered and (lo + 119) // 120 < hi // 120
        if lanes:
            if table is None:
                table = _lane_table(costs)
            mask = sum(1 << x + 4 for x in rem)
        for i in range(first, final + 1):
            x = rem[i]
            child_lo = lo - i * size if i == first else 0
            child_hi = hi - i * size if i == final else size
            if lanes and child_hi - child_lo == 120 and (
                    table[mask ^ 1 << x + 4 | x] + (cost + row[x] - best_cost + _LANE_SHIFT)
                    * _LANE_ONES[5]) & _LANE_HIGH == _LANE_HIGH:
                visited += 120
                continue
            prefix.append(x)
            walk(x, cost + row[x], rem[:i] + rem[i + 1 :], child_lo, child_hi)
            prefix.pop()

    walk(0, 0, tuple(range(1, n)), start, start + count)
    # walk recurses, so it is in a reference cycle through its own cell.
    # Breaking it frees t3 and the table now, instead of at a cyclic
    # collection that may come many solves later.
    walk = table = None
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


def reduce_results(results: "Iterable[SolveResult]") -> SolveResult:
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
