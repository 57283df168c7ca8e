#!/usr/bin/env python3
"""Walk through one tiny instance: every tour, its cost, and how the
canonical optimum is chosen."""

from tspbench.core import CostMatrix, path_cost, solve_serial
from tspbench.permutation import factorial, unrank

ROWS = (
    (0, 10, 15, 20),
    (10, 0, 35, 25),
    (15, 35, 0, 30),
    (20, 25, 30, 0),
)

matrix = CostMatrix(ROWS)
n = matrix.n
total = factorial(n - 1)

print(f"{n} cities -> {total} tours to examine (city 0 is the fixed start/end)\n")
print(f"{'index':>5}  {'permutation':<12} {'tour':<18} cost")
for index in range(total):
    perm = unrank(index, range(1, n))
    tour = [0, *perm, 0]
    cost = path_cost(perm, matrix)
    print(f"{index:>5}  {str(perm):<12} {'-'.join(map(str, tour)):<18} {cost}")

result = solve_serial(matrix)
print(f"\noptimal cost {result.optimal_cost}, tour {'-'.join(map(str, result.optimal_path))}")
print("note: two tours cost 80; the lexicographically smaller permutation wins,")
print("which is the tie-break every backend shares so answers are bit-identical.")
