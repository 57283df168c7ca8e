"""Independent oracle for the benchmark: Held-Karp dynamic programming.

It shares no code with tspbench.  ``held_karp`` computes the optimal
closed-tour cost from city 0 (Held & Karp, J. SIAM 10(1), 1962) and then
rebuilds the tour greedily: at each step it takes the smallest next city
through which the optimum is still reachable.  That yields the
lexicographically smallest optimal tour, which is tspbench's tie-break.
Time and memory are O(2^n * n^2) and O(2^n * n): a few ms at n=8 and
well under a second at n=11.
"""

from __future__ import annotations

from typing import Sequence


def held_karp(rows: Sequence[Sequence[int]]) -> tuple[int, tuple[int, ...]]:
    """Optimal ``(cost, path)`` of the closed tour that starts and ends at
    city 0, with ties broken towards the lexicographically smallest path."""
    n = len(rows)
    if n < 2 or any(len(row) != n for row in rows):
        raise ValueError(f"need a square matrix of at least 2 cities, got {n} rows")
    m = n - 1  # cities 1 .. n-1 are bits 0 .. m-1
    full = (1 << m) - 1
    inf = float("inf")
    # to_go[mask][j]: cheapest cost to finish the tour from city j+1 when
    # the cities in ``mask`` (j included) have been visited.
    to_go = [[inf] * m for _ in range(full + 1)]
    for j in range(m):
        to_go[full][j] = rows[j + 1][0]
    for mask in range(full - 1, 0, -1):
        row = to_go[mask]
        for j in range(m):
            if not mask >> j & 1:
                continue
            legs = rows[j + 1]
            best = inf
            for k in range(m):
                if mask >> k & 1:
                    continue
                cost = legs[k + 1] + to_go[mask | 1 << k][k]
                if cost < best:
                    best = cost
            row[j] = best
    optimum = min(rows[0][k + 1] + to_go[1 << k][k] for k in range(m))

    path = [0]
    mask = 0
    city = 0
    spent = 0
    for _ in range(m):
        for k in range(m):
            if not mask >> k & 1 and spent + rows[city][k + 1] + to_go[mask | 1 << k][k] == optimum:
                break
        else:
            raise AssertionError("no next city reaches the optimum")
        spent += rows[city][k + 1]
        mask |= 1 << k
        city = k + 1
        path.append(city)
    path.append(0)
    return optimum, tuple(path)
