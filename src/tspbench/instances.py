"""Deterministic, cross-platform instance generation, and the
plain-text instance file format.

The generator is SplitMix64: a 64-bit counter advanced by the constant
0x9E3779B97F4A7C15 and finalized with two xor-shift-multiply rounds.
It is tiny, fully specified by integer arithmetic (no platform or
library dependence), and its first outputs for seed 0 are pinned as
test vectors so any drift breaks loudly.  Matrices generated from the
same (n, seed, symmetric) triple are therefore identical everywhere,
which is what makes golden regression costs meaningful.
"""

from __future__ import annotations

import reprlib

from .core import CostMatrix, check_city_count
from .errors import ValidationError

_MASK64 = (1 << 64) - 1

#: Cost entries are drawn uniformly from 1 .. COST_RANGE.
COST_RANGE = 1000


class SplitMix64:
    """64-bit PRNG with the same seed-to-stream mapping on every
    platform.  Not cryptographic; statistical quality is ample for
    cost matrices."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def cost(self) -> int:
        return 1 + self.next_uint64() % COST_RANGE


def generate_instance(n: int, seed: int, symmetric: bool = True) -> CostMatrix:
    """Deterministic function of (n, seed, symmetric).

    Entries are 1 + (next_uint64() mod 1000), drawn row-major over the
    off-diagonal cells; symmetric instances draw the upper triangle
    only and mirror it.  The diagonal is zero.
    """
    check_city_count(n)
    rng = SplitMix64(seed)
    grid = [[0] * n for _ in range(n)]
    if symmetric:
        for i in range(n):
            for j in range(i + 1, n):
                grid[i][j] = grid[j][i] = rng.cost()
    else:
        for i in range(n):
            for j in range(n):
                if i != j:
                    grid[i][j] = rng.cost()
    return CostMatrix(tuple(tuple(row) for row in grid))


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
