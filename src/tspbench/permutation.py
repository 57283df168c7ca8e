"""Lexicographic permutation arithmetic and work-range partitioning.

Permutations of a sorted label set are numbered 0 .. k!-1 in
lexicographic order.  Indices are plain Python ints, but the supported
range is deliberately capped at 34! so that every index fits in 128
bits; that keeps indices portable on the wire protocol and rules out
silently unbounded work requests.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence

from .errors import CapacityError, ValidationError

_FACTORIALS = [1]  # 0! .. 34!, the largest that fits in 128 bits
for _i in range(1, 35):
    _FACTORIALS.append(_FACTORIALS[-1] * _i)
del _i


def factorial(n: int) -> int:
    """n! for 0 <= n <= 34.

    Larger arguments raise CapacityError: the result would no longer
    fit in a 128-bit index.
    """
    if n < 0:
        raise ValidationError(f"factorial is undefined for negative n, got {n}")
    if n >= len(_FACTORIALS):
        raise CapacityError(
            f"factorial({n}) exceeds the 128-bit index range "
            f"(largest supported n is {len(_FACTORIALS) - 1})"
        )
    return _FACTORIALS[n]


def unrank(index: int, items: Sequence) -> list:
    """The permutation at position ``index`` in the lexicographic order
    of all permutations of ``items`` (sorted ascending, no duplicates).

    Factorial-number-system decoding: the digit of ``index`` in base
    (k-1)!, (k-2)!, ... picks which of the remaining items comes next.
    ``unrank(0, items)`` is ``items`` itself.
    """
    pool = list(items)
    k = len(pool)
    if sorted(pool) != pool:
        raise ValidationError("items must be sorted ascending")
    if len(set(pool)) != k:
        raise ValidationError("items must be distinct")
    total = factorial(k)
    if not 0 <= index < total:
        raise ValidationError(
            f"index {index} out of range for {k} items (valid: 0 .. {total - 1})"
        )
    out = []
    rem = index
    for pos in range(k - 1, -1, -1):
        digit, rem = divmod(rem, _FACTORIALS[pos])
        out.append(pool.pop(digit))
    return out


class WorkRange(namedtuple("WorkRange", "start end")):
    """Half-open interval [start, end) of permutation indices owned by
    one worker.  Empty ranges (start == end) are legal no-op
    assignments, which keeps sweeps over worker counts uniform.  A named
    tuple checked whenever one is built, unpickled or copied."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    def __new__(cls, start: int, end: int):
        if start < 0 or end < start:
            raise ValidationError(f"invalid work range [{start}, {end})")
        return super().__new__(cls, start, end)

    @property
    def count(self) -> int:
        """Number of permutations the owning worker evaluates."""
        return self.end - self.start


def partition(total: int, workers: int) -> list[WorkRange]:
    """Split [0, total) into exactly ``workers`` contiguous ranges.

    With q, r = divmod(total, workers) the first r ranges get q+1
    indices and the rest get q, so lengths never differ by more than
    one and the longer ranges always come first.  ``workers > total``
    yields empty trailing ranges.
    """
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    if total < 0:
        raise ValidationError(f"total must be >= 0, got {total}")
    q, r = divmod(total, workers)
    ranges = []
    start = 0
    for i in range(workers):
        size = q + 1 if i < r else q
        ranges.append(WorkRange(start, start + size))
        start += size
    return ranges
