import contextlib
import copy
import itertools
import math
import os
import pickle
from unittest import mock

import pytest

from tspbench import core
from tspbench.core import CostMatrix
from tspbench.errors import ValidationError
from tspbench.permutation import factorial

# 4-city example with hand-checkable leg sums; two tours cost 80
# ((1,3,2) and (2,3,1)) so it also exercises the tie-break.
FOUR_CITY_ROWS = (
    (0, 10, 15, 20),
    (10, 0, 35, 25),
    (15, 35, 0, 30),
    (20, 25, 30, 0),
)


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail any test that leaves a child process behind, running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left child {pid} unreaped" if pid else "the test left a child running")


@pytest.fixture
def four_city_matrix() -> CostMatrix:
    return CostMatrix(FOUR_CITY_ROWS)


def tour_cost(rows, perm) -> int:
    """Independent accumulation oracle: sum the legs directly."""
    cost = rows[0][perm[0]]
    for a, b in zip(perm, perm[1:]):
        cost += rows[a][b]
    return cost + rows[perm[-1]][0]


def brute_force_best(rows):
    """Oracle solver: enumerate tours with itertools.permutations (a
    code path fully independent of the library's unrank/successor
    scan), minimum by (cost, permutation)."""
    n = len(rows)
    best = None
    for perm in itertools.permutations(range(1, n)):
        key = (tour_cost(rows, perm), perm)
        if best is None or key < best:
            best = key
    cost, perm = best
    return cost, (0, *perm, 0)


#: The scan kernel's two paths: 5-level blocks for every range, however
#: long; and those blocks behind the lane filter for every range that
#: may build its table (n <= core._LANES_MAX_N).
KERNEL_PATHS = ("block", "lanes")


@contextlib.contextmanager
def kernel_path(path: str):
    """Context in which every scan takes ``path`` of KERNEL_PATHS: the
    lane filter's threshold is out of reach or 0."""
    with mock.patch.object(core, "_LANES_MIN", 0 if path == "lanes" else math.inf):
        yield


def better_result(a, b):
    """The smaller of two results by (cost, path), as
    core.reduce_results keeps it.  Associative, commutative, total, and
    with EMPTY_RESULT as identity, so reductions may combine partial
    results in any order."""
    if (b.optimal_cost, b.optimal_path) < (a.optimal_cost, a.optimal_path):
        return b
    return a


def all_ones(n: int) -> CostMatrix:
    return CostMatrix(tuple(tuple(0 if i == j else 1 for j in range(n)) for i in range(n)))


def check_record(record, kwargs, text, bad):
    """The behaviour every checked record keeps: ``record``, built from
    positional arguments, equals the record built from ``kwargs``,
    reads back as ``text``, hashes alike, refuses assignment and
    survives copy and pickle.  The checks run again on a pickle whose
    one 4242 is tampered to -1, and on ``_replace(**bad)``."""
    cls = type(record)
    assert cls(**kwargs) == record and type(cls(**kwargs)) is cls
    assert repr(record) == text
    assert hash(cls(**kwargs)) == hash(record)
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    for clone in (copy.copy(record), pickle.loads(pickle.dumps(record))):
        assert clone == record and type(clone) is cls
    payload = pickle.dumps(record)
    assert payload.count(b"M\x92\x10") == 1  # 4242 as BININT2
    with pytest.raises(ValidationError):
        pickle.loads(payload.replace(b"M\x92\x10", b"J\xff\xff\xff\xff"))  # -1 as BININT
    with pytest.raises(ValidationError):
        record._replace(**bad)


def next_permutation(seq: list) -> bool:
    """Advance ``seq`` to its lexicographic successor, in place.

    Returns True when a successor exists.  When ``seq`` is already the
    last permutation it is reset to sorted (first) order and False is
    returned, mirroring the C++ library convention so scan loops can
    detect the wrap-around.
    """
    if not seq:
        raise ValidationError("next_permutation of an empty sequence")
    i = len(seq) - 2
    while i >= 0 and seq[i] >= seq[i + 1]:
        i -= 1
    if i < 0:
        seq.reverse()
        return False
    j = len(seq) - 1
    while seq[j] <= seq[i]:
        j -= 1
    seq[i], seq[j] = seq[j], seq[i]
    seq[i + 1 :] = seq[len(seq) - 1 : i : -1]
    return True


def rank(perm) -> int:
    """Lexicographic index of ``perm`` among all permutations of its own
    label set; the inverse of tspbench.permutation.unrank.
    """
    pool = sorted(perm)
    k = len(pool)
    if len(set(pool)) != k:
        raise ValidationError("duplicate labels in permutation")
    factorial(k)  # capacity check
    index = 0
    for pos, label in enumerate(perm):
        d = pool.index(label)
        index += d * factorial(k - 1 - pos)
        pool.pop(d)
    return index
