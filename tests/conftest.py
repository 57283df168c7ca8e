import copy
import itertools
import os
import pickle

import pytest

from tspbench.core import CostMatrix
from tspbench.errors import ValidationError

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
