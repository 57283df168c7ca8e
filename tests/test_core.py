import itertools
import pickle
import pickletools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FOUR_CITY_ROWS, all_ones, better_result, brute_force_best, check_record, tour_cost,
)
from tspbench import core
from tspbench.backends import KINDS, BackendSpec
from tspbench.bench import BenchPlan, InstanceSolution, Report
from tspbench.core import (
    EMPTY_RESULT,
    FAULT_ENV_VAR,
    INFINITE_COST,
    CostMatrix,
    SolveResult,
    path_cost,
    reduce_results,
    solve_range,
    solve_serial,
)
from tspbench.errors import ValidationError
from tspbench.instances import format_instance, parse_instance
from tspbench.metrics import MetricsRow
from tspbench.permutation import WorkRange, factorial, partition
from tspbench.protocol import Task


def random_matrix(n, rng, symmetric=False, high=100):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if symmetric and j < i:
                rows[i][j] = rows[j][i]
            else:
                rows[i][j] = rng.randint(1, high)
    return CostMatrix(tuple(tuple(r) for r in rows))


class TestCostMatrix:
    def test_basic(self, four_city_matrix):
        assert four_city_matrix.n == 4
        assert four_city_matrix.costs[1][3] == 25

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            CostMatrix(((0, 1), (1, 0), (1, 1)))
        with pytest.raises(ValidationError):
            CostMatrix(((0, 1, 2), (1, 0, 3)))

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            CostMatrix(((0, -1), (1, 0)))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValidationError):
            CostMatrix(((1, 2), (2, 0)))

    def test_rejects_single_city(self):
        with pytest.raises(ValidationError):
            CostMatrix(((0,),))

    def test_rejects_oversized_cost(self):
        with pytest.raises(ValidationError):
            CostMatrix(((0, 10**9 + 1), (1, 0)))

    def test_asymmetric_is_legal(self):
        m = CostMatrix(((0, 5), (9, 0)))
        assert m.costs[0][1] != m.costs[1][0]


class TestRecords:
    """The checked records: each check's error text, and the behaviour
    every such record keeps (conftest.check_record)."""

    @pytest.mark.parametrize(
        "build,text",
        [
            (lambda: CostMatrix(((0,),)), "city count must be in 2 .. 34, got 1"),
            (lambda: CostMatrix(((0, 1), (1, 0), (1, 1))),
             "row 0 has 2 entries, expected 3 (matrix must be square)"),
            (lambda: CostMatrix(((0, 1.5), (1, 0))), "cost[0][1] is not an integer: 1.5"),
            (lambda: CostMatrix(((0, 1), (True, 0))), "cost[1][0] is not an integer: True"),
            (lambda: CostMatrix(((0, -1), (1, 0))), "cost[0][1] is negative: -1"),
            (lambda: CostMatrix(((0, 10**9 + 1), (1, 0))),
             "cost[0][1] = 1000000001 exceeds the maximum 1000000000"),
            (lambda: CostMatrix(((1, 2), (2, 0))), "diagonal entry [0][0] must be 0, got 1"),
            (lambda: SolveResult(-1, (), 0), "negative tour cost -1"),
            (lambda: SolveResult(0, (), -1), "negative evaluation count -1"),
            (lambda: SolveResult(0, (1, 0), 1), "tour must start and end at city 0"),
            (lambda: SolveResult(0, (0, 1, 1, 0), 2),
             "tour must visit each remaining city exactly once"),
            (lambda: SolveResult(0, (0, 0, 0), 1), "tour must visit each remaining city exactly once"),
            (lambda: BackendSpec("gpu"), f"unknown backend kind 'gpu' (expected one of {KINDS})"),
            (lambda: BackendSpec("shared_memory"), "shared_memory backend needs threads >= 1, got None"),
            (lambda: BackendSpec("hybrid", True, 2), "hybrid backend needs threads >= 1, got True"),
            (lambda: BackendSpec("message_passing", processes=0),
             "message_passing backend needs processes >= 1, got 0"),
            (lambda: BackendSpec("serial", 2), "serial backend does not take threads"),
            (lambda: BackendSpec("shared_memory", 2, 2), "shared_memory backend does not take processes"),
        ],
    )
    def test_error_text(self, build, text):
        with pytest.raises(ValidationError) as info:
            build()
        assert str(info.value) == text

    @pytest.mark.parametrize(
        "record,kwargs,text,bad",
        [
            (CostMatrix(((0, 4242), (7, 0))), {"costs": ((0, 4242), (7, 0))},
             "CostMatrix(costs=((0, 4242), (7, 0)))", {"costs": ((0, 1),)}),
            (SolveResult(4242, (0, 1, 2, 0), 2),
             {"optimal_cost": 4242, "optimal_path": (0, 1, 2, 0), "evaluated": 2},
             "SolveResult(optimal_cost=4242, optimal_path=(0, 1, 2, 0), evaluated=2)",
             {"evaluated": -1}),
            (BackendSpec("message_passing", None, 4242), {"kind": "message_passing", "processes": 4242},
             "BackendSpec(kind='message_passing', threads=None, processes=4242)", {"threads": 2}),
            (BenchPlan((8,), (BackendSpec("serial"),), 4242),
             {"n_values": (8,), "backends": (BackendSpec("serial"),), "repetitions": 4242},
             "BenchPlan(n_values=(8,), backends=(BackendSpec(kind='serial', threads=None, "
             "processes=None),), repetitions=4242, warmup=1, seed=0, symmetric=True)",
             {"warmup": -1}),
        ],
        ids=["CostMatrix", "SolveResult", "BackendSpec", "BenchPlan"],
    )
    def test_record_behaviour(self, record, kwargs, text, bad):
        check_record(record, kwargs, text, bad)

    @pytest.mark.parametrize(
        "cls,kwargs,text",
        [
            (Task, {"n": 2, "matrix": ((0, 1), (1, 0)), "start": 0, "end": 1, "threads": 1},
             "Task(n=2, matrix=((0, 1), (1, 0)), start=0, end=1, threads=1)"),
            (InstanceSolution, {"n": 4, "optimal_cost": 80, "optimal_path": (0, 1, 3, 2, 0)},
             "InstanceSolution(n=4, optimal_cost=80, optimal_path=(0, 1, 3, 2, 0))"),
            (MetricsRow, {"backend": "hybrid", "n": 8, "p": 2, "mean_seconds": 0.5, "speedup": 1.5,
                          "efficiency": 0.75, "karp_flatt": None},
             "MetricsRow(backend='hybrid', n=8, p=2, mean_seconds=0.5, speedup=1.5, "
             "efficiency=0.75, karp_flatt=None)"),
            (Report, {"schema_version": "1", "plan": BenchPlan((4,), (BackendSpec("serial"),)),
                      "environment": "env", "solutions": (), "timings": (), "metrics": ()},
             "Report(schema_version='1', plan=BenchPlan(n_values=(4,), backends=(BackendSpec("
             "kind='serial', threads=None, processes=None),), repetitions=5, warmup=1, seed=0, "
             "symmetric=True), environment='env', solutions=(), timings=(), metrics=())"),
        ],
        ids=["Task", "InstanceSolution", "MetricsRow", "Report"],
    )
    def test_plain_record_behaviour(self, cls, kwargs, text):
        # the records without checks: built by keyword as by position, a
        # tuple of the fields in order, pickled as a reference to the type
        record = cls(**kwargs)
        assert record == cls(*kwargs.values()) == tuple(kwargs.values()) and type(record) is cls
        assert repr(record) == text
        assert list(record._asdict().items()) == list(kwargs.items())
        assert record._replace() == record and type(record._replace()) is cls
        payload = pickle.dumps(record)
        names = [arg for op, arg, _ in pickletools.genops(payload) if op.name == "SHORT_BINUNICODE"]
        assert names[:2] == [cls.__module__, cls.__name__]
        assert pickle.loads(payload) == record and type(pickle.loads(payload)) is cls

    def test_fields_become_tuples(self):
        assert CostMatrix([[0, 1], [1, 0]]).costs == ((0, 1), (1, 0))
        assert SolveResult(3, [0, 1, 0], 1).optimal_path == (0, 1, 0)


def test_fault_switch_follows_the_environment(monkeypatch):
    # core reads the environment on each call, so setenv and delenv in
    # this process reach it at once
    monkeypatch.delenv(FAULT_ENV_VAR, raising=False)
    assert not core._fault_enabled()
    monkeypatch.setenv(FAULT_ENV_VAR, "1")
    assert core._fault_enabled()
    monkeypatch.setenv(FAULT_ENV_VAR, "")
    assert not core._fault_enabled()
    monkeypatch.setenv(FAULT_ENV_VAR, "yes")
    assert core._fault_enabled()
    monkeypatch.delenv(FAULT_ENV_VAR)
    assert not core._fault_enabled()


class TestPathCost:
    def test_all_ones(self):
        assert path_cost([1, 2, 3], all_ones(4)) == 4

    def test_hand_sums(self, four_city_matrix):
        # oracles: 10+25+30+15 and 15+35+25+20
        assert path_cost([1, 3, 2], four_city_matrix) == 80
        assert path_cost([2, 1, 3], four_city_matrix) == 95

    def test_rejects_bad_labels(self, four_city_matrix):
        with pytest.raises(ValidationError):
            path_cost([1, 2, 4], four_city_matrix)
        with pytest.raises(ValidationError):
            path_cost([1, 2, 2], four_city_matrix)
        with pytest.raises(ValidationError):
            path_cost([0, 1, 2], four_city_matrix)
        with pytest.raises(ValidationError):
            path_cost([1, 2], four_city_matrix)

    def test_matches_leg_sum_oracle(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(2, 7)
            m = random_matrix(n, rng)
            perm = list(range(1, n))
            rng.shuffle(perm)
            assert path_cost(perm, m) == tour_cost(m.costs, perm)


class TestSolveSerial:
    def test_two_cities(self):
        m = CostMatrix(((0, 7), (7, 0)))
        result = solve_serial(m)
        assert result.optimal_cost == 14
        assert result.optimal_path == (0, 1, 0)
        assert result.evaluated == 1

    def test_four_city_example(self, four_city_matrix):
        result = solve_serial(four_city_matrix)
        assert result.optimal_cost == 80
        assert result.optimal_path == (0, 1, 3, 2, 0)
        assert result.evaluated == 6

    def test_tie_break_selects_identity(self):
        result = solve_serial(all_ones(5))
        assert result.optimal_cost == 5
        assert result.optimal_path == (0, 1, 2, 3, 4, 0)

    def test_against_enumeration_oracle(self):
        rng = random.Random(99)
        for _ in range(25):
            n = rng.randint(2, 7)
            m = random_matrix(n, rng)
            cost, path = brute_force_best(m.costs)
            result = solve_serial(m)
            assert (result.optimal_cost, result.optimal_path) == (cost, path)
            assert result.evaluated == factorial(n - 1)

    def test_lower_bound_property(self):
        rng = random.Random(3)
        for _ in range(10):
            n = rng.randint(3, 7)
            m = random_matrix(n, rng)
            floor = min(
                m.costs[i][j] for i in range(n) for j in range(n) if i != j
            )
            assert solve_serial(m).optimal_cost >= n * floor

    def test_monotonic_shift_property(self):
        rng = random.Random(5)
        for _ in range(10):
            n = rng.randint(3, 6)
            m = random_matrix(n, rng)
            c = rng.randint(1, 50)
            shifted = CostMatrix(
                tuple(
                    tuple(0 if i == j else m.costs[i][j] + c for j in range(n))
                    for i in range(n)
                )
            )
            base = solve_serial(m)
            moved = solve_serial(shifted)
            assert moved.optimal_cost == base.optimal_cost + n * c
            assert moved.optimal_path == base.optimal_path

    def test_symmetric_reversal_property(self):
        rng = random.Random(11)
        for _ in range(10):
            n = rng.randint(3, 7)
            m = random_matrix(n, rng, symmetric=True)
            for _ in range(10):
                perm = list(range(1, n))
                rng.shuffle(perm)
                assert path_cost(perm, m) == path_cost(perm[::-1], m)


class TestSolveRange:
    def test_full_range_equals_serial(self, four_city_matrix):
        full = WorkRange(0, factorial(3))
        assert solve_range(four_city_matrix, full) == solve_serial(four_city_matrix)

    def test_prefix_range(self, four_city_matrix):
        # permutation indices 0,1,2: (1,2,3)=95 (1,3,2)=80 (2,1,3)=95
        result = solve_range(four_city_matrix, WorkRange(0, 3))
        assert result.optimal_cost == 80
        assert result.optimal_path == (0, 1, 3, 2, 0)
        assert result.evaluated == 3

    def test_suffix_range(self, four_city_matrix):
        # indices 3,4,5: (2,3,1)=80 (3,1,2)=95 (3,2,1)=95
        result = solve_range(four_city_matrix, WorkRange(3, 6))
        assert result.optimal_cost == 80
        assert result.optimal_path == (0, 2, 3, 1, 0)
        assert result.evaluated == 3

    def test_empty_range_sentinel(self, four_city_matrix):
        result = solve_range(four_city_matrix, WorkRange(2, 2))
        assert result == EMPTY_RESULT
        assert result.optimal_cost == INFINITE_COST
        assert result.optimal_path == ()
        assert result.evaluated == 0

    def test_out_of_bounds_rejected(self, four_city_matrix):
        with pytest.raises(ValidationError):
            solve_range(four_city_matrix, WorkRange(0, 7))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_decomposition_property(self, n):
        rng = random.Random(1000 + n)
        m = random_matrix(n, rng)
        expected = solve_serial(m)
        total = factorial(n - 1)
        for workers in (1, 2, 3, 5, rng.randint(1, 16)):
            parts = partition(total, workers)
            combined = reduce_results(solve_range(m, part) for part in parts)
            assert combined == expected
        # a lopsided split must agree too
        if total > 2:
            cut1 = rng.randrange(1, total)
            cut2 = rng.randrange(cut1, total)
            pieces = [WorkRange(0, cut1), WorkRange(cut1, cut2), WorkRange(cut2, total)]
            assert reduce_results(solve_range(m, p) for p in pieces) == expected


class TestReduction:
    def test_better_result_orders_by_cost_then_path(self):
        a = SolveResult(10, (0, 1, 2, 0), 3)
        b = SolveResult(10, (0, 2, 1, 0), 3)
        c = SolveResult(9, (0, 2, 1, 0), 3)
        assert better_result(a, b) is a
        assert better_result(b, a) is a
        assert better_result(a, c) is c

    def test_sentinel_is_identity(self):
        a = SolveResult(10, (0, 1, 2, 0), 3)
        assert better_result(EMPTY_RESULT, a) is a
        assert better_result(a, EMPTY_RESULT) is a

    def test_reduce_sums_evaluated(self):
        a = SolveResult(10, (0, 1, 2, 0), 3)
        b = SolveResult(12, (0, 2, 1, 0), 3)
        combined = reduce_results([a, EMPTY_RESULT, b])
        assert combined.optimal_cost == 10
        assert combined.optimal_path == (0, 1, 2, 0)
        assert combined.evaluated == 6

    @given(st.permutations(list(range(5))))
    @settings(max_examples=60)
    def test_reduction_is_order_independent(self, order):
        rng = random.Random(42)
        m = random_matrix(5, rng)
        parts = partition(factorial(4), 5)
        results = [solve_range(m, part) for part in parts]
        shuffled = [results[i] for i in order]
        assert reduce_results(shuffled) == reduce_results(results)


class TestSolveResultValidation:
    def test_path_must_close_at_zero(self):
        with pytest.raises(ValidationError):
            SolveResult(5, (1, 2, 0), 1)
        with pytest.raises(ValidationError):
            SolveResult(5, (0, 1, 2), 1)

    def test_path_must_not_repeat(self):
        with pytest.raises(ValidationError):
            SolveResult(5, (0, 1, 1, 0), 1)


class TestInstanceFiles:
    def test_round_trip(self, four_city_matrix):
        assert parse_instance(format_instance(four_city_matrix)) == four_city_matrix

    def test_format(self):
        m = CostMatrix(((0, 7), (7, 0)))
        assert format_instance(m) == "2\n0,7\n7,0\n"

    def test_whitespace_tolerated(self):
        m = parse_instance("2\n 0 , 7 \n7,0\n\n")
        assert m.costs == ((0, 7), (7, 0))

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "x\n0,1\n1,0",
            "2\n0,1\n1,0\n9,9",  # extra row
            "2\n0,1",  # missing row
            "2\n0,1,2\n1,0",  # ragged
            "2\n0,-1\n1,0",  # negative
            "2\n0,1\n1,5",  # nonzero diagonal
            "2\n0,a\n1,0",  # non-integer
            "1\n0",  # too small
            "2\n0,1_0\n1_0,0",  # Python's digit separator
            "2\n0,+1\n+1,0",  # a sign other than -
            "2\n0,\u0661\n\u0661,0",  # a digit outside ASCII (Arabic-Indic one)
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ValidationError):
            parse_instance(text)
