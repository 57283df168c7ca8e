import os

import pytest

from conftest import all_ones
from tspbench.backends import (
    BackendSpec,
    hybrid_ranges,
    parse_backend_spec,
    solve,
    solve_hybrid,
    solve_interval_team,
    solve_message_passing,
    solve_shared_memory,
)
from tspbench.core import FAULT_ENV_VAR, SolveResult, solve_range, solve_serial
from tspbench.errors import ExecutionError, ValidationError
from tspbench.instances import generate_instance
from tspbench.permutation import WorkRange, factorial, partition


class TestBackendSpec:
    def test_parallel_elements(self):
        assert BackendSpec("serial").parallel_elements == 1
        assert BackendSpec("shared_memory", threads=4).parallel_elements == 4
        assert BackendSpec("message_passing", processes=3).parallel_elements == 3
        assert BackendSpec("hybrid", threads=3, processes=2).parallel_elements == 6

    def test_field_discipline(self):
        with pytest.raises(ValidationError):
            BackendSpec("serial", threads=2)
        with pytest.raises(ValidationError):
            BackendSpec("shared_memory")
        with pytest.raises(ValidationError):
            BackendSpec("shared_memory", threads=0)
        with pytest.raises(ValidationError):
            BackendSpec("message_passing", threads=2, processes=2)
        with pytest.raises(ValidationError):
            BackendSpec("hybrid", threads=2)
        with pytest.raises(ValidationError):
            BackendSpec("openmp", threads=2)

    @pytest.mark.parametrize(
        "token,kind,p",
        [
            ("serial", "serial", 1),
            ("threads:4", "shared_memory", 4),
            ("procs:3", "message_passing", 3),
            ("hybrid:2x3", "hybrid", 6),
        ],
    )
    def test_parse_and_label_round_trip(self, token, kind, p):
        spec = parse_backend_spec(token)
        assert spec.kind == kind
        assert spec.parallel_elements == p
        assert spec.label() == token
        assert parse_backend_spec(spec.label()) == spec

    @pytest.mark.parametrize("token", ["", "thread:2", "threads:", "threads:x", "hybrid:2", "procs:-1"])
    def test_parse_rejects_garbage(self, token):
        with pytest.raises(ValidationError):
            parse_backend_spec(token)


class TestWorkerCount:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_team_member_over_count_is_execution_error(self, four_city_matrix, monkeypatch, threads):
        # fork children inherit the patched scan, so every team member over-counts
        def over_counting(matrix, work):
            result = solve_range(matrix, work)
            return SolveResult(result.optimal_cost, result.optimal_path, result.evaluated + 1)

        monkeypatch.setattr("tspbench.backends.solve_range", over_counting)
        with pytest.raises(ExecutionError, match="worker 0 evaluated"):
            solve_interval_team(four_city_matrix, WorkRange(0, 6), threads)


@pytest.fixture(scope="module")
def instance7():
    return generate_instance(7, 2024, symmetric=False)


@pytest.fixture(scope="module")
def serial7(instance7):
    return solve_serial(instance7)


class TestSharedMemory:
    def test_single_team_is_serial(self, instance7, serial7):
        assert solve_shared_memory(instance7, 1) == serial7

    @pytest.mark.parametrize("threads", [2, 3, 5, 8, 16])
    def test_matches_serial(self, instance7, serial7, threads):
        assert solve_shared_memory(instance7, threads) == serial7

    def test_four_city_three_threads(self, four_city_matrix):
        result = solve_shared_memory(four_city_matrix, 3)
        assert result.optimal_cost == 80
        assert result.optimal_path == (0, 1, 3, 2, 0)

    def test_tie_break_with_idle_workers(self):
        # 8 workers on 5! = 120 permutations; all tours cost 6
        result = solve_shared_memory(all_ones(6), 8)
        assert result.optimal_cost == 6
        assert result.optimal_path == (0, 1, 2, 3, 4, 5, 0)

    def test_more_workers_than_permutations(self):
        # n=3 has only 2 permutations; 6 of the 8 workers stay idle
        m = all_ones(3)
        result = solve_shared_memory(m, 8)
        assert result == solve_serial(m)
        assert result.evaluated == 2

    def test_work_conservation(self, instance7):
        for threads in (1, 2, 3, 4, 8):
            assert solve_shared_memory(instance7, threads).evaluated == factorial(6)

    def test_rejects_bad_thread_count(self, instance7):
        with pytest.raises(ValidationError):
            solve_shared_memory(instance7, 0)


class TestMessagePassing:
    def test_single_process_is_serial(self, instance7, serial7):
        assert solve_message_passing(instance7, 1) == serial7

    @pytest.mark.parametrize("processes", [2, 4])
    def test_matches_serial(self, instance7, serial7, processes):
        assert solve_message_passing(instance7, processes) == serial7

    def test_one_permutation_per_worker(self, four_city_matrix):
        result = solve_message_passing(four_city_matrix, 6)
        assert result.optimal_cost == 80
        assert result.optimal_path == (0, 1, 3, 2, 0)
        assert result.evaluated == 6

    def test_spawn_failure_is_execution_error(self, four_city_matrix, monkeypatch):
        monkeypatch.setenv("TSPBENCH_WORKER_BIN", "/nonexistent/worker-binary")
        with pytest.raises(ExecutionError):
            solve_message_passing(four_city_matrix, 2)


class TestHybrid:
    def test_one_by_one_is_serial(self, instance7, serial7):
        assert solve_hybrid(instance7, 1, 1) == serial7

    @pytest.mark.parametrize("processes,threads", [(2, 2), (2, 3), (4, 2), (1, 4), (3, 1)])
    def test_matches_serial(self, instance7, serial7, processes, threads):
        assert solve_hybrid(instance7, processes, threads) == serial7

    def test_four_city_two_by_three(self, four_city_matrix):
        # 6 ranges of exactly one permutation each
        result = solve_hybrid(four_city_matrix, 2, 3)
        assert result.optimal_cost == 80
        assert result.optimal_path == (0, 1, 3, 2, 0)
        assert result.evaluated == 6

    def test_tie_break(self):
        result = solve_hybrid(all_ones(5), 2, 2)
        assert result.optimal_cost == 5
        assert result.optimal_path == (0, 1, 2, 3, 4, 0)

    def test_flat_partition_equivalence(self):
        # hybrid's grouped assignment must flatten to exactly the flat
        # partition over processes * threads elements
        for total in (0, 1, 5, 24, 719, 5040, 40320, 362880):
            for p in range(1, 5):
                for t in range(1, 5):
                    flat = partition(total, p * t)
                    groups = hybrid_ranges(total, p, t)
                    assert [w for g in groups for w in g] == flat

    def test_worker_local_split_matches_flat_partition(self):
        # a hybrid worker re-partitions its contiguous span locally;
        # that split must reproduce the global flat ranges exactly
        for total in (1, 7, 24, 120, 5040, 40321):
            for p in range(1, 5):
                for t in range(1, 5):
                    groups = hybrid_ranges(total, p, t)
                    for group in groups:
                        span = WorkRange(group[0].start, group[-1].end)
                        local = [
                            WorkRange(span.start + w.start, span.start + w.end)
                            for w in partition(span.count, t)
                        ]
                        assert local == group

    def test_interval_team_scans_exactly_its_window(self, four_city_matrix):
        result = solve_interval_team(four_city_matrix, WorkRange(3, 6), 2)
        assert result == solve_range(four_city_matrix, WorkRange(3, 6))


class TestDispatchAndDeterminism:
    def test_solve_dispatch(self, four_city_matrix):
        for spec in (
            BackendSpec("serial"),
            BackendSpec("shared_memory", threads=2),
            BackendSpec("message_passing", processes=2),
            BackendSpec("hybrid", processes=2, threads=2),
        ):
            result = solve(four_city_matrix, spec)
            assert (result.optimal_cost, result.optimal_path) == (80, (0, 1, 3, 2, 0))

    def test_repeated_runs_identical(self, instance7):
        first = solve_shared_memory(instance7, 3)
        second = solve_shared_memory(instance7, 3)
        assert first == second
        first_mp = solve_message_passing(instance7, 2)
        second_mp = solve_message_passing(instance7, 2)
        assert first_mp == second_mp


class TestFaultHook:
    def test_inverted_comparison_changes_ranged_scans(self, four_city_matrix, monkeypatch):
        healthy = solve_range(four_city_matrix, WorkRange(0, 6))
        monkeypatch.setenv(FAULT_ENV_VAR, "1")
        faulty = solve_range(four_city_matrix, WorkRange(0, 6))
        assert faulty.optimal_cost == 95  # the worst tour, not the best
        assert faulty != healthy
        # serial is the reference and must stay immune
        assert solve_serial(four_city_matrix).optimal_cost == 80

    def test_fault_propagates_into_worker_processes(self, four_city_matrix, monkeypatch):
        monkeypatch.setenv(FAULT_ENV_VAR, "1")
        result = solve_message_passing(four_city_matrix, 2)
        assert result.optimal_cost == 95
