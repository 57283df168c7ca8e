"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

The speedup-trend criterion is hardware-conditional (it needs at least
4 CPU cores to be meaningful) and skips elsewhere; everything else is
exact and runs anywhere.
"""

import itertools
import json
import os
import random
import subprocess
import sys
from contextlib import contextmanager

import pytest

from conftest import next_permutation, rank
from tspbench.backends import (
    BackendSpec,
    hybrid_ranges,
    solve_hybrid,
    solve_message_passing,
    solve_shared_memory,
    worker_command,
)
from tspbench.bench import (
    METRICS_CSV_HEADER,
    BenchPlan,
    metrics_csv_text,
    report_from_json,
    report_to_json,
    run_bench,
)
from tspbench.cli import cli_dispatch
from tspbench.core import solve_range, solve_serial
from tspbench.errors import ExecutionError, ProtocolError
from tspbench.instances import format_instance, generate_instance
from tspbench.metrics import karp_flatt
from tspbench.permutation import WorkRange, factorial, partition, unrank
from tspbench.protocol import parse_message, shutdown_message, task_message


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException as exc:
        word = "SKIP" if exc.__class__.__name__ == "Skipped" else "FAIL"
        print(f"[{word}] {label}: {exc}")
        raise
    print(f"[PASS] {label}")


# --- 1. oracle equivalence --------------------------------------------------

SHARED_TEAMS = (1, 2, 3, 4, 8, 16)
MESSAGE_TEAMS = (1, 2, 3, 4)
HYBRID_TEAMS = ((2, 2), (2, 3), (4, 2))


def test_criterion_1_backend_oracle_equivalence():
    with criterion("1 all backends equal the serial oracle on 100 seeded instances"):
        sizes = itertools.cycle(range(4, 10))
        for i in range(100):
            n = next(sizes)
            matrix = generate_instance(n, seed=10_000 + i, symmetric=(i % 2 == 0))
            expected = solve_serial(matrix)
            for threads in SHARED_TEAMS:
                got = solve_shared_memory(matrix, threads)
                assert (got.optimal_cost, got.optimal_path) == (
                    expected.optimal_cost,
                    expected.optimal_path,
                ), f"shared_memory x{threads} diverged on instance {i} (n={n})"
            for processes in MESSAGE_TEAMS:
                got = solve_message_passing(matrix, processes)
                assert (got.optimal_cost, got.optimal_path) == (
                    expected.optimal_cost,
                    expected.optimal_path,
                ), f"message_passing x{processes} diverged on instance {i} (n={n})"
            for processes, threads in HYBRID_TEAMS:
                got = solve_hybrid(matrix, processes, threads)
                assert (got.optimal_cost, got.optimal_path) == (
                    expected.optimal_cost,
                    expected.optimal_path,
                ), f"hybrid {processes}x{threads} diverged on instance {i} (n={n})"


# --- 2. exhaustive permutation-engine checks --------------------------------


def test_criterion_2_permutation_engine_exhaustive():
    with criterion("2 exhaustive unrank/rank, ordering, successor and partition checks"):
        for k in range(1, 7):
            labels = list(range(1, k + 1))
            expected = sorted(itertools.permutations(labels))
            previous = None
            for index, perm in enumerate(expected):
                assert tuple(unrank(index, labels)) == perm
                assert rank(list(perm)) == index
                if previous is not None:
                    assert previous < perm  # strict lexicographic ordering
                    successor = list(previous)
                    assert next_permutation(successor) is True
                    assert tuple(successor) == perm
                previous = perm

        def check(total, workers):
            ranges = partition(total, workers)
            assert len(ranges) == workers
            assert ranges[0].start == 0 and ranges[-1].end == total
            assert all(a.end == b.start for a, b in zip(ranges, ranges[1:]))
            sizes = [r.count for r in ranges]
            assert max(sizes) - min(sizes) <= 1
            assert sorted(sizes, reverse=True) == sizes
            q, r = divmod(total, workers)
            assert sizes == [q + 1] * r + [q] * (workers - r)

        for total in range(101):
            for workers in range(1, 11):
                check(total, workers)
        rng = random.Random(424242)
        totals = [0, 1, 2, 3, 719, 5040, 40320, 362880, 3628800]
        totals += [rng.randrange(3628801) for _ in range(60)]
        for total in totals:
            for workers in (1, 2, 3, 5, 7, 8, 13, 16, 31, 32, 47, 63, 64):
                check(total, workers)


# --- 3. serial-fraction table reproduction ----------------------------------

TEAM_SIZES = (2, 4, 8, 16, 20)

EFFICIENCY_SHARED = {
    10: (0.907, 0.865, 0.704, 0.610, 0.554),
    11: (0.834, 0.808, 0.734, 0.618, 0.590),
    12: (0.834, 0.810, 0.729, 0.639, 0.601),
    13: (0.834, 0.831, 0.726, 0.640, 0.600),
    14: (0.909, 0.848, 0.750, 0.658, 0.618),
}
EFFICIENCY_MESSAGE = {
    10: (0.975, 0.970, 0.984, 0.976, 0.953),
    11: (0.922, 0.920, 0.898, 0.910, 0.838),
    12: (0.918, 0.922, 0.851, 0.916, 0.886),
    13: (0.927, 0.929, 0.913, 0.921, 0.904),
    14: (0.934, 0.931, 0.931, 0.908, 0.918),
}
SERIAL_FRACTION_SHARED = {
    10: (0.103, 0.052, 0.060, 0.043, 0.042),
    11: (0.199, 0.079, 0.052, 0.041, 0.037),
    12: (0.199, 0.078, 0.053, 0.038, 0.035),
    13: (0.198, 0.068, 0.054, 0.037, 0.035),
    14: (0.100, 0.060, 0.048, 0.035, 0.033),
}
SERIAL_FRACTION_MESSAGE = {
    10: (0.025, 0.010, 0.002, 0.002, 0.003),
    11: (0.085, 0.029, 0.016, 0.007, 0.010),
    12: (0.089, 0.028, 0.025, 0.006, 0.007),
    13: (0.078, 0.026, 0.014, 0.006, 0.006),
    14: (0.070, 0.025, 0.011, 0.007, 0.005),
}


def test_criterion_3_serial_fraction_tables():
    with criterion("3 reference efficiency tables reproduce the serial-fraction tables"):
        checked = 0
        for eta_table, e_table in (
            (EFFICIENCY_SHARED, SERIAL_FRACTION_SHARED),
            (EFFICIENCY_MESSAGE, SERIAL_FRACTION_MESSAGE),
        ):
            for n, etas in eta_table.items():
                for j, p in enumerate(TEAM_SIZES):
                    computed = karp_flatt(etas[j] * p, p)
                    printed = e_table[n][j]
                    assert abs(round(computed, 3) - printed) <= 0.001 + 1e-12, (
                        f"n={n} p={p}: computed {computed:.6f} vs printed {printed}"
                    )
                    checked += 1
        assert checked == 50
        # spot anchors
        assert round(karp_flatt(0.907 * 2, 2), 3) == 0.103
        assert abs(round(karp_flatt(0.975 * 2, 2), 3) - 0.025) <= 0.001
        assert round(karp_flatt(0.834 * 2, 2), 3) == 0.199


# --- 4. speedup trend (hardware-conditional) --------------------------------


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason=f"needs >= 4 CPU cores for a meaningful speedup trend, found {os.cpu_count()}",
)
def test_criterion_4_speedup_trend_at_desk_scale():
    with criterion("4 speedup >= 2.0 at 4 elements and p=4 beats p=2 (n=11, mean of 5)"):
        plan = BenchPlan(
            n_values=(11,),
            backends=(
                BackendSpec("serial"),
                BackendSpec("shared_memory", threads=2),
                BackendSpec("shared_memory", threads=4),
                BackendSpec("message_passing", processes=2),
                BackendSpec("message_passing", processes=4),
            ),
            repetitions=5,
            warmup=1,
            seed=11,
        )
        report = run_bench(plan)
        psi = {(m.backend, m.p): m.speedup for m in report.metrics}
        assert psi[("shared_memory", 4)] >= 2.0
        assert psi[("message_passing", 4)] >= 2.0
        assert psi[("shared_memory", 4)] > psi[("shared_memory", 2)]
        assert psi[("message_passing", 4)] > psi[("message_passing", 2)]


# --- 5. hybrid flat-partition property --------------------------------------


def test_criterion_5_hybrid_flat_partition():
    with criterion("5 hybrid(p,t) assigns and answers exactly like shared_memory(p*t)"):
        for n in range(2, 10):
            total = factorial(n - 1)
            for p in range(1, 5):
                for t in range(1, 5):
                    flat = partition(total, p * t)
                    grouped = [w for g in hybrid_ranges(total, p, t) for w in g]
                    assert grouped == flat, f"n={n} hybrid {p}x{t} range multiset differs"
        matrix = generate_instance(9, seed=505, symmetric=False)
        expected = solve_serial(matrix)
        for p in range(1, 5):
            for t in range(1, 5):
                hybrid = solve_hybrid(matrix, p, t)
                shared = solve_shared_memory(matrix, p * t)
                assert hybrid == shared == expected, f"hybrid {p}x{t} result differs"


# --- 6. fixed-budget hybrid comparison sweep --------------------------------


def test_criterion_6_hybrid_comparison_sweep():
    with criterion("6 n=11 sweep over 2x2 / 4x1 / 1x4 emits a well-formed metrics CSV"):
        plan = BenchPlan(
            n_values=(11,),
            backends=(
                BackendSpec("hybrid", processes=2, threads=2),
                BackendSpec("hybrid", processes=4, threads=1),
                BackendSpec("hybrid", processes=1, threads=4),
            ),
            repetitions=1,
            warmup=0,
            seed=6,
        )
        report = run_bench(plan)
        text = metrics_csv_text(report)
        lines = text.splitlines()
        assert lines[0] == METRICS_CSV_HEADER
        hybrid_rows = [line for line in lines[1:] if line.startswith("hybrid,")]
        assert len(hybrid_rows) == 3
        for line in hybrid_rows:
            backend, n, p, mean_s, psi, eta, kf = line.split(",")
            assert (backend, n, p) == ("hybrid", "11", "4")
            assert float(mean_s) > 0
            assert float(psi) > 0
            assert float(eta) > 0
            float(kf)  # present and parseable; sign is hardware-dependent


# --- 7. wire protocol conformance -------------------------------------------

FAKE_WRONG_VERSION = """#!/usr/bin/env python3
import json, sys
sys.stdin.readline()  # the task
sys.stdout.write(json.dumps({"v": 2, "type": "result", "cost": 1, "path": [0, 1, 0], "evaluated": "1"}) + "\\n")
sys.stdout.flush()
sys.stdin.readline()
"""

FAKE_ERROR_REPLY = """#!/usr/bin/env python3
import json, sys
sys.stdin.readline()
sys.stdout.write(json.dumps({"v": 1, "type": "error", "message": "synthetic worker failure"}) + "\\n")
sys.stdout.flush()
sys.exit(1)
"""

FAKE_HAPPY_PATH = """#!/usr/bin/env python3
import json, sys
task = json.loads(sys.stdin.readline())
assert task["v"] == 1 and task["type"] == "task"
reply = {"v": 1, "type": "result", "cost": 80, "path": [0, 1, 3, 2, 0],
         "evaluated": str(int(task["end"]) - int(task["start"]))}
sys.stdout.write(json.dumps(reply) + "\\n")
sys.stdout.flush()
nxt = json.loads(sys.stdin.readline())
sys.exit(0 if nxt.get("type") == "shutdown" else 3)
"""

FAKE_WRONG_COUNT = """#!/usr/bin/env python3
import json, sys
task = json.loads(sys.stdin.readline())
reply = {"v": 1, "type": "result", "cost": 80, "path": [0, 1, 3, 2, 0],
         "evaluated": str(int(task["end"]) - int(task["start"]) + 1)}
sys.stdout.write(json.dumps(reply) + "\\n")
sys.stdout.flush()
sys.stdin.readline()
"""

FAKE_INSTANT_EXIT = """#!/usr/bin/env python3
import sys
sys.exit(0)
"""


def _install_fake(tmp_path, name, body, monkeypatch):
    script = tmp_path / name
    script.write_text(body)
    script.chmod(0o755)
    monkeypatch.setenv("TSPBENCH_WORKER_BIN", str(script))


def test_criterion_7_wire_protocol_conformance(tmp_path, monkeypatch, four_city_matrix):
    with criterion("7 version rejection, error propagation, >64-bit indices, shutdown"):
        # coordinator rejects replies carrying an unknown protocol version
        _install_fake(tmp_path, "wrong_version.py", FAKE_WRONG_VERSION, monkeypatch)
        with pytest.raises(ProtocolError, match="version"):
            solve_message_passing(four_city_matrix, 1)

        # worker-side error messages surface verbatim, with the worker id
        _install_fake(tmp_path, "error_reply.py", FAKE_ERROR_REPLY, monkeypatch)
        with pytest.raises(ExecutionError, match="worker 0.*synthetic worker failure"):
            solve_message_passing(four_city_matrix, 1)

        # a worker that dies silently is reported, not waited on forever
        _install_fake(tmp_path, "instant_exit.py", FAKE_INSTANT_EXIT, monkeypatch)
        with pytest.raises(ExecutionError, match="without a result"):
            solve_message_passing(four_city_matrix, 1)

        # a worker that scanned more than its range is named, not trusted
        _install_fake(tmp_path, "wrong_count.py", FAKE_WRONG_COUNT, monkeypatch)
        with pytest.raises(ExecutionError, match="worker 0 evaluated 7 permutations, expected 6"):
            solve_message_passing(four_city_matrix, 1)
        instance = tmp_path / "m.txt"
        instance.write_text(format_instance(four_city_matrix))
        assert cli_dispatch(["solve", "--input", str(instance), "--backend", "message_passing"]) == 2

        # happy path: the fake only exits 0 if shutdown arrives after the
        # result, so a clean solve proves shutdown handling end to end
        _install_fake(tmp_path, "happy.py", FAKE_HAPPY_PATH, monkeypatch)
        result = solve_message_passing(four_city_matrix, 1)
        assert result.optimal_cost == 80

        # real worker over a real pipe: decimal-string indices above 2**64
        # must be parsed exactly and answered exactly
        monkeypatch.delenv("TSPBENCH_WORKER_BIN")
        matrix = generate_instance(25, seed=314159)
        start = 2**64 + 5
        work = WorkRange(start, start + 3)
        env = dict(os.environ)
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(sys.modules["tspbench"].__file__)))
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            worker_command(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            bufsize=1,
            env=env,
        )
        try:
            proc.stdin.write(task_message(matrix.costs, work, 1))
            proc.stdin.flush()
            reply = parse_message(proc.stdout.readline())
            assert reply["type"] == "result"
            assert reply["evaluated"] == "3"
            expected = solve_range(matrix, work)
            assert reply["cost"] == expected.optimal_cost
            assert reply["path"] == list(expected.optimal_path)
            proc.stdin.write(shutdown_message())
            proc.stdin.flush()
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdin.close()
            proc.stdout.close()


# --- 8. determinism and report round-trip -----------------------------------


def test_criterion_8_determinism_and_round_trip():
    with criterion("8 identical plans give identical answers; reports round-trip bytewise"):
        plan = BenchPlan(
            n_values=(6, 7),
            backends=(
                BackendSpec("serial"),
                BackendSpec("shared_memory", threads=2),
                BackendSpec("message_passing", processes=2),
            ),
            repetitions=2,
            warmup=0,
            seed=888,
        )
        first = run_bench(plan)
        second = run_bench(plan)
        assert first.solutions == second.solutions
        for n in plan.n_values:
            assert generate_instance(n, plan.seed, plan.symmetric) == generate_instance(
                n, plan.seed, plan.symmetric
            )
        for report in (first, second):
            text = report_to_json(report)
            parsed = report_from_json(text)
            assert report_to_json(parsed) == text
            assert parsed == report
        # cost/path sections are identical even though timings differ
        a = json.loads(report_to_json(first))
        b = json.loads(report_to_json(second))
        assert a["solutions"] == b["solutions"]
