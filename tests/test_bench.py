import json

import pytest

from tspbench.backends import BackendSpec
from tspbench.bench import (
    METRICS_CSV_HEADER,
    RAW_CSV_HEADER,
    BenchPlan,
    metrics_csv_text,
    raw_csv_text,
    report_from_json,
    report_to_json,
    run_bench,
)
from tspbench.cli import cli_dispatch
from tspbench.core import FAULT_ENV_VAR
from tspbench.errors import CorrectnessError, ValidationError


def small_plan(**overrides):
    kwargs = dict(
        n_values=(6,),
        backends=(BackendSpec("serial"), BackendSpec("shared_memory", threads=2)),
        repetitions=2,
        warmup=0,
        seed=7,
    )
    kwargs.update(overrides)
    return BenchPlan(**kwargs)


class TestBenchPlan:
    def test_validation(self):
        with pytest.raises(ValidationError):
            small_plan(n_values=())
        with pytest.raises(ValidationError):
            small_plan(n_values=(1,))
        with pytest.raises(ValidationError):
            small_plan(repetitions=0)
        with pytest.raises(ValidationError):
            small_plan(warmup=-1)
        with pytest.raises(ValidationError):
            small_plan(backends=())


class TestRunBench:
    def test_structure(self):
        report = run_bench(small_plan(repetitions=3, warmup=1))
        assert report.schema_version == "1"
        assert [r.backend for r in report.timings] == ["serial", "shared_memory"]
        assert all(len(r.runs) == 3 for r in report.timings)
        assert len(report.metrics) == 2
        assert len(report.solutions) == 1
        serial_row = next(m for m in report.metrics if m.backend == "serial")
        assert serial_row.speedup == 1.0
        assert serial_row.karp_flatt is None
        parallel_row = next(m for m in report.metrics if m.backend == "shared_memory")
        assert parallel_row.p == 2
        assert parallel_row.karp_flatt is not None

    def test_serial_prepended_when_missing(self):
        report = run_bench(small_plan(backends=(BackendSpec("shared_memory", threads=2),)))
        assert report.plan.backends[0] == BackendSpec("serial")
        assert [r.backend for r in report.timings] == ["serial", "shared_memory"]

    def test_single_run_mean(self):
        report = run_bench(small_plan(repetitions=1, warmup=0))
        for record in report.timings:
            assert len(record.runs) == 1
            assert record.mean_time == record.runs[0]

    def test_timing_sanity(self):
        report = run_bench(small_plan(repetitions=3))
        for record in report.timings:
            assert min(record.runs) <= record.mean_time <= max(record.runs)
            assert all(t > 0 for t in record.runs)

    def test_solutions_match_known_optimum(self):
        report = run_bench(small_plan())
        from tspbench.core import solve_serial
        from tspbench.instances import generate_instance

        expected = solve_serial(generate_instance(6, 7, True))
        (solution,) = report.solutions
        assert solution.optimal_cost == expected.optimal_cost
        assert solution.optimal_path == expected.optimal_path

    def test_baseline_guard_catches_injected_fault(self, monkeypatch):
        # the fault hook flips the scan comparison inside ranged solves;
        # the very first shared-memory run must now disagree with the
        # serial baseline and abort the sweep
        monkeypatch.setenv(FAULT_ENV_VAR, "1")
        with pytest.raises(CorrectnessError, match="threads:2"):
            run_bench(small_plan())

    def test_guard_catches_faulty_message_passing(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV_VAR, "1")
        with pytest.raises(CorrectnessError, match="procs:2"):
            run_bench(small_plan(backends=(BackendSpec("message_passing", processes=2),)))


@pytest.fixture(scope="module")
def report():
    return run_bench(
        small_plan(
            backends=(
                BackendSpec("serial"),
                BackendSpec("shared_memory", threads=2),
                BackendSpec("message_passing", processes=2),
                BackendSpec("hybrid", processes=2, threads=2),
            )
        )
    )


class TestReportSerialization:
    def test_json_round_trip_is_byte_identical(self, report):
        text = report_to_json(report)
        parsed = report_from_json(text)
        assert report_to_json(parsed) == text
        assert parsed == report

    def test_schema_version_enforced(self, report):
        text = report_to_json(report).replace('"schema_version": "1"', '"schema_version": "9"')
        with pytest.raises(ValidationError):
            report_from_json(text)

    @pytest.mark.parametrize("text", ["[]", '"x"', "3"])
    def test_non_object_json_rejected(self, text):
        with pytest.raises(ValidationError, match="must be an object"):
            report_from_json(text)

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_number_rejected(self, report, tmp_path, constant):
        # json.loads accepts these by default, and a NaN run passes every
        # "<= 0" check that TimingRecord makes
        data = json.loads(report_to_json(report))
        data["timings"][0]["runs"][0] = "PLACEHOLDER"
        text = json.dumps(data).replace('"PLACEHOLDER"', constant)
        with pytest.raises(ValidationError, match=constant):
            report_from_json(text)
        path = tmp_path / "report.json"
        path.write_text(text)
        assert cli_dispatch(["metrics", "--input", str(path)]) == 1

    @pytest.mark.parametrize("key", ["plan", "environment", "solutions", "timings", "metrics"])
    def test_missing_top_level_field_rejected(self, report, key):
        data = json.loads(report_to_json(report))
        del data[key]
        with pytest.raises(ValidationError, match="missing fields"):
            report_from_json(json.dumps(data))

    def test_raw_csv_shape(self, report):
        lines = raw_csv_text(report).splitlines()
        assert lines[0] == RAW_CSV_HEADER
        run_count = sum(len(r.runs) for r in report.timings)
        assert len(lines) == 1 + run_count
        first = lines[1].split(",")
        assert first[0] == "serial"
        assert first[1] == "6"
        assert first[3] == "0"
        float(first[4])

    def test_metrics_csv_shape(self, report):
        lines = metrics_csv_text(report).splitlines()
        assert lines[0] == METRICS_CSV_HEADER
        assert len(lines) == 1 + len(report.metrics)
        serial_line = next(l for l in lines[1:] if l.startswith("serial,"))
        assert serial_line.endswith(",")  # empty karp_flatt cell at p=1

    def test_csv_and_json_agree_numerically(self, report):
        # CSV values are the JSON (full-precision) ones after documented
        # rounding: 6 decimals for seconds, 3 for the ratios
        metric_by_key = {}
        for row in report.metrics:
            metric_by_key.setdefault((row.backend, row.n, row.p), []).append(row)
        for line in metrics_csv_text(report).splitlines()[1:]:
            backend, n, p, mean_s, psi, eta, kf = line.split(",")
            row = metric_by_key[(backend, int(n), int(p))].pop(0)
            assert mean_s == f"{row.mean_seconds:.6f}"
            assert psi == f"{row.speedup:.3f}"
            assert eta == f"{row.efficiency:.3f}"
            assert kf == ("" if row.karp_flatt is None else f"{row.karp_flatt:.3f}")
        raw_by_key = {}
        for record in report.timings:
            raw_by_key[(record.backend, record.n, record.p)] = list(record.runs)
        for line in raw_csv_text(report).splitlines()[1:]:
            backend, n, p, run_index, seconds = line.split(",")
            runs = raw_by_key[(backend, int(n), int(p))]
            assert seconds == f"{runs[int(run_index)]:.6f}"
