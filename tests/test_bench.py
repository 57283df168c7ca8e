import json
from pathlib import Path

import pytest

from tspbench.backends import BackendSpec
from tspbench.bench import (
    METRICS_CSV_HEADER,
    RAW_CSV_HEADER,
    BenchPlan,
    InstanceSolution,
    Report,
    metrics_csv_text,
    raw_csv_text,
    report_from_json,
    report_to_json,
    run_bench,
)
from tspbench.cli import cli_dispatch
from tspbench.core import FAULT_ENV_VAR
from tspbench.errors import CorrectnessError, ValidationError
from tspbench.metrics import MetricsRow, TimingRecord


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
        for name, value in (("repetitions", 2.0), ("repetitions", True), ("warmup", 0.0),
                            ("seed", 1.5)):
            with pytest.raises(ValidationError, match=f"^{name} must be an integer, got {value}$"):
                small_plan(**{name: value})
        for value in (0, 1, None, "yes"):  # the report's reader takes only a bool
            with pytest.raises(ValidationError, match=f"^symmetric must be a bool, got {value!r}$"):
                small_plan(symmetric=value)


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

    @pytest.mark.parametrize(
        "section, key, change",
        [
            ("metrics", "speedup", lambda old: 2 * old),
            ("metrics", "speedup", lambda old: None),
            ("metrics", "mean_seconds", lambda old: "x"),
            ("timings", "median_seconds", lambda old: 2 * old),
            ("timings", "note", lambda old: "extra"),
            (None, "note", lambda old: "extra"),
        ],
        ids=["changed-speedup", "null-speedup", "string-mean", "changed-median", "extra-key",
             "extra-top-level-key"],
    )
    def test_derived_numbers_must_be_what_the_runs_give(
        self, report, tmp_path, capsys, section, key, change
    ):
        data = json.loads(report_to_json(report))
        row = data if section is None else data[section][0]
        row[key] = change(row.get(key))
        text = json.dumps(data)
        with pytest.raises(ValidationError, match=section or key):
            report_from_json(text)
        path = tmp_path / "report.json"
        path.write_text(text)
        capsys.readouterr()
        assert cli_dispatch(["metrics", "--input", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda data: data["timings"][2].update(p=4.0), "'p' must be int"),
            (lambda data: data["timings"][0].update(runs=[True, True]), "'runs' must be float"),
            (lambda data: data["plan"].update(seed=True), "'seed' must be int"),
            (lambda data: data["plan"].update(n_values=[4.0]), "'n_values' must be int"),
            (lambda data: data["plan"].update(symmetric=1), "'symmetric' must be bool"),
            (lambda data: data["solutions"][0].update(optimal_cost=80.0), "'optimal_cost' must"),
            (lambda data: data["plan"]["backends"][1].update(threads=True), "needs threads >= 1"),
            (lambda data: data["metrics"][1].update(speedup=True), "'metrics' is not what"),
            (lambda data: data["metrics"][0].update(p=4.0, karp_flatt=0), "'metrics' is not what"),
            (lambda data: data["timings"][1].update(mean_seconds=True), "'timings' is not what"),
        ],
        ids=["float-p", "boolean-runs", "boolean-seed", "float-n", "integer-symmetric",
             "float-cost", "boolean-threads", "boolean-speedup", "float-metrics-p", "boolean-mean"],
    )
    def test_number_of_the_wrong_json_type_rejected(self, tmp_path, capsys, change, message):
        # 4 == 4.0 == True in Python, so none of these fails an == check
        # against the rebuilt report
        data = json.loads(GOLDEN_JSON)
        change(data)
        text = json.dumps(data, indent=2, sort_keys=True) + "\n"
        with pytest.raises(ValidationError, match=message):
            report_from_json(text)
        path = tmp_path / "report.json"
        path.write_text(text)
        capsys.readouterr()
        assert cli_dispatch(["metrics", "--input", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_repeated_size_round_trips(self):
        report = run_bench(small_plan(n_values=(5, 5), repetitions=1))
        assert [s.n for s in report.solutions] == [5, 5]
        # both n=5 rows are measured against the first serial record
        assert [m.speedup for m in report.metrics if m.backend == "serial"][0] == 1.0
        text = report_to_json(report)
        assert report_from_json(text) == report
        assert report_to_json(report_from_json(text)) == text

    def test_golden_schema_1_text(self):
        # the reader accepts only what the writer emits, so pinning the
        # writer's text pins the schema "1" key names for both
        assert report_to_json(GOLDEN_REPORT) == GOLDEN_JSON
        assert report_from_json(GOLDEN_JSON) == GOLDEN_REPORT

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


# Every number below is an exact binary fraction, so the text is the
# same on every platform.
GOLDEN_REPORT = Report(
    schema_version="1",
    plan=BenchPlan(
        n_values=(4,),
        backends=(
            BackendSpec("serial"),
            BackendSpec("shared_memory", threads=2),
            BackendSpec("hybrid", processes=2, threads=2),
        ),
        repetitions=2,
        warmup=0,
        seed=3,
    ),
    environment="golden host",
    solutions=(InstanceSolution(4, 80, (0, 1, 3, 2, 0)),),
    timings=(
        TimingRecord("serial", 4, 1, (0.75, 1.25), 1.0),
        TimingRecord("shared_memory", 4, 2, (0.5, 1.5), 1.0),
        TimingRecord("hybrid", 4, 4, (0.125, 0.25, 0.375), 0.25),
    ),
    metrics=(
        MetricsRow("hybrid", 4, 4, 0.25, 4.0, 1.0, 0.0),
        MetricsRow("serial", 4, 1, 1.0, 1.0, 1.0, None),
        MetricsRow("shared_memory", 4, 2, 1.0, 1.0, 0.5, 1.0),
    ),
)

GOLDEN_JSON = """\
{
  "environment": "golden host",
  "metrics": [
    {
      "backend": "hybrid",
      "efficiency": 1.0,
      "karp_flatt": 0.0,
      "mean_seconds": 0.25,
      "n": 4,
      "p": 4,
      "speedup": 4.0
    },
    {
      "backend": "serial",
      "efficiency": 1.0,
      "karp_flatt": null,
      "mean_seconds": 1.0,
      "n": 4,
      "p": 1,
      "speedup": 1.0
    },
    {
      "backend": "shared_memory",
      "efficiency": 0.5,
      "karp_flatt": 1.0,
      "mean_seconds": 1.0,
      "n": 4,
      "p": 2,
      "speedup": 1.0
    }
  ],
  "plan": {
    "backends": [
      {
        "kind": "serial",
        "processes": null,
        "threads": null
      },
      {
        "kind": "shared_memory",
        "processes": null,
        "threads": 2
      },
      {
        "kind": "hybrid",
        "processes": 2,
        "threads": 2
      }
    ],
    "n_values": [
      4
    ],
    "repetitions": 2,
    "seed": 3,
    "symmetric": true,
    "warmup": 0
  },
  "schema_version": "1",
  "solutions": [
    {
      "n": 4,
      "optimal_cost": 80,
      "optimal_path": [
        0,
        1,
        3,
        2,
        0
      ]
    }
  ],
  "timings": [
    {
      "backend": "serial",
      "mean_seconds": 1.0,
      "median_seconds": 1.0,
      "min_seconds": 0.75,
      "n": 4,
      "p": 1,
      "runs": [
        0.75,
        1.25
      ]
    },
    {
      "backend": "shared_memory",
      "mean_seconds": 1.0,
      "median_seconds": 1.0,
      "min_seconds": 0.5,
      "n": 4,
      "p": 2,
      "runs": [
        0.5,
        1.5
      ]
    },
    {
      "backend": "hybrid",
      "mean_seconds": 0.25,
      "median_seconds": 0.25,
      "min_seconds": 0.125,
      "n": 4,
      "p": 4,
      "runs": [
        0.125,
        0.25,
        0.375
      ]
    }
  ]
}
"""


@pytest.mark.parametrize(
    "path", sorted(Path(__file__).resolve().parent.parent.glob("BENCH_*.json")),
    ids=lambda path: path.name,
)
def test_checked_in_bench_report_reads(path, capsys):
    assert cli_dispatch(["metrics", "--input", str(path)]) == 0
    assert capsys.readouterr().out.startswith(METRICS_CSV_HEADER + "\n")
    assert " | kernel " in report_from_json(path.read_text()).environment


def _with_placeholder(change, value):
    """GOLDEN_JSON after ``change(data)``, with the string PLACEHOLDER it
    puts somewhere replaced by the raw JSON text ``value``."""
    data = json.loads(GOLDEN_JSON)
    change(data)
    return json.dumps(data).replace('"PLACEHOLDER"', value)


@pytest.mark.parametrize(
    "text",
    [
        _with_placeholder(lambda data: data["plan"].update(seed="PLACEHOLDER"), "9" * 5000),
        _with_placeholder(lambda data: data.update(plan="PLACEHOLDER"), "[" * 100_000),
        _with_placeholder(lambda data: data["timings"][0].update(runs=[]), ""),
        _with_placeholder(lambda data: data["timings"][1].update(p=10**400), ""),
    ],
    ids=["oversized-integer", "deep-nesting", "no-runs", "p-beyond-float"],
)
def test_unusual_json_report_is_validation_error(tmp_path, capsys, text):
    with pytest.raises(ValidationError):
        report_from_json(text)
    path = tmp_path / "report.json"
    path.write_text(text)
    assert cli_dispatch(["metrics", "--input", str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize(
    "change, names",
    [
        (lambda data: data["plan"].update(seed="9" * 5000), "'seed'"),
        (lambda data: data.update(schema_version="9" * 5000), "schema"),
    ],
    ids=["seed", "schema-version"],
)
def test_error_line_shortens_an_oversized_value(tmp_path, capsys, change, names):
    data = json.loads(GOLDEN_JSON)
    change(data)
    path = tmp_path / "report.json"
    path.write_text(json.dumps(data))
    assert cli_dispatch(["metrics", "--input", str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and len(err[0]) < 200 and names in err[0]


def test_report_that_is_not_utf8_exits_1(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_bytes(b"\xff" + GOLDEN_JSON.encode())
    assert cli_dispatch(["metrics", "--input", str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot read report")
