"""Benchmark sweeps: warmed-up, repeated, correctness-guarded timing.

A sweep times every (n, backend) pair of a plan with a monotonic clock,
checks each run's answer against the serial baseline (any disagreement
aborts the sweep; a report with inconsistent results must never exist),
and materializes both raw timings and derived metrics.

Report formats
--------------
JSON: canonical encoding (sorted keys, two-space indent, trailing
newline) holding full-precision numbers.  The reader parses only the
plan, environment, solutions and each timing's runs and re-derives the
rest (means, minima, medians, metrics rows); a file holding anything
else, or a number of another JSON type (4.0 or true for 4), is rejected,
and parse/emit round-trips are byte-identical.
CSV: raw rows as ``backend,n,p,run_index,seconds``
with seconds to 6 decimals; the metrics table as
``backend,n,p,mean_seconds,speedup,efficiency,karp_flatt`` with the
mean to 6 decimals, the three ratios to 3 decimals, and an empty
karp_flatt cell where it is undefined (p = 1).
"""

from __future__ import annotations

import json
import os
import platform
import reprlib
import time
from collections import namedtuple
from collections.abc import Iterable
from statistics import median

from .backends import BackendSpec, solve
from .core import KERNEL, CostMatrix, SolveResult, check_city_count
from .errors import CorrectnessError, ExecutionError, ValidationError
from .instances import generate_instance
from .metrics import MetricsRow, TimingRecord, build_metrics_table

SCHEMA_VERSION = "1"

RAW_CSV_HEADER = "backend,n,p,run_index,seconds"
METRICS_CSV_HEADER = "backend,n,p,mean_seconds,speedup,efficiency,karp_flatt"


class BenchPlan(namedtuple("BenchPlan", "n_values backends repetitions warmup seed symmetric",
                           defaults=(5, 1, 0, True))):
    """What to benchmark, checked like CostMatrix.  The serial backend is
    always run first for every n (prepended when absent) because the
    metrics need its mean as the baseline."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    def __new__(cls, n_values: Iterable[int], backends: Iterable[BackendSpec],
                repetitions: int = 5, warmup: int = 1, seed: int = 0, symmetric: bool = True):
        n_values = tuple(n_values)
        backends = tuple(backends)
        if not n_values:
            raise ValidationError("plan needs at least one problem size")
        for n in n_values:
            check_city_count(n)
        if not backends:
            raise ValidationError("plan needs at least one backend")
        for name, value in (("repetitions", repetitions), ("warmup", warmup), ("seed", seed)):
            if type(value) is not int:  # a bool is no count
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        if type(symmetric) is not bool:  # the report's reader takes only a bool
            raise ValidationError(f"symmetric must be a bool, got {symmetric!r}")
        if repetitions < 1:
            raise ValidationError(f"repetitions must be >= 1, got {repetitions}")
        if warmup < 0:
            raise ValidationError(f"warmup must be >= 0, got {warmup}")
        return super().__new__(cls, n_values, backends, repetitions, warmup, seed, symmetric)


#: The (deterministic) answer for one problem size, kept in the report
#: so consumers can check reproducibility without re-solving.
InstanceSolution = namedtuple("InstanceSolution", "n optimal_cost optimal_path")

Report = namedtuple("Report", "schema_version plan environment solutions timings metrics")


def _normalized_backends(specs: Iterable[BackendSpec]) -> tuple[BackendSpec, ...]:
    specs = list(specs)
    serial = BackendSpec("serial")
    if serial in specs:
        specs.remove(serial)
    return (serial, *specs)


def describe_environment() -> str:
    return (
        f"{platform.platform()} | Python {platform.python_version()} | "
        f"{os.cpu_count()} logical CPUs | kernel {KERNEL}"
    )


def _timed_solve(matrix: CostMatrix, spec: BackendSpec) -> tuple[float, SolveResult]:
    t0 = time.perf_counter()
    result = solve(matrix, spec)
    elapsed = time.perf_counter() - t0
    if elapsed <= 0:
        raise ExecutionError("monotonic clock did not advance across a solve")
    return elapsed, result


def run_bench(plan: BenchPlan) -> Report:
    """Execute a plan: per (n, backend), ``plan.warmup`` untimed runs
    then ``plan.repetitions`` timed ones.

    Timing covers the full user-visible solve, worker spawn and
    partitioning included, and excludes instance generation and report
    I/O.  Every run (warm-up included) must agree with the serial
    baseline; a mismatch raises CorrectnessError and no report is
    produced.
    """
    plan = plan._replace(backends=_normalized_backends(plan.backends))
    records: list[TimingRecord] = []
    solutions: list[InstanceSolution] = []
    for n in plan.n_values:
        matrix = generate_instance(n, plan.seed, plan.symmetric)
        expected: SolveResult | None = None  # serial runs first, so this is its first answer
        for spec in plan.backends:
            runs = []
            for run_index in range(plan.warmup + plan.repetitions):
                elapsed, result = _timed_solve(matrix, spec)
                expected = result if expected is None else expected
                if result != expected:
                    raise CorrectnessError(
                        f"{spec.label()} on n={n} returned cost {result.optimal_cost}, "
                        f"path {list(result.optimal_path)} but the serial baseline is "
                        f"cost {expected.optimal_cost}, path {list(expected.optimal_path)}"
                    )
                if run_index >= plan.warmup:
                    runs.append(elapsed)
            records.append(TimingRecord.from_runs(spec.kind, n, spec.parallel_elements, runs))
        solutions.append(InstanceSolution(n, expected.optimal_cost, expected.optimal_path))
    return _report(plan, describe_environment(), solutions, records)


def _report(plan: BenchPlan, environment: str, solutions: Iterable[InstanceSolution],
            timings: Iterable[TimingRecord]) -> Report:
    """Build a report, deriving the metrics rows from the timings against
    the first serial record of each size (run_bench and the reader both do)."""
    timings = tuple(timings)
    baseline: dict[int, float] = {}
    for record in timings:
        if record.backend == "serial":
            baseline.setdefault(record.n, record.mean_time)
    metrics = build_metrics_table(timings, baseline)
    return Report(SCHEMA_VERSION, plan, environment, tuple(solutions), timings, tuple(metrics))


# --- serialization ---------------------------------------------------------


def _payload(report: Report) -> dict:
    """The JSON object of a report, as report_to_json writes it."""
    return {
        "schema_version": report.schema_version,
        "plan": {
            "n_values": list(report.plan.n_values),
            "backends": [
                {"kind": s.kind, "threads": s.threads, "processes": s.processes}
                for s in report.plan.backends
            ],
            "repetitions": report.plan.repetitions,
            "warmup": report.plan.warmup,
            "seed": report.plan.seed,
            "symmetric": report.plan.symmetric,
        },
        "environment": report.environment,
        "solutions": [
            {"n": s.n, "optimal_cost": s.optimal_cost, "optimal_path": list(s.optimal_path)}
            for s in report.solutions
        ],
        "timings": [
            {
                "backend": r.backend,
                "n": r.n,
                "p": r.p,
                "runs": list(r.runs),
                "mean_seconds": r.mean_time,
                "min_seconds": min(r.runs),
                "median_seconds": median(r.runs),
            }
            for r in report.timings
        ],
        "metrics": [
            {
                "backend": m.backend,
                "n": m.n,
                "p": m.p,
                "mean_seconds": m.mean_seconds,
                "speedup": m.speedup,
                "efficiency": m.efficiency,
                "karp_flatt": m.karp_flatt,
            }
            for m in report.metrics
        ],
    }


def report_to_json(report: Report) -> str:
    """Canonical JSON text for a report (byte-stable across round-trips)."""
    return json.dumps(_payload(report), indent=2, sort_keys=True) + "\n"


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name}")


def _typed(value, kind: type, key: str):
    """``value`` if its JSON type is exactly ``kind``: true is no int, 4.0 no int, 1 no float."""
    if type(value) is not kind:
        raise ValidationError(
            f"report JSON {key!r} must be {kind.__name__}, got {reprlib.repr(value)}"
        )
    return value


def report_from_json(text: str) -> Report:
    try:
        data = json.loads(text, parse_constant=_reject_constant)
    except (ValueError, RecursionError) as exc:  # also NaN, too many digits, too deep
        raise ValidationError(f"malformed report JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValidationError(f"report JSON must be an object, got {type(data).__name__}")
    if data.get("schema_version") != SCHEMA_VERSION:
        raise ValidationError(
            f"unsupported report schema {reprlib.repr(data.get('schema_version'))}, "
            f"expected {SCHEMA_VERSION!r}"
        )
    try:
        plan_data = data["plan"]
        plan = BenchPlan(
            n_values=tuple(_typed(n, int, "n_values") for n in plan_data["n_values"]),
            backends=tuple(
                BackendSpec(s["kind"], s["threads"], s["processes"]) for s in plan_data["backends"]
            ),
            repetitions=_typed(plan_data["repetitions"], int, "repetitions"),
            warmup=_typed(plan_data["warmup"], int, "warmup"),
            seed=_typed(plan_data["seed"], int, "seed"),
            symmetric=_typed(plan_data["symmetric"], bool, "symmetric"),
        )
        report = _report(
            plan,
            data["environment"],
            (
                InstanceSolution(
                    _typed(s["n"], int, "n"), _typed(s["optimal_cost"], int, "optimal_cost"),
                    tuple(_typed(city, int, "optimal_path") for city in s["optimal_path"]),
                )
                for s in data["solutions"]
            ),
            (
                TimingRecord.from_runs(
                    r["backend"], _typed(r["n"], int, "n"), _typed(r["p"], int, "p"),
                    [_typed(t, float, "runs") for t in r["runs"]],
                )
                for r in data["timings"]
            ),
        )
        derived = _payload(report)
        for key in sorted(data.keys() | derived.keys()):
            # compared as text, because 1 == 1.0 == True in Python but not in JSON
            if key not in derived or (
                json.dumps(data[key], sort_keys=True) != json.dumps(derived[key], sort_keys=True)
            ):
                raise ValidationError(f"report JSON {key!r} is not what its runs give")
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"report JSON is missing fields: {exc}") from None
    except OverflowError as exc:  # an int too large for a float
        raise ValidationError(f"report JSON holds an unusable number: {exc}") from None
    return report


def raw_csv_text(report: Report) -> str:
    lines = [RAW_CSV_HEADER]
    for record in report.timings:
        for run_index, seconds in enumerate(record.runs):
            lines.append(f"{record.backend},{record.n},{record.p},{run_index},{seconds:.6f}")
    return "\n".join(lines) + "\n"


def metrics_csv_text(report: Report) -> str:
    lines = [METRICS_CSV_HEADER]
    for row in report.metrics:
        kf = "" if row.karp_flatt is None else f"{row.karp_flatt:.3f}"
        lines.append(
            f"{row.backend},{row.n},{row.p},{row.mean_seconds:.6f},"
            f"{row.speedup:.3f},{row.efficiency:.3f},{kf}"
        )
    return "\n".join(lines) + "\n"
