"""The three workloads as closed loops, and the accounting of their solves.

One client in one process sends the next solve only after the previous
one returned.  A round solves one instance with each backend in turn
(``scan``, ``spawn``) or makes one ``run_bench`` call plus its report
round trip (``sweep``).  Every solve is one operation and is checked
against the Held-Karp oracle, which shares no code with tspbench.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import sys
import time
from collections import Counter

from tspbench.backends import parse_backend_spec, solve
from tspbench.bench import (
    SCHEMA_VERSION,
    BenchPlan,
    InstanceSolution,
    Report,
    describe_environment,
    metrics_csv_text,
    raw_csv_text,
    report_from_json,
    report_to_json,
    run_bench,
)
from tspbench.core import CostMatrix
from tspbench.instances import generate_instance
from tspbench.metrics import TimingRecord, build_metrics_table

import plan
from oracle import held_karp
from tracing import NULL_TRACER

#: Report rows name backends by kind; the benchmark names them by key.
KEY_OF_KIND = {
    "serial": "serial",
    "shared_memory": "threads2",
    "message_passing": "procs2",
    "hybrid": "hybrid1x2",
}


def cpu_now() -> float:
    """CPU seconds of this process plus all of its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """The larger of this process's and its largest reaped child's peak RSS."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024


def stray_child() -> bool:
    """True if a child process is still alive, or was left unreaped (it is
    reaped now, so the next check starts clean)."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return False
    return True


class Ledger:
    """Operations attempted and failed, with a count per failure reason."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter[str] = Counter()

    def record(self, label: str, reason: str | None, count: int = 1, detail: str = "") -> None:
        """Count ``count`` operations; if ``reason`` is set they failed, and
        the first failure for each reason is printed with its ``detail``."""
        self.attempted += count
        if reason is not None:
            self.failed += count
            key = f"{label}: {reason}"
            if not self.reasons[key]:
                print(f"FAILED {key} {detail}".rstrip(), file=sys.stderr)
            self.reasons[key] += count

    def judge_solve(self, label, result, error, expected, n) -> None:
        stray = stray_child()
        detail = ""
        if error is not None:
            reason, detail = "raised", f"{type(error).__name__}: {error}"
        elif (result.optimal_cost, result.optimal_path) != expected:
            reason = "(cost, path) differs from the oracle"
            detail = f"got {result.optimal_cost} {list(result.optimal_path)}, want {expected[0]} {list(expected[1])}"
        elif result.evaluated != math.factorial(n - 1):
            reason = "evaluated != (n-1)!"
            detail = f"{result.evaluated} != {math.factorial(n - 1)}"
        elif stray:
            reason = "a child process was alive or unreaped after the solve"
        else:
            reason = None
        self.record(label, reason, detail=detail)


def report_round_trip(report: Report) -> str | None:
    """Encode the report as JSON and both CSV tables, decode the JSON, and
    return why the round trip failed, or None."""
    text = report_to_json(report)
    back = report_from_json(text)
    metrics_csv_text(back)
    raw_csv_text(back)
    if back != report or report_to_json(back) != text:
        return "report JSON round trip changed the report"
    return None


def closed_loop(seconds: float, step, min_calls: int = 1) -> None:
    """Call ``step(i)`` for i = 0, 1, ... until ``seconds`` have passed and
    at least ``min_calls`` calls are done; the call in flight completes."""
    start = time.perf_counter()
    count = 0
    while count < min_calls or time.perf_counter() - start < seconds:
        step(count)
        count += 1


class Samples:
    """Per-round wall and CPU seconds and per-backend solve wall seconds."""

    def __init__(self):
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.by_backend: dict[str, list[float]] = {key: [] for key, _ in plan.BACKENDS}

    def medians(self) -> dict[str, float]:
        return {key: median(v) for key, v in self.by_backend.items()}


def median(values) -> float:
    """The median, or NaN when every solve of a kind failed."""
    return statistics.median(values) if values else math.nan


class Workload:
    """One workload's instances, their oracle answers and its round."""

    def __init__(self, name: str, seed: int, ledger: Ledger):
        self.name = name
        self.seed = seed
        self.ledger = ledger
        self.specs = [(key, parse_backend_spec(token)) for key, token in plan.BACKENDS]
        self.instance_specs = plan.instance_specs(name, seed)
        self.instances = []
        self.expected = []
        self.reports: list[Report] = []

    def set_up(self, tracer=NULL_TRACER) -> None:
        """Generate and validate the instances, and ask the oracle for each
        answer (never traced)."""
        for spec in self.instance_specs:
            with tracer.span("instances.generate"):
                matrix = generate_instance(*spec)
            with tracer.span("core.validate"):
                CostMatrix(matrix.costs)
            self.instances.append(matrix)
        self.expected = [held_karp(m.costs) for m in self.instances]

    def instance(self, round_index: int) -> int:
        """Index of the instance round ``round_index`` solves; on sweep, where
        run_bench solves every size, the largest, which the probes replay."""
        if self.name == "sweep":
            return len(self.instances) - 1
        return round_index % len(self.instances)

    def run_round(self, round_index: int, samples: Samples, tracer=NULL_TRACER, after_solve=None) -> dict[str, float]:
        """One round; appends to ``samples`` and returns this round's solve
        wall seconds per backend.  ``after_solve(key)``, if given, runs
        after each backend's solves, outside their timing."""
        if self.name == "sweep":
            return self._sweep_round(samples, tracer, after_solve)
        index = self.instance(round_index)
        matrix, expected = self.instances[index], self.expected[index]
        walls = {}
        cpu = 0.0
        for key, spec in self.specs:
            with tracer.span("solve", backend=key):
                cpu0 = cpu_now()
                t0 = time.perf_counter()
                try:
                    result, error = solve(matrix, spec), None
                except Exception as exc:  # counted as a failed operation
                    result, error = None, exc
                walls[key] = time.perf_counter() - t0
                cpu += cpu_now() - cpu0
            self.ledger.judge_solve(key, result, error, expected, matrix.n)
            samples.by_backend[key].append(walls[key])
            if after_solve:
                after_solve(key)
        samples.wall.append(sum(walls.values()))
        samples.cpu.append(cpu)
        return walls

    def _sweep_round(self, samples: Samples, tracer, after_solve) -> dict[str, float]:
        _, plan_seed, symmetric = self.instance_specs[0]
        bench_plan = BenchPlan(
            n_values=plan.SWEEP_N,
            backends=tuple(spec for _, spec in self.specs),
            repetitions=plan.SWEEP_REPETITIONS,
            warmup=0,
            seed=plan_seed,
            symmetric=symmetric,
        )
        solves = len(bench_plan.n_values) * len(bench_plan.backends) * bench_plan.repetitions
        detail = ""
        cpu0 = cpu_now()
        t0 = time.perf_counter()
        try:
            with tracer.span("bench.run_bench"):
                report = run_bench(bench_plan)
            with tracer.span("bench.report"):
                reason = report_round_trip(report)
        except Exception as exc:  # every solve of the call counts as failed
            report, reason, detail = None, "raised", f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        cpu = cpu_now() - cpu0
        if stray_child():
            reason = reason or "a child process was alive or unreaped after run_bench"
        if report is not None and reason is None:
            answers = {s.n: (s.optimal_cost, s.optimal_path) for s in report.solutions}
            for matrix, expected in zip(self.instances, self.expected):
                if answers.get(matrix.n) != expected:
                    reason = "a solution differs from the oracle"
                    detail = f"n={matrix.n}: got {answers.get(matrix.n)}, want {expected}"
        self.ledger.record("run_bench", reason, solves, detail)
        samples.wall.append(wall)
        samples.cpu.append(cpu)
        if after_solve:
            for key, _ in self.specs:
                after_solve(key)
        if report is None:
            return {}
        self.reports.append(report)
        largest = max(bench_plan.n_values)
        walls = {}
        for record in report.timings:
            if record.n == largest:
                key = KEY_OF_KIND[record.backend]
                samples.by_backend[key].extend(record.runs)
                walls[key] = statistics.median(record.runs)
        return walls

    def samples_report(self, samples: Samples) -> Report:
        """The run's own per-backend samples as a bench report, so that
        ``bench.report_s`` is measured on every workload."""
        n, seed, symmetric = self.instance_specs[0]
        records = [
            TimingRecord.from_runs(spec.kind, n, spec.parallel_elements, samples.by_backend[key])
            for key, spec in self.specs
        ]
        cost, path = self.expected[0]
        return Report(
            schema_version=SCHEMA_VERSION,
            plan=BenchPlan(
                n_values=(n,),
                backends=tuple(spec for _, spec in self.specs),
                repetitions=len(samples.by_backend["serial"]),
                warmup=0,
                seed=seed,
                symmetric=symmetric,
            ),
            environment=describe_environment(),
            solutions=(InstanceSolution(n, cost, path),),
            timings=tuple(records),
            metrics=tuple(build_metrics_table(records, {n: records[0].mean_time})),
        )


def end_to_end(workload: Workload, seconds: float, setup_s: float) -> tuple[dict, Samples]:
    """The untraced run: every end-to-end metric as ``name -> (value, unit)``."""
    samples = Samples()
    closed_loop(seconds, lambda i: workload.run_round(i, samples))
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (median(samples.wall), "s"),
        "cpu_s": (median(samples.cpu), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    for key, value in samples.medians().items():
        metrics[f"{key}_s"] = (value, "s")
    return metrics, samples
