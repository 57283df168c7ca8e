"""The traced run: per-layer metrics, each timed from outside, around a
public call into one tspbench module.  Nothing in tspbench is
instrumented.

A traced run first repeats the untraced loop for half its time (at
least 2 rounds), then runs traced rounds for the other half (also at
least 2).  Right after each backend's solve in a traced round, the
layer probes replay its work on the same instance in this process, one
call after another, so that a solve and its replay see the same machine
speed.  Instance-independent
probes (interpreter and worker start, the fixed cost of each parallel
backend) follow, repeated ``FIXED_PROBE_REPEATS`` times.
"""

from __future__ import annotations

import io
import math
import os
import statistics
import subprocess
import sys
import time

import tspbench
from tspbench.backends import (
    hybrid_ranges,
    solve_hybrid,
    solve_message_passing,
    solve_shared_memory,
    worker_command,
)
from tspbench.core import reduce_results, solve_range, solve_serial
from tspbench.instances import generate_instance
from tspbench.metrics import efficiency, karp_flatt, speedup
from tspbench.permutation import WorkRange, partition, unrank
from tspbench.protocol import (
    decode_result,
    decode_task,
    parse_message,
    result_message,
    shutdown_message,
    task_message,
)
from tspbench.worker import run_worker

import plan
from oracle import held_karp
from tracing import Tracer, duration
from workloads import KEY_OF_KIND, Samples, Workload, closed_loop, median, report_round_trip

#: Per-layer metric units; the traced run reports exactly these.
UNITS = {
    "instances.generate_s": "s",
    "core.validate_s": "s",
    "core.scan_s": "s",
    "core.scan_perms_per_s": "1/s",
    "core.scan_evaluated": "count",
    "core.reduce_s": "s",
    "permutation.partition_s": "s",
    "permutation.unrank_s": "s",
    "protocol.task_bytes": "bytes",
    "protocol.encode_s": "s",
    "protocol.decode_s": "s",
    "worker.task_s": "s",
    "backends.interp_start_s": "s",
    "backends.worker_start_s": "s",
    "backends.fork_fixed_s": "s",
    "backends.mp_fixed_s": "s",
    "backends.hybrid_fixed_s": "s",
    **{f"backends.overhead_frac.{k}": "ratio" for k in plan.PARALLEL},
    **{f"backends.imbalance.{k}": "ratio" for k in plan.PARALLEL},
    **{f"metrics.speedup.{k}": "ratio" for k in plan.PARALLEL},
    **{f"metrics.efficiency.{k}": "ratio" for k in plan.PARALLEL},
    **{f"metrics.karp_flatt.{k}": "ratio" for k in plan.PARALLEL},
    "bench.report_s": "s",
    **{f"trace.overhead_s.{k}": "s" for k, _ in plan.BACKENDS},
}


def probe_backend(tracer: Tracer, workload: Workload, index: int, key: str) -> list:
    """Replay, in this process and one call after another, the layer work
    backend ``key`` did on instance ``index``: the serial scan, or the
    partition, unranking, scan of every assigned range and reduction.
    Returns the per-range results."""
    matrix, expected = workload.instances[index], workload.expected[index]
    n = matrix.n
    total = math.factorial(n - 1)
    if key == "serial":
        with tracer.span("core.scan", backend=key) as span:
            result = solve_serial(matrix)
            span["attrs"]["evaluated"] = result.evaluated
        workload.ledger.judge_solve("probe serial", result, None, expected, n)
        return [result]
    with tracer.span("permutation.partition", backend=key):
        if key == "hybrid1x2":
            ranges = [work for group in hybrid_ranges(total, 1, 2) for work in group]
        else:
            ranges = partition(total, 2)
    results = []
    for work in ranges:
        if work.count:
            with tracer.span("permutation.unrank", backend=key):
                unrank(work.start, range(1, n))
        with tracer.span("core.scan", backend=key) as span:
            results.append(solve_range(matrix, work))
            span["attrs"]["evaluated"] = results[-1].evaluated
    with tracer.span("core.reduce", backend=key):
        reduced = reduce_results(results)
    workload.ledger.judge_solve(f"probe {key}", reduced, None, expected, n)
    return results


def probe_transport(tracer: Tracer, workload: Workload, index: int, results: dict) -> None:
    """Encode and decode the wire messages procs:2 and hybrid:1x2 exchange
    on instance ``index``, and run one worker over in-memory streams.
    ``results`` maps each backend to its per-range results."""
    matrix = workload.instances[index]
    total = math.factorial(matrix.n - 1)
    proc_ranges = partition(total, 2)
    spans = [WorkRange(g[0].start, g[-1].end) for g in hybrid_ranges(total, 1, 2)]
    replies_sent = results["procs2"] + [reduce_results(results["hybrid1x2"])]
    with tracer.span("protocol.encode") as span:
        tasks = [task_message(matrix.costs, work, 1) for work in proc_ranges]
        tasks += [task_message(matrix.costs, work, 2) for work in spans]
        replies = [result_message(r) for r in replies_sent]
    span["attrs"]["task_bytes"] = sum(len(line.encode()) for line in tasks)
    with tracer.span("protocol.decode"):
        decoded_tasks = [decode_task(parse_message(line)) for line in tasks]
        decoded_replies = [decode_result(parse_message(line)) for line in replies]
    reason = None
    if [(t.start, t.end) for t in decoded_tasks] != [(w.start, w.end) for w in proc_ranges + spans]:
        reason = "decoded task ranges differ from the encoded ones"
    elif any(t.matrix != matrix.costs for t in decoded_tasks):
        reason = "decoded task matrices differ from the encoded ones"
    elif decoded_replies != replies_sent:
        reason = "decoded results differ from the encoded ones"
    workload.ledger.record("probe protocol", reason)

    stdin = io.StringIO(task_message(matrix.costs, WorkRange(0, 0), 1) + shutdown_message())
    stdout = io.StringIO()
    with tracer.span("worker.task"):
        code = run_worker(stdin, stdout)
    reply = decode_result(parse_message(stdout.getvalue()))
    ok = code == 0 and reply.evaluated == 0 and reply.optimal_path == ()
    workload.ledger.record("probe worker", None if ok else "bad reply", detail=f"exit {code}, {reply}")


def probe_fixed(tracer: Tracer, workload: Workload) -> None:
    """Instance-independent costs: a bare interpreter, a worker that starts
    and shuts down, and each parallel backend on a 3-city instance."""
    m3 = generate_instance(3, plan.derive_seed(workload.seed, "fixed"), True)
    expected = held_karp(m3.costs)
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(tspbench.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    solvers = (
        ("backends.fork_fixed", "threads2", lambda: solve_shared_memory(m3, 2)),
        ("backends.mp_fixed", "procs2", lambda: solve_message_passing(m3, 2)),
        ("backends.hybrid_fixed", "hybrid1x2", lambda: solve_hybrid(m3, 1, 2)),
    )
    for _ in range(plan.FIXED_PROBE_REPEATS):
        with tracer.span("backends.interp_start"):
            code = subprocess.run([sys.executable, "-c", "pass"], timeout=60).returncode
        workload.ledger.record("probe interpreter", None if code == 0 else f"exit {code}")
        with tracer.span("backends.worker_start"):
            proc = subprocess.Popen(
                worker_command(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env
            )
            try:
                out, _ = proc.communicate(shutdown_message(), timeout=60)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        ok = proc.returncode == 0 and not out
        workload.ledger.record("probe worker start", None if ok else f"exit {proc.returncode}")
        for name, key, call in solvers:
            with tracer.span(name):
                try:
                    result, error = call(), None
                except Exception as exc:  # counted as a failed operation
                    result, error = None, exc
            workload.ledger.judge_solve(f"probe fixed {key}", result, error, expected, 3)


def traced(workload: Workload, seconds: float) -> tuple[dict, Tracer]:
    """The traced run: every per-layer metric as ``name -> (value, unit)``,
    and the tracer that holds its spans."""
    tracer = Tracer(f"{workload.name}-{workload.seed}-{os.getpid()}-{time.time_ns()}")
    with tracer.span("setup"):
        workload.set_up(tracer)

    untraced = Samples()
    closed_loop(seconds / 2, lambda i: workload.run_round(i, untraced), min_calls=2)

    traced_samples = Samples()
    rounds = []

    def traced_round(i: int) -> None:
        index = workload.instance(i)
        results = {}

        def after_solve(key):
            with tracer.span("probe", backend=key):
                results[key] = probe_backend(tracer, workload, index, key)

        with tracer.span("round") as span:
            walls = workload.run_round(i, traced_samples, tracer, after_solve)
            with tracer.span("probe"):
                probe_transport(tracer, workload, index, results)
        rounds.append((span, walls))

    closed_loop(seconds / 2, traced_round, min_calls=2)
    with tracer.span("fixed"):
        probe_fixed(tracer, workload)

    if workload.name == "sweep":
        report_spans = [s for s in tracer.spans if s["name"] == "bench.report"]
    else:
        report = workload.samples_report(untraced)
        report_spans = []
        for _ in range(plan.FIXED_PROBE_REPEATS):
            with tracer.span("bench.report") as span:
                reason = report_round_trip(report)
            workload.ledger.record("probe report", reason)
            report_spans.append(span)

    metrics = layer_metrics(tracer, workload, rounds, untraced, traced_samples, report_spans)
    return metrics, tracer


def layer_metrics(tracer, workload, rounds, untraced, traced_samples, report_spans) -> dict:
    def named(name):
        return [s for s in tracer.spans if s["name"] == name]

    def per_round(name):
        return median([sum(duration(s) for s in tracer.descendants(r["id"], name)) for r, _ in rounds])

    scan_rates, scan_counts = [], []
    overhead = {key: [] for key in plan.PARALLEL}
    imbalance = {key: [] for key in plan.PARALLEL}
    for span, walls in rounds:
        scans = tracer.descendants(span["id"], "core.scan")
        evaluated = sum(s["attrs"]["evaluated"] for s in scans)
        scan_rates.append(evaluated / sum(duration(s) for s in scans))
        scan_counts.append(evaluated / (1 + len(plan.PARALLEL)))
        for key in plan.PARALLEL:
            times = [duration(s) for s in scans if s["attrs"]["backend"] == key]
            if key in walls:
                overhead[key].append((walls[key] - max(times)) / walls[key])
            imbalance[key].append(max(times) / statistics.fmean(times))

    task_bytes = [
        sum(s["attrs"]["task_bytes"] for s in tracer.descendants(r["id"], "protocol.encode"))
        for r, _ in rounds
    ]
    metrics = {
        "instances.generate_s": sum(duration(s) for s in named("instances.generate")),
        "core.validate_s": sum(duration(s) for s in named("core.validate")),
        "core.scan_s": per_round("core.scan"),
        "core.scan_perms_per_s": median(scan_rates),
        "core.scan_evaluated": median(scan_counts),
        "core.reduce_s": per_round("core.reduce"),
        "permutation.partition_s": per_round("permutation.partition"),
        "permutation.unrank_s": per_round("permutation.unrank"),
        "protocol.task_bytes": median(task_bytes),
        "protocol.encode_s": per_round("protocol.encode"),
        "protocol.decode_s": per_round("protocol.decode"),
        "worker.task_s": per_round("worker.task"),
        "bench.report_s": median([duration(s) for s in report_spans]),
    }
    for name in ("interp_start", "worker_start", "fork_fixed", "mp_fixed", "hybrid_fixed"):
        metrics[f"backends.{name}_s"] = median([duration(s) for s in named(f"backends.{name}")])
    for key in plan.PARALLEL:
        metrics[f"backends.overhead_frac.{key}"] = median(overhead[key])
        metrics[f"backends.imbalance.{key}"] = median(imbalance[key])
    metrics.update(paper_metrics(workload, untraced))
    plain, with_trace = untraced.medians(), traced_samples.medians()
    for key, _ in plan.BACKENDS:
        metrics[f"trace.overhead_s.{key}"] = with_trace[key] - plain[key]
    return {name: (metrics[name], UNITS[name]) for name in UNITS}


def paper_metrics(workload: Workload, samples: Samples) -> dict:
    """Speedup, efficiency and Karp-Flatt e of each parallel backend: on
    scan and spawn from the run's untraced medians against serial_s, on
    sweep from the run_bench reports' rows for the largest n."""
    out = {}
    if workload.name == "sweep":
        largest = max(plan.SWEEP_N)
        rows = [row for report in workload.reports for row in report.metrics if row.n == largest]
        for field in ("speedup", "efficiency", "karp_flatt"):
            for row_key in plan.PARALLEL:
                values = [getattr(r, field) for r in rows if KEY_OF_KIND[r.backend] == row_key]
                out[f"metrics.{field}.{row_key}"] = median(values)
        return out
    medians = samples.medians()
    for key in plan.PARALLEL:
        psi = speedup(medians["serial"], medians[key])
        out[f"metrics.speedup.{key}"] = psi
        out[f"metrics.efficiency.{key}"] = efficiency(psi, 2)
        out[f"metrics.karp_flatt.{key}"] = karp_flatt(psi, 2)
    return out
