"""tspbench's benchmark: one command, three closed-loop workloads.

    python3 perfbench/run.py --workload {scan,spawn,sweep} --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports tspbench from
``src/``.  With ``--trace 0`` it prints every end-to-end metric; with
``--trace 1`` it prints every per-layer metric and writes the run's spans
to ``.perfbench/``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exit code 0 means every operation was correct, 1 that some failed, and
2 that the benchmark could not run.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import plan

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=plan.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_start": os.getloadavg(),
    }


def measure_setup(workload: str, seed: int) -> float:
    """Median seconds of ``SETUP_REPEATS`` set-ups, each in a fresh
    interpreter, so the import is paid every time."""
    times = []
    for _ in range(plan.SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(SRC)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def print_table(metrics: dict, counts: dict) -> None:
    for name, (value, unit) in metrics.items():
        note = f"  (n={counts[name]})" if name in counts else ""
        print(f"  {name:34s} {value:16.6f} {unit}{note}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tspbench" / "__init__.py").is_file():
        print(f"error: no tspbench sources under {SRC}", file=sys.stderr)
        return 2
    env = environment()
    sys.path.insert(0, str(SRC))
    try:
        setup_s = measure_setup(args.workload, args.seed) if not args.trace else None
        import workloads
    except (subprocess.SubprocessError, ImportError, ValueError) as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 2
    import tspbench

    if Path(tspbench.__file__).resolve().parent != SRC / "tspbench":
        print(f"error: imported tspbench from {tspbench.__file__}, not {SRC}", file=sys.stderr)
        return 2

    ledger = workloads.Ledger()
    workload = workloads.Workload(args.workload, args.seed, ledger)
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    if args.trace:
        import probes

        metrics, tracer = probes.traced(workload, args.seconds)
        print_table(metrics, {})
        # The inferred serial fraction (Karp-Flatt e) beside the measured one.
        columns = ("metrics.speedup", "metrics.efficiency", "metrics.karp_flatt",
                   "backends.overhead_frac", "backends.imbalance")
        print("  backend     speedup  efficiency  karp_flatt_e  overhead_frac  imbalance")
        for key in plan.PARALLEL:
            row = [metrics[f"{column}.{key}"][0] for column in columns]
            print(f"  {key:10s} {row[0]:8.3f} {row[1]:11.3f} {row[2]:13.3f} {row[3]:14.3f} {row[4]:10.3f}")
    else:
        workload.set_up()
        metrics, samples = workloads.end_to_end(workload, args.seconds, setup_s)
        counts = {"wall_s": len(samples.wall), "cpu_s": len(samples.cpu)}
        counts.update({f"{k}_s": len(v) for k, v in samples.by_backend.items()})
        print_table(metrics, counts)

    env["loadavg_end"] = os.getloadavg()
    print("environment " + json.dumps(env))
    if args.trace:
        out = Path(".perfbench") / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(out, {"environment": env, "metrics": metrics})
        print(f"spans written to {out}")
    for reason, count in ledger.reasons.items():
        print(f"FAILED x{count} {reason}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": ledger.failed == 0,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                # NaN (no sample: every such solve failed) is not JSON.
                "metrics": {
                    name: {"value": None if v != v else v, "unit": u}
                    for name, (v, u) in metrics.items()
                },
            }
        )
    )
    return 0 if ledger.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
