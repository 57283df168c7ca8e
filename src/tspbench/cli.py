"""Command-line interface.

Subcommands: gen, solve, bench, metrics.  Exit codes: 0 success, 1
validation error, 2 execution or correctness error.
Diagnostics go to stderr; data goes to files or stdout.
"""

from __future__ import annotations

import sys

from .errors import ExecutionError, ValidationError

DEFAULT_SWEEP = "8,9,10,11,12"

#: Problem sizes at or above this need the --big acknowledgment; one
#: serial n=13 solve takes minutes, and a sweep runs it many times.
BIG_N = 13


def _write_file(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from None


def _read_file(path: str, what: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {what}: {exc}") from None


def _cmd_gen(args) -> int:
    from .instances import format_instance, generate_instance

    matrix = generate_instance(args.n, args.seed, symmetric=args.symmetric)
    _write_file(args.out, format_instance(matrix))
    return 0


def _cmd_solve(args) -> int:
    import time

    from . import backends
    from .instances import parse_instance

    threads, procs = args.threads, args.procs
    if threads is None and args.backend in ("shared_memory", "hybrid"):
        threads = 1
    if procs is None and args.backend in ("message_passing", "hybrid"):
        procs = 1
    spec = backends.BackendSpec(args.backend, threads=threads, processes=procs)
    matrix = parse_instance(_read_file(args.input, "instance file"))
    t0 = time.perf_counter()
    result = backends.solve(matrix, spec)
    elapsed = time.perf_counter() - t0
    print(f"cost {result.optimal_cost}")
    print(f"path {' '.join(str(c) for c in result.optimal_path)}")
    print(f"seconds {elapsed:.6f}")
    return 0


def _parse_n_list(text: str) -> tuple[int, ...]:
    try:  # BenchPlan rejects an empty list and any size out of range
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ValidationError(f"bad problem-size list {text!r}") from None


def _cmd_bench(args) -> int:
    from . import backends, bench

    specs = tuple(backends.parse_backend_spec(tok) for tok in args.backends.split(","))
    plan = bench.BenchPlan(
        n_values=_parse_n_list(args.n),
        backends=specs,
        repetitions=args.reps,
        warmup=args.warmup,
        seed=args.seed,
        symmetric=not args.asymmetric,
    )
    if max(plan.n_values) >= BIG_N and not args.big:
        raise ValidationError(
            f"n >= {BIG_N} takes minutes per serial solve; pass --big to acknowledge"
        )
    report = bench.run_bench(plan)
    text = bench.report_to_json(report)
    if args.out:
        _write_file(args.out, text)
    else:
        sys.stdout.write(text)
    if args.csv:
        _write_file(args.csv, bench.raw_csv_text(report))
    return 0


def _cmd_metrics(args) -> int:
    from . import bench

    report = bench.report_from_json(_read_file(args.input, "report"))
    text = bench.metrics_csv_text(report)
    if args.out:
        _write_file(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="tspbench",
        description="Exact brute-force TSP solving and parallel-backend benchmarking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random instance file")
    gen.add_argument("--n", type=int, required=True, help="number of cities (2..34)")
    gen.add_argument("--seed", type=int, default=0, help="64-bit generator seed")
    shape = gen.add_mutually_exclusive_group()
    shape.add_argument("--symmetric", dest="symmetric", action="store_true", default=True,
                       help="mirror the upper triangle (default)")
    shape.add_argument("--asymmetric", dest="symmetric", action="store_false",
                       help="draw every off-diagonal entry independently")
    gen.add_argument("--out", required=True, help="output instance file")
    gen.set_defaults(func=_cmd_gen)

    solve = sub.add_parser("solve", help="solve one instance file")
    solve.add_argument("--input", required=True, help="instance file")
    solve.add_argument("--backend", default="serial",
                       choices=["serial", "shared_memory", "message_passing", "hybrid"])
    solve.add_argument("--threads", type=int,
                       help="team size for shared_memory/hybrid (default 1)")
    solve.add_argument("--procs", type=int,
                       help="worker processes for message_passing/hybrid (default 1)")
    solve.set_defaults(func=_cmd_solve)

    bench_p = sub.add_parser("bench", help="run a benchmark sweep")
    bench_p.add_argument("--n", default=DEFAULT_SWEEP,
                         help=f"comma-separated city counts (default {DEFAULT_SWEEP})")
    bench_p.add_argument("--backends", default="serial,threads:2,threads:4,procs:2,procs:4",
                         help="comma-separated: serial, threads:T, procs:P, hybrid:PxT")
    bench_p.add_argument("--reps", type=int, default=5, help="timed repetitions per config")
    bench_p.add_argument("--warmup", type=int, default=1, help="untimed warm-up runs per config")
    bench_p.add_argument("--seed", type=int, default=0, help="instance-generation seed")
    bench_p.add_argument("--asymmetric", action="store_true",
                         help="benchmark asymmetric instances")
    bench_p.add_argument("--big", action="store_true",
                         help=f"allow n >= {BIG_N} (minutes per serial solve)")
    bench_p.add_argument("--out", help="write the JSON report here (default: stdout)")
    bench_p.add_argument("--csv", help="also write raw per-run timings as CSV")
    bench_p.set_defaults(func=_cmd_bench)

    metrics = sub.add_parser("metrics", help="derive the metrics CSV from a JSON report")
    metrics.add_argument("--input", required=True, help="JSON report from bench")
    metrics.add_argument("--out", help="write the metrics CSV here (default: stdout)")
    metrics.set_defaults(func=_cmd_metrics)

    return parser


def cli_dispatch(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; usage
        # problems are validation errors here.
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ExecutionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch())
