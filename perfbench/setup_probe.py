"""Time one benchmark set-up in a fresh interpreter and print the seconds.

Usage: ``python3 perfbench/setup_probe.py WORKLOAD SEED SRC_DIR``

Set-up is what a workload run does before its first solve: import
tspbench and generate (and so validate) the workload's instances.  The
oracle is not part of it.
"""

import sys
import time

import plan


def main() -> None:
    workload, seed, src = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import tspbench.backends  # noqa: F401
    from tspbench.instances import generate_instance

    if workload == "sweep":
        import tspbench.bench  # noqa: F401
    instances = [generate_instance(*spec) for spec in plan.instance_specs(workload, seed)]
    elapsed = time.perf_counter() - t0
    if not instances:
        raise SystemExit("no instances")
    print(repr(elapsed))


if __name__ == "__main__":
    main()
