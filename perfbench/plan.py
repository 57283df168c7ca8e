"""What each workload runs, derived only from the workload seed.

Standard library only: ``setup_probe.py`` imports this module before it
starts the clock on importing tspbench.
"""

from __future__ import annotations

import hashlib

WORKLOADS = ("scan", "spawn", "sweep")

#: Seed kept out of all tuning.  A later change that claims a gain
#: confirms it on this seed as well as on the seeds it was developed on.
HELD_OUT_SEED = 314159

#: (metric key, backend spec) in the order every round runs them.  No
#: backend uses more than 2 parallel elements.
BACKENDS = (
    ("serial", "serial"),
    ("threads2", "threads:2"),
    ("procs2", "procs:2"),
    ("hybrid1x2", "hybrid:1x2"),
)
PARALLEL = tuple(key for key, _ in BACKENDS if key != "serial")

SCAN_N = 11
SPAWN_N = 8
#: Distinct spawn instances; a run that gets through all of them starts
#: over from the first.
SPAWN_INSTANCES = 256
SWEEP_N = (8, 9, 10)
SWEEP_REPETITIONS = 3

#: Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_REPEATS = 7
#: Repeats of each instance-independent probe in a traced run.
FIXED_PROBE_REPEATS = 5


def derive_seed(seed: int, *parts) -> int:
    """A 63-bit seed that depends only on ``seed`` and ``parts``."""
    text = ":".join(str(p) for p in (seed, *parts))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big") >> 1


def instance_specs(workload: str, seed: int) -> list[tuple[int, int, bool]]:
    """``(n, seed, symmetric)`` for every instance the workload solves, in
    the order it solves them; each goes to ``generate_instance``."""
    if workload == "scan":
        return [(SCAN_N, derive_seed(seed, "scan"), True)]
    if workload == "spawn":
        return [(SPAWN_N, derive_seed(seed, "spawn", i), False) for i in range(SPAWN_INSTANCES)]
    if workload == "sweep":
        # run_bench generates every size from the plan's single seed.
        plan_seed = derive_seed(seed, "sweep")
        return [(n, plan_seed, True) for n in SWEEP_N]
    raise ValueError(f"unknown workload {workload!r}")
