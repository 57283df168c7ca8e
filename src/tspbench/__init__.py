"""Exact brute-force TSP with interchangeable parallel backends.

Importing the package loads no submodule; import each name from the
module that defines it:

* ``tspbench.core``: the instance type, tour costs, the scan kernel and
  the serial and range solvers, result reduction;
* ``tspbench.permutation``: lexicographic permutation indices and the
  work-range partitioner;
* ``tspbench.instances``: deterministic instance generation and the
  instance file format;
* ``tspbench.backends``: the parallel executor, backend specs and worker
  start;
* ``tspbench.team``: the fork team, and the loop that starts, reads and
  reaps every child;
* ``tspbench.protocol``: the coordinator/worker wire protocol;
* ``tspbench.worker``: the worker-mode entry point;
* ``tspbench.bench``: benchmark sweeps and their reports;
* ``tspbench.metrics``: speedup, efficiency and the Karp-Flatt metric;
* ``tspbench.errors``: the exception hierarchy;
* ``tspbench.cli``: the command-line interface.
"""

__version__ = "0.1.0"
