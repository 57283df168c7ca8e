"""Kernel mutants that the answer-level tests must kill.

Usage, from the repository root:

    python tests/mutants.py [NAME ...]

Each mutant below is one named one-line change to
``src/tspbench/core.py``.  The script copies ``src/``, ``tests/``,
``perfbench/`` (whose Held-Karp oracle the tests load) and
``pyproject.toml`` into a temporary directory, applies one mutant at a
time to the copy, and runs there first the answer-level tests with the
white-box tests deselected, then the white-box tests alone; the
checkout is never edited.  WHITE_BOX holds the block-call tests, among
them test_lane_filter_runs_exactly_the_blocks_that_improve, the tests
of when a table is built, and the value tests of the block and the lane
table.  The script prints a kill table: one row per mutant with its
kind and, for each of the two runs, the first test that failed, or
"survived".

A mutant is "answer" when it can change a (cost, path, evaluated) that
solve_range returns, or make it raise, and "speed" when it can only make
the lane filter run more blocks than it must.  A speed mutant keeps
every answer, so no answer test can kill it, and only a white-box test
can.  The script exits 1 if an answer mutant survives the answer tests
or an answer test kills a speed mutant.
pytest does not collect this file, since its name matches no test_*.py.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ANSWER_TESTS = ["tests/test_walk.py", "tests/test_held_karp.py", "tests/test_core.py",
                "tests/test_backends.py", "tests/test_acceptance.py"]
#: The white-box tests: they pin the blocks that run, the tables that are
#: built, or the values of the block and the lane table, and not only
#: the answers.
WHITE_BOX = [f"tests/test_walk.py::{name}" for name in (
    "test_six_city_ranges_are_one_block_call_and_none_below_seven_reach_a_lane",
    "test_lane_filter_runs_exactly_the_blocks_that_improve", "test_largest_lanes_keep_the_first_tour",
    "test_flat_lane_table_is_the_lazy_one", "test_lane_entries_are_the_suffix_costs",
    "test_lane_table_is_built_from_its_threshold_up_to_its_size_cap",
    "test_lane_table_is_freed_when_the_walk_returns", "test_lane_table_keeps_its_size_bound",
    "test_block_totals_are_the_tour_costs")]

#: name, kind, the text in core.py (which must occur exactly once), its
#: replacement.
MUTANTS = [
    # the block's keep step and the lane test
    ("keep-ties", "answer", "if low < best_cost:", "if low <= best_cost:"),
    ("lane-shift-plus-1", "answer", "- best_cost + _LANE_SHIFT)", "- best_cost + _LANE_SHIFT + 1)"),
    ("lane-test-no-edge", "speed", "(cost + row[x] - best_cost", "(cost - best_cost"),
    ("lane-shift-halved", "speed", "_LANE_SHIFT = 1 << _LANE - 1", "_LANE_SHIFT = 1 << _LANE - 2"),
    # the walk's first and last child ranges and its count
    ("first-child-lo", "answer", "child_lo = lo - i * size if", "child_lo = lo - i * size + 1 if"),
    ("final-child-hi", "answer", "child_hi = hi - i * size if", "child_hi = hi - i * size - 1 if"),
    ("final-child-index", "answer", "final = lo // size, (hi - 1) // size",
     "final = lo // size, hi // size"),
    ("block-count", "answer", "visited += hi - lo\n", "visited += hi - lo + 1\n"),
    ("skipped-block-count", "answer", "visited += 120", "visited += 119"),
    # the table's build
    ("build-level-range", "speed", "for k in range(1, 6):\n        width",
     "for k in range(1, 5):\n        width"),
    ("build-block-shift", "answer", "| y] << width * i", "| y] << width * (i + 1)"),
    ("build-last-skip", "speed", "if not mask >> last & 1:", "if not mask >> last + 1 & 1:"),
    ("build-home-leg", "answer", "table[x] = costs[x][0]", "table[x] = costs[0][x]"),
]


def run(cwd, *args):
    """The first failed test of a pytest run in ``cwd``, or None.  Each
    run starts with no hypothesis database, so no mutant's examples
    replay those that failed on the one before."""
    shutil.rmtree(Path(cwd, ".hypothesis"), ignore_errors=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("TSPBENCH_")}
    env["PYTHONPATH"] = str(Path(cwd, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "-rfE", *args],
        cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode == 0:
        return None
    failed = [line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED", "ERROR"))]
    return failed[0] if failed else f"pytest exit {proc.returncode}"


def short(failed):
    """A test id without its file, padded to one column."""
    return f"{failed.split('::')[-1] if failed else 'survived':<60}"


def main(names):
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    if names and len(chosen) != len(names):
        sys.exit(f"unknown mutant in {names}; known: {[m[0] for m in MUTANTS]}")
    source = (ROOT / "src/tspbench/core.py").read_text()
    wrong = []
    print(f"{'mutant':<20} {'kind':<7} {'answer tests':<60} white-box tests")
    with tempfile.TemporaryDirectory() as tmp:
        for part in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / part, Path(tmp, part),
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tmp)
        core = Path(tmp, "src/tspbench/core.py")
        for name, kind, old, new in chosen:
            if source.count(old) != 1:
                sys.exit(f"{name}: {old!r} occurs {source.count(old)} times in core.py")
            core.write_text(source.replace(old, new))
            answers = run(tmp, *ANSWER_TESTS, *(f"--deselect={test}" for test in WHITE_BOX))
            white = run(tmp, *WHITE_BOX)
            # an answer mutant must die by an answer test; a speed mutant
            # that one kills changed an answer and is listed wrongly
            if (answers is None) == (kind == "answer"):
                wrong.append(name)
            print(f"{name:<20} {kind:<7} {short(answers)} {short(white)}", flush=True)
    if wrong:
        print(f"not as listed: {', '.join(wrong)}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
