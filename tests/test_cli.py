import json
import subprocess
import sys

import pytest

from tspbench.bench import report_from_json
from tspbench.cli import cli_dispatch
from tspbench.instances import generate_instance, parse_instance


def test_gen_writes_deterministic_instance(tmp_path):
    out = tmp_path / "m.txt"
    assert cli_dispatch(["gen", "--n", "7", "--seed", "42", "--symmetric", "--out", str(out)]) == 0
    matrix = parse_instance(out.read_text())
    assert matrix == generate_instance(7, 42, symmetric=True)


def test_gen_asymmetric(tmp_path):
    out = tmp_path / "m.txt"
    assert cli_dispatch(["gen", "--n", "5", "--seed", "3", "--asymmetric", "--out", str(out)]) == 0
    assert parse_instance(out.read_text()) == generate_instance(5, 3, symmetric=False)


def test_gen_rejects_contradictory_shape(tmp_path):
    out = tmp_path / "m.txt"
    assert cli_dispatch(["gen", "--n", "4", "--symmetric", "--asymmetric", "--out", str(out)]) == 1
    assert not out.exists()


def test_gen_rejects_bad_n(tmp_path):
    assert cli_dispatch(["gen", "--n", "99", "--out", str(tmp_path / "m.txt")]) == 1


def test_gen_unwritable_path_is_validation_error(tmp_path):
    assert cli_dispatch(["gen", "--n", "4", "--out", str(tmp_path / "no" / "dir" / "m.txt")]) == 1


def test_solve_prints_cost_path_time(tmp_path, capsys):
    instance = tmp_path / "m.txt"
    instance.write_text("4\n0,10,15,20\n10,0,35,25\n15,35,0,30\n20,25,30,0\n")
    assert cli_dispatch(["solve", "--input", str(instance), "--backend", "serial"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "cost 80"
    assert lines[1] == "path 0 1 3 2 0"
    assert lines[2].startswith("seconds ")
    float(lines[2].split()[1])


@pytest.mark.parametrize(
    "extra",
    [
        ["--backend", "shared_memory", "--threads", "2"],
        ["--backend", "message_passing", "--procs", "2"],
        ["--backend", "hybrid", "--procs", "2", "--threads", "2"],
    ],
)
def test_solve_parallel_backends(tmp_path, capsys, extra):
    instance = tmp_path / "m.txt"
    instance.write_text("4\n0,10,15,20\n10,0,35,25\n15,35,0,30\n20,25,30,0\n")
    assert cli_dispatch(["solve", "--input", str(instance), *extra]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "cost 80"


@pytest.mark.parametrize(
    "extra",
    [
        ["--backend", "message_passing", "--threads", "4"],
        ["--backend", "shared_memory", "--procs", "2"],
    ],
)
def test_solve_rejects_flag_the_backend_does_not_take(tmp_path, capsys, extra):
    instance = tmp_path / "m.txt"
    instance.write_text("4\n0,10,15,20\n10,0,35,25\n15,35,0,30\n20,25,30,0\n")
    assert cli_dispatch(["solve", "--input", str(instance), *extra]) == 1
    assert "does not take" in capsys.readouterr().err


def test_solve_missing_file_is_validation_error(tmp_path):
    assert cli_dispatch(["solve", "--input", str(tmp_path / "nope.txt")]) == 1


def test_solve_corrupt_file_is_validation_error(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("3\n0,1\n1,0\n")
    assert cli_dispatch(["solve", "--input", str(bad)]) == 1


def test_bench_emits_json_and_csv(tmp_path):
    out = tmp_path / "report.json"
    csv = tmp_path / "raw.csv"
    code = cli_dispatch(
        [
            "bench",
            "--n", "5,6",
            "--backends", "serial,threads:2,procs:2",
            "--reps", "2",
            "--warmup", "0",
            "--seed", "11",
            "--out", str(out),
            "--csv", str(csv),
        ]
    )
    assert code == 0
    report = report_from_json(out.read_text())
    assert report.plan.n_values == (5, 6)
    assert len(report.timings) == 6  # 3 backends x 2 sizes
    lines = csv.read_text().splitlines()
    assert lines[0] == "backend,n,p,run_index,seconds"
    assert len(lines) == 1 + 6 * 2


def test_bench_metrics_pipeline(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert cli_dispatch(
        ["bench", "--n", "5", "--backends", "serial,threads:2", "--reps", "1",
         "--warmup", "0", "--out", str(out)]
    ) == 0
    metrics_out = tmp_path / "metrics.csv"
    assert cli_dispatch(["metrics", "--input", str(out), "--out", str(metrics_out)]) == 0
    lines = metrics_out.read_text().splitlines()
    assert lines[0] == "backend,n,p,mean_seconds,speedup,efficiency,karp_flatt"
    assert len(lines) == 3
    # stdout mode
    assert cli_dispatch(["metrics", "--input", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == lines[0]


def test_bench_to_stdout(capsys):
    assert cli_dispatch(
        ["bench", "--n", "4", "--backends", "serial", "--reps", "1", "--warmup", "0"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema_version"] == "1"


def test_bench_requires_big_flag_for_large_n():
    assert cli_dispatch(["bench", "--n", "13", "--backends", "serial"]) == 1


def test_bench_rejects_bad_backend_token():
    assert cli_dispatch(["bench", "--n", "5", "--backends", "serial,warp:9"]) == 1


def test_metrics_missing_input(tmp_path):
    assert cli_dispatch(["metrics", "--input", str(tmp_path / "nope.json")]) == 1


def test_unknown_flags_exit_one(capsys):
    assert cli_dispatch(["gen", "--n", "5", "--frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_exits_one():
    assert cli_dispatch(["transmogrify"]) == 1


def test_no_arguments_exits_one():
    assert cli_dispatch([]) == 1


def test_help_exits_zero(capsys):
    assert cli_dispatch(["--help"]) == 0
    assert "gen" in capsys.readouterr().out


def test_lone_worker_flag_is_a_usage_error():
    # a worker is entered only through backends.worker_command(); the CLI
    # has no worker mode that would sit reading tasks from stdin
    proc = subprocess.run(
        [sys.executable, "-m", "tspbench", "--worker"],
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 1
    assert "usage:" in proc.stderr


def test_worker_flag_among_other_arguments_is_rejected(tmp_path):
    # beside a subcommand, too, --worker is an unknown argument, not a
    # switch to reading tasks from stdin
    out = tmp_path / "x.txt"
    proc = subprocess.run(
        [sys.executable, "-m", "tspbench", "gen", "--n", "5", "--out", str(out), "--worker"],
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 1
    assert "unrecognized arguments: --worker" in proc.stderr
    assert not out.exists()


def test_correctness_failure_exits_two(tmp_path, monkeypatch):
    from tspbench.core import FAULT_ENV_VAR

    monkeypatch.setenv(FAULT_ENV_VAR, "1")
    assert cli_dispatch(
        ["bench", "--n", "5", "--backends", "threads:2", "--reps", "1", "--warmup", "0",
         "--out", str(tmp_path / "r.json")]
    ) == 2
    assert not (tmp_path / "r.json").exists()


def test_solve_instance_that_is_not_utf8_exits_1(tmp_path, capsys):
    instance = tmp_path / "m.txt"
    instance.write_bytes(b"2\n0,1\n1,0\n\xff\n")
    assert cli_dispatch(["solve", "--input", str(instance)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot read instance file")
