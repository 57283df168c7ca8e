import itertools
import os
import signal
import time
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_ones
from tspbench import backends, core, team
from tspbench.backends import (
    BackendSpec,
    hybrid_ranges,
    parse_backend_spec,
    solve,
    solve_hybrid,
    solve_interval_team,
    solve_message_passing,
    solve_shared_memory,
)
from tspbench.cli import cli_dispatch
from tspbench.core import FAULT_ENV_VAR, SolveResult, solve_range, solve_serial
from tspbench.errors import ExecutionError, ProtocolError, ValidationError
from tspbench.instances import format_instance, generate_instance
from tspbench.permutation import WorkRange, factorial, partition


class TestBackendSpec:
    def test_parallel_elements(self):
        assert BackendSpec("serial").parallel_elements == 1
        assert BackendSpec("shared_memory", threads=4).parallel_elements == 4
        assert BackendSpec("message_passing", processes=3).parallel_elements == 3
        assert BackendSpec("hybrid", threads=3, processes=2).parallel_elements == 6

    def test_field_discipline(self):
        with pytest.raises(ValidationError):
            BackendSpec("serial", threads=2)
        with pytest.raises(ValidationError):
            BackendSpec("shared_memory")
        with pytest.raises(ValidationError):
            BackendSpec("shared_memory", threads=0)
        with pytest.raises(ValidationError):
            BackendSpec("message_passing", threads=2, processes=2)
        with pytest.raises(ValidationError):
            BackendSpec("hybrid", threads=2)
        with pytest.raises(ValidationError):
            BackendSpec("openmp", threads=2)

    @pytest.mark.parametrize(
        "token,kind,p",
        [
            ("serial", "serial", 1),
            ("threads:4", "shared_memory", 4),
            ("procs:3", "message_passing", 3),
            ("hybrid:2x3", "hybrid", 6),
        ],
    )
    def test_parse_and_label_round_trip(self, token, kind, p):
        spec = parse_backend_spec(token)
        assert spec.kind == kind
        assert spec.parallel_elements == p
        assert spec.label() == token
        assert parse_backend_spec(spec.label()) == spec

    @pytest.mark.parametrize("token", ["", "thread:2", "threads:", "threads:x", "hybrid:2", "procs:-1"])
    def test_parse_rejects_garbage(self, token):
        with pytest.raises(ValidationError):
            parse_backend_spec(token)


class TestWorkerCount:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_team_member_over_count_is_execution_error(self, four_city_matrix, monkeypatch, threads):
        # fork children inherit the patched scan, so every team member over-counts
        def over_counting(matrix, work):
            result = solve_range(matrix, work)
            return SolveResult(result.optimal_cost, result.optimal_path, result.evaluated + 1)

        monkeypatch.setattr("tspbench.team.solve_range", over_counting)
        with pytest.raises(ExecutionError, match="worker 0 evaluated"):
            solve_interval_team(four_city_matrix, WorkRange(0, 6), threads)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForkTeamFailures:
    def test_member_exception_names_the_worker(self, four_city_matrix, monkeypatch):
        def failing_second_range(matrix, work):
            if work.start:
                raise RuntimeError("boom")
            return solve_range(matrix, work)

        monkeypatch.setattr("tspbench.team.solve_range", failing_second_range)
        with pytest.raises(ExecutionError, match="worker 1 failed: RuntimeError: boom"):
            solve_interval_team(four_city_matrix, WorkRange(0, 6), 2)
        assert_no_child_left()

    def test_killed_member_is_reported_and_reaped(self, four_city_matrix, monkeypatch):
        # member 0 is this process, so only forked member 1 kills itself
        def killed(matrix, work):
            if work.start != 0:
                os.kill(os.getpid(), signal.SIGKILL)
            return solve_range(matrix, work)

        monkeypatch.setattr("tspbench.team.solve_range", killed)
        with pytest.raises(ExecutionError, match="worker 1 exited without a result"):
            solve_interval_team(four_city_matrix, WorkRange(0, 6), 2)
        assert_no_child_left()

    def test_failure_kills_members_still_running(self, four_city_matrix, monkeypatch):
        def first_fails_rest_hang(matrix, work):
            if work.start == 0:
                raise RuntimeError("boom")
            time.sleep(60)

        monkeypatch.setattr("tspbench.team.solve_range", first_fails_rest_hang)
        started = time.monotonic()
        with pytest.raises(ExecutionError, match="worker 0 failed: RuntimeError: boom"):
            solve_interval_team(four_city_matrix, WorkRange(0, 6), 2)
        assert time.monotonic() - started < 30
        assert_no_child_left()

    def test_inline_member_failure_kills_forked_members(self, four_city_matrix, monkeypatch):
        raised_in = []  # a forked member's appends stay in its own copy

        def inline_fails_rest_hang(matrix, work):
            if work.start == 0:
                raised_in.append(os.getpid())
                raise RuntimeError("boom")
            time.sleep(60)

        monkeypatch.setattr("tspbench.team.solve_range", inline_fails_rest_hang)
        started = time.monotonic()
        with pytest.raises(ExecutionError, match="^worker 0 failed: RuntimeError: boom$"):
            solve_interval_team(four_city_matrix, WorkRange(0, 6), 3)
        assert time.monotonic() - started < 30
        assert raised_in == [os.getpid()]
        assert_no_child_left()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_inline_member_error_is_cut_and_exits_2(
        self, tmp_path, monkeypatch, capsys, four_city_matrix, threads
    ):
        def inline_fails(matrix, work):
            if work.start == 0:
                raise RuntimeError("x" * 300)
            return solve_range(matrix, work)

        monkeypatch.setattr("tspbench.team.solve_range", inline_fails)
        instance = tmp_path / "m.txt"
        instance.write_text(format_instance(four_city_matrix))
        argv = ["solve", "--input", str(instance), "--backend", "shared_memory", "--threads", str(threads)]
        assert cli_dispatch(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: worker 0 failed: RuntimeError: {'x' * 186}... (314 characters)"]
        assert_no_child_left()

    def test_inline_member_interrupt_propagates_and_kills_members(self, four_city_matrix, monkeypatch):
        def inline_interrupted_rest_hang(matrix, work):
            if work.start == 0:
                raise KeyboardInterrupt
            time.sleep(60)

        monkeypatch.setattr("tspbench.team.solve_range", inline_interrupted_rest_hang)
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            solve_interval_team(four_city_matrix, WorkRange(0, 6), 2)
        assert time.monotonic() - started < 30
        assert_no_child_left()


@pytest.fixture(scope="module")
def instance7():
    return generate_instance(7, 2024, symmetric=False)


@pytest.fixture(scope="module")
def serial7(instance7):
    return solve_serial(instance7)


def counting_forks(monkeypatch, seen=lambda: None):
    """Wrap os.fork; the list it returns gets ``seen()`` at each fork."""
    forks, real_fork = [], os.fork

    def fork():
        forks.append(seen())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


class TestForkTeamShape:
    @pytest.mark.parametrize("threads", [1, 2, 3, 4])
    def test_caller_is_member_0_and_forks_the_rest(self, instance7, serial7, monkeypatch, threads):
        forks = counting_forks(monkeypatch)
        assert solve_interval_team(instance7, WorkRange(0, 720), threads) == serial7
        assert len(forks) == threads - 1

    @given(data=st.data(), threads=st.integers(1, 4), n=st.integers(2, 7))
    @settings(max_examples=40, deadline=None)
    def test_team_equals_the_range_scan(self, data, threads, n):
        matrix = generate_instance(n, n, symmetric=False)
        total = factorial(n - 1)
        start = data.draw(st.integers(0, total), label="start")
        work = WorkRange(start, data.draw(st.integers(start, total), label="end"))
        assert solve_interval_team(matrix, work, threads) == solve_range(matrix, work)

    @pytest.mark.parametrize("n,held,compiled", [
        pytest.param(8, False, True, id="cold-True"),
        pytest.param(5, False, False, id="cold-False"),
        pytest.param(8, True, True, id="warm-True"),
    ])
    def test_block_is_compiled_before_the_first_fork(self, monkeypatch, n, held, compiled):
        # A cold n = 8 team of 2 makes the block once, before it forks,
        # and the caller walks its half of 2,520 leaves with it; a team
        # that holds it asks for it once and hands it on; no n = 5 walk
        # has five labels left, so that team never makes it.
        matrix = generate_instance(n, n, symmetric=False)
        monkeypatch.setattr(core, "_block", core._block5() if held else None)
        asked, block5 = [], core._block5
        monkeypatch.setattr(core, "_block5", lambda: asked.append(1) or block5())
        forks = counting_forks(monkeypatch, lambda: (len(asked), core._block is not None))
        work = WorkRange(0, factorial(n - 1))
        assert solve_interval_team(matrix, work, 2) == solve_range(matrix, work)
        assert forks == [(int(compiled), compiled)]
        assert (core._block is not None) == compiled


class TestSharedMemory:
    def test_single_team_is_serial(self, instance7, serial7):
        assert solve_shared_memory(instance7, 1) == serial7

    @pytest.mark.parametrize("threads", [2, 3, 5, 8, 16])
    def test_matches_serial(self, instance7, serial7, threads):
        assert solve_shared_memory(instance7, threads) == serial7

    def test_four_city_three_threads(self, four_city_matrix):
        result = solve_shared_memory(four_city_matrix, 3)
        assert result.optimal_cost == 80
        assert result.optimal_path == (0, 1, 3, 2, 0)

    def test_tie_break_with_idle_workers(self):
        # 8 workers on 5! = 120 permutations; all tours cost 6
        result = solve_shared_memory(all_ones(6), 8)
        assert result.optimal_cost == 6
        assert result.optimal_path == (0, 1, 2, 3, 4, 5, 0)

    def test_more_workers_than_permutations(self):
        # n=3 has only 2 permutations; 6 of the 8 workers stay idle
        m = all_ones(3)
        result = solve_shared_memory(m, 8)
        assert result == solve_serial(m)
        assert result.evaluated == 2

    def test_work_conservation(self, instance7):
        for threads in (1, 2, 3, 4, 8):
            assert solve_shared_memory(instance7, threads).evaluated == factorial(6)

    def test_rejects_bad_thread_count(self, instance7):
        with pytest.raises(ValidationError):
            solve_shared_memory(instance7, 0)


class TestMessagePassing:
    def test_single_process_is_serial(self, instance7, serial7):
        assert solve_message_passing(instance7, 1) == serial7

    @pytest.mark.parametrize("processes", [2, 4])
    def test_matches_serial(self, instance7, serial7, processes):
        assert solve_message_passing(instance7, processes) == serial7

    def test_one_permutation_per_worker(self, four_city_matrix):
        result = solve_message_passing(four_city_matrix, 6)
        assert result.optimal_cost == 80
        assert result.optimal_path == (0, 1, 3, 2, 0)
        assert result.evaluated == 6

    def test_spawn_failure_is_execution_error(self, four_city_matrix, monkeypatch):
        monkeypatch.setenv("TSPBENCH_WORKER_BIN", "/nonexistent/worker-binary")
        with pytest.raises(ExecutionError):
            solve_message_passing(four_city_matrix, 2)

    def test_worker_override_runs_with_no_argument(self, tmp_path, monkeypatch, instance7, serial7):
        # the override is the whole command line, entered like the real worker
        install_fake_worker(tmp_path, monkeypatch, (
            "if sys.argv[1:] != []:\n"
            "    sys.exit(3)\n"
            "from tspbench.worker import main\n"
            "main()\n"
        ))
        assert solve(instance7, parse_backend_spec("procs:1")) == serial7


def install_fake_worker(tmp_path, monkeypatch, body):
    script = tmp_path / "fake_worker.py"
    script.write_text("#!/usr/bin/env python3\nimport json, sys\n" + body)
    script.chmod(0o755)
    monkeypatch.setenv("TSPBENCH_WORKER_BIN", str(script))


def claiming_worker(path, cost, exit_code=0):
    """Body of a fake worker that answers any task with ``path`` at
    ``cost``, counting its range correctly, then exits ``exit_code``."""
    reply = {"v": 1, "type": "result", "cost": cost, "path": list(path)}
    return (
        "task = json.loads(sys.stdin.readline())\n"
        f"reply = {reply!r}\n"
        'reply["evaluated"] = str(int(task["end"]) - int(task["start"]))\n'
        "print(json.dumps(reply), flush=True)\n"
        f"sys.exit({exit_code})\n"
    )


class TestWorkerInterpreterFailures:
    @pytest.mark.parametrize(
        "n,processes,path,cost,idx",
        [
            (5, 2, (0, 9, 0), 0, 0),  # a label the instance does not have
            (5, 2, (0, 1, 2, 3, 4, 0), 1, 0),  # a real tour at a false cost
            (3, 3, (0, 1, 2, 0), 3, 2),  # a true tour from a worker given no range
        ],
    )
    def test_result_not_on_the_instance_is_protocol_error(
        self, tmp_path, monkeypatch, n, processes, path, cost, idx
    ):
        install_fake_worker(tmp_path, monkeypatch, claiming_worker(path, cost))
        with pytest.raises(ProtocolError, match=f"worker {idx}: "):
            solve_message_passing(all_ones(n), processes)
        assert_no_child_left()

    def test_undecodable_reply_is_protocol_error(self, tmp_path, monkeypatch, four_city_matrix):
        install_fake_worker(tmp_path, monkeypatch, 'sys.stdout.buffer.write(b"\\xff\\n")\n')
        with pytest.raises(ProtocolError, match="worker 0: malformed"):
            solve_message_passing(four_city_matrix, 1)
        assert_no_child_left()

    def test_silent_exit_reports_the_exit_code(self, tmp_path, monkeypatch, four_city_matrix):
        # the exit code is read only once the worker is reaped, never before
        install_fake_worker(tmp_path, monkeypatch, "sys.exit(3)\n")
        for _ in range(10):
            with pytest.raises(ExecutionError, match=r"without a result \(exit code 3\)"):
                solve_message_passing(four_city_matrix, 2)
        assert_no_child_left()

    def test_worker_that_lingers_after_its_reply_is_killed_at_the_deadline(
        self, tmp_path, monkeypatch, four_city_matrix
    ):
        # A right answer, then no exit.  team's clock jumps 61 s at each
        # reading, so its second one is past the 60 s that _reap allows.
        body = claiming_worker((0, 1, 3, 2, 0), 80).replace("sys.exit(0)", "__import__('time').sleep(60)")
        install_fake_worker(tmp_path, monkeypatch, body)
        clock = itertools.count(0, 61)
        monkeypatch.setattr(team, "time", types.SimpleNamespace(monotonic=lambda: next(clock),
                                                                sleep=time.sleep))
        with pytest.raises(ExecutionError, match=r"^worker 0 did not exit within 60 s of its reply$"):
            solve_message_passing(four_city_matrix, 1)
        assert next(clock) == 122  # _reap read it twice
        assert_no_child_left()

    def test_worker_that_exits_before_reading_its_code_is_reported(self, monkeypatch, four_city_matrix):
        # The real command, stopped by PYTHONMALLOC before it runs any code.
        # The code is written only once the worker has exited (unreaped), so
        # that write, and the task's, meet a pipe that no one can read.
        monkeypatch.delenv("TSPBENCH_WORKER_BIN", raising=False)
        monkeypatch.setenv("PYTHONMALLOC", "bogus")
        pids, spawn, build = [], os.posix_spawnp, backends._worker_code
        monkeypatch.setattr(os, "posix_spawnp", lambda *a, **kw: pids.append(spawn(*a, **kw)) or pids[-1])

        def built_after_the_exit():
            os.waitid(os.P_PID, pids[-1], os.WEXITED | os.WNOWAIT)
            return build()

        monkeypatch.setattr(backends, "_worker_code", built_after_the_exit)
        with pytest.raises(ExecutionError, match=r"worker 0 exited without a result \(exit code 1\)"):
            solve_message_passing(four_city_matrix, 2)
        assert len(pids) == 2
        assert_no_child_left()

    def test_nonzero_exit_after_result_names_the_worker(self, tmp_path, monkeypatch, four_city_matrix):
        install_fake_worker(tmp_path, monkeypatch, claiming_worker((0, 1, 3, 2, 0), 80, exit_code=3))
        with pytest.raises(ExecutionError, match="worker 0 exited with code 3"):
            solve_message_passing(four_city_matrix, 1)
        assert_no_child_left()

    @pytest.mark.parametrize(
        "reply",
        [
            '{"v":1,"type":"result","cost":%s,"path":[0,1,3,2,0],"evaluated":"6"}' % ("9" * 5000),
            '{"v":1,"type":"result","cost":80,"path":[0,1,3,2,0],"evaluated":"%s"}' % ("9" * 5000),
            "[" * 100_000,
            '{"v":1,"type":["result"]}',
        ],
        ids=["oversized-cost", "oversized-evaluated", "deep-nesting", "list-type"],
    )
    def test_unusual_json_reply_exits_2_naming_the_worker(
        self, tmp_path, monkeypatch, capsys, four_city_matrix, reply
    ):
        install_fake_worker(tmp_path, monkeypatch, f"sys.stdin.readline()\nprint({reply!r})\n")
        instance = tmp_path / "m.txt"
        instance.write_text(format_instance(four_city_matrix))
        argv = ["solve", "--input", str(instance), "--backend", "message_passing", "--procs", "1"]
        assert cli_dispatch(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: worker 0: ")

    @pytest.mark.parametrize(
        "reply,names",
        [
            ('{"v":1,"type":"result","cost":80,"path":[0,1,3,2,0],"evaluated":"%s"}' % ("9" * 5000),
             "'evaluated'"),
            ('{"v":1,"type":"result","cost":"%s","path":[0,1,3,2,0],"evaluated":"6"}'
             % ("9" * 5000), "'cost'"),
            ('{"v":1,"type":"result","cost":80,"path":[%s,"x"],"evaluated":"6"}'
             % ",".join(["1"] * 5000), "'path'"),
            ('{"v":"%s","type":"result"}' % ("9" * 5000), "version"),
            ('{"v":1,"type":"%s"}' % ("x" * 5000), "message type"),
            ("[%s]" % ",".join(["1"] * 5000), "not an object"),
        ],
        ids=["evaluated", "cost", "path", "version", "type", "not-an-object"],
    )
    def test_error_line_shortens_an_oversized_value(
        self, tmp_path, monkeypatch, capsys, four_city_matrix, reply, names
    ):
        install_fake_worker(tmp_path, monkeypatch, f"sys.stdin.readline()\nprint({reply!r})\n")
        instance = tmp_path / "m.txt"
        instance.write_text(format_instance(four_city_matrix))
        argv = ["solve", "--input", str(instance), "--backend", "message_passing", "--procs", "1"]
        assert cli_dispatch(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and len(err[0]) < 200 and names in err[0]

    @pytest.mark.parametrize("message", ["x" * 5000, ["x"] * 5000], ids=["str", "list"])
    def test_long_worker_error_is_cut(self, tmp_path, monkeypatch, capsys, four_city_matrix, message):
        error = {"v": 1, "type": "error", "message": message}
        install_fake_worker(tmp_path, monkeypatch, f"sys.stdin.readline()\nprint(json.dumps({error!r}))\n")
        instance = tmp_path / "m.txt"
        instance.write_text(format_instance(four_city_matrix))
        argv = ["solve", "--input", str(instance), "--backend", "message_passing", "--procs", "1"]
        assert cli_dispatch(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and len(err[0]) < 300
        assert err[0].startswith(f"error: worker 0 failed: {str(message)[:200]}... (")

    def test_multi_line_worker_error_is_one_error_line(
        self, tmp_path, monkeypatch, capsys, four_city_matrix
    ):
        error = {"v": 1, "type": "error", "message": "first\nerror: second\r\nthird"}
        install_fake_worker(tmp_path, monkeypatch, f"sys.stdin.readline()\nprint(json.dumps({error!r}))\n")
        instance = tmp_path / "m.txt"
        instance.write_text(format_instance(four_city_matrix))
        argv = ["solve", "--input", str(instance), "--backend", "message_passing", "--procs", "1"]
        assert cli_dispatch(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: worker 0 failed: first error: second third"]


def live_processes_running(path):
    """Pids of the live (not zombie) processes whose argv holds ``path``."""
    pids = []
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                argv = fh.read().split(b"\0")
            with open(f"/proc/{entry}/stat", "rb") as fh:
                state = fh.read().rsplit(b")", 1)[1].split()[0]
        except (OSError, IndexError):  # not a process, or gone meanwhile
            continue
        if os.fsencode(path) in argv and state not in (b"Z", b"X"):
            pids.append(int(entry))
    return pids


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc to find grandchildren")
def test_failed_hybrid_solve_leaves_no_team_member_running(tmp_path, monkeypatch):
    # Worker 0 fails after 1 s.  Worker 1 runs the real worker, which with
    # its forked member would scan for far longer if the failure did not
    # kill the member along with worker 1; it is not our child, so only
    # /proc can see it.
    install_fake_worker(tmp_path, monkeypatch, (
        "import io, time\n"
        "task = sys.stdin.readline()\n"
        'if json.loads(task)["start"] == "0":\n'
        "    time.sleep(1)\n"
        '    print(json.dumps({"v": 1, "type": "error", "message": "synthetic"}), flush=True)\n'
        "    sys.exit(1)\n"
        "from tspbench.worker import run_worker\n"
        "sys.exit(run_worker(io.StringIO(task + sys.stdin.read())))\n"
    ))
    with pytest.raises(ExecutionError, match="worker 0 failed: synthetic"):
        solve_hybrid(generate_instance(13, 0), 2, 2)
    deadline = time.monotonic() + 5  # SIGKILLed members take a moment to exit
    while (survivors := live_processes_running(tmp_path / "fake_worker.py")) and (
        time.monotonic() < deadline
    ):
        time.sleep(0.05)
    for pid in survivors:
        os.kill(pid, signal.SIGKILL)
    assert not survivors, f"team members {survivors} outlived the failed solve"


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc to find grandchildren")
def test_killed_hybrid_worker_is_reported_at_once_and_its_team_killed(tmp_path, monkeypatch):
    # The real worker, SIGKILLed 1 s into a scan that it and its forked
    # member would run for tens of seconds.  The member must hold no copy
    # of the reply pipe, or the coordinator would wait for it to finish.
    install_fake_worker(tmp_path, monkeypatch, (
        "import os, signal, threading, time\n"
        "def die():\n"
        "    time.sleep(1)\n"
        "    os.kill(os.getpid(), signal.SIGKILL)\n"
        "threading.Thread(target=die, daemon=True).start()\n"
        "from tspbench.worker import run_worker\n"
        "sys.exit(run_worker())\n"
    ))
    t0 = time.monotonic()
    with pytest.raises(ExecutionError, match=r"worker 0 exited without a result \(exit code -9\)"):
        solve_hybrid(generate_instance(13, 0), 1, 2)
    assert time.monotonic() - t0 < 4, "the kill at ~1 s was reported late"
    deadline = time.monotonic() + 5  # SIGKILLed members take a moment to exit
    while (survivors := live_processes_running(tmp_path / "fake_worker.py")) and (
        time.monotonic() < deadline
    ):
        time.sleep(0.05)
    for pid in survivors:
        os.kill(pid, signal.SIGKILL)
    assert not survivors, f"team members {survivors} outlived the killed worker"


class TestHybrid:
    def test_one_by_one_is_serial(self, instance7, serial7):
        assert solve_hybrid(instance7, 1, 1) == serial7

    @pytest.mark.parametrize("processes,threads", [(2, 2), (2, 3), (4, 2), (1, 4), (3, 1), (1, 2), (2, 4)])
    def test_matches_serial(self, instance7, serial7, processes, threads):
        assert solve_hybrid(instance7, processes, threads) == serial7

    def test_four_city_two_by_three(self, four_city_matrix):
        # 6 ranges of exactly one permutation each
        result = solve_hybrid(four_city_matrix, 2, 3)
        assert result.optimal_cost == 80
        assert result.optimal_path == (0, 1, 3, 2, 0)
        assert result.evaluated == 6

    def test_tie_break(self):
        result = solve_hybrid(all_ones(5), 2, 2)
        assert result.optimal_cost == 5
        assert result.optimal_path == (0, 1, 2, 3, 4, 0)

    def test_flat_partition_equivalence(self):
        # hybrid's grouped assignment must flatten to exactly the flat
        # partition over processes * threads elements
        for total in (0, 1, 5, 24, 719, 5040, 40320, 362880):
            for p in range(1, 5):
                for t in range(1, 5):
                    flat = partition(total, p * t)
                    groups = hybrid_ranges(total, p, t)
                    assert [w for g in groups for w in g] == flat

    def test_worker_local_split_matches_flat_partition(self):
        # a hybrid worker re-partitions its contiguous span locally;
        # that split must reproduce the global flat ranges exactly
        for total in (1, 7, 24, 120, 5040, 40321):
            for p in range(1, 5):
                for t in range(1, 5):
                    groups = hybrid_ranges(total, p, t)
                    for group in groups:
                        span = WorkRange(group[0].start, group[-1].end)
                        local = [
                            WorkRange(span.start + w.start, span.start + w.end)
                            for w in partition(span.count, t)
                        ]
                        assert local == group

    def test_interval_team_scans_exactly_its_window(self, four_city_matrix):
        result = solve_interval_team(four_city_matrix, WorkRange(3, 6), 2)
        assert result == solve_range(four_city_matrix, WorkRange(3, 6))


class TestDispatchAndDeterminism:
    def test_solve_dispatch(self, four_city_matrix):
        for spec in (
            BackendSpec("serial"),
            BackendSpec("shared_memory", threads=2),
            BackendSpec("message_passing", processes=2),
            BackendSpec("hybrid", processes=2, threads=2),
        ):
            result = solve(four_city_matrix, spec)
            assert (result.optimal_cost, result.optimal_path) == (80, (0, 1, 3, 2, 0))

    def test_repeated_runs_identical(self, instance7):
        first = solve_shared_memory(instance7, 3)
        second = solve_shared_memory(instance7, 3)
        assert first == second
        first_mp = solve_message_passing(instance7, 2)
        second_mp = solve_message_passing(instance7, 2)
        assert first_mp == second_mp


class TestFaultHook:
    def test_inverted_comparison_changes_ranged_scans(self, four_city_matrix, monkeypatch):
        healthy = solve_range(four_city_matrix, WorkRange(0, 6))
        monkeypatch.setenv(FAULT_ENV_VAR, "1")
        faulty = solve_range(four_city_matrix, WorkRange(0, 6))
        assert faulty.optimal_cost == 95  # the worst tour, not the best
        assert faulty != healthy
        # serial is the reference and must stay immune
        assert solve_serial(four_city_matrix).optimal_cost == 80

    def test_fault_propagates_into_worker_processes(self, four_city_matrix, monkeypatch):
        monkeypatch.setenv(FAULT_ENV_VAR, "1")
        result = solve_message_passing(four_city_matrix, 2)
        assert result.optimal_cost == 95
