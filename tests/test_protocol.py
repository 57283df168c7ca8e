import json

import pytest

from tspbench.core import SolveResult
from tspbench.errors import ProtocolError
from tspbench.permutation import WorkRange
from tspbench.protocol import (
    PROTOCOL_VERSION,
    decode_result,
    decode_task,
    error_message,
    parse_message,
    result_message,
    shutdown_message,
    task_message,
)

ROWS = ((0, 3, 4), (3, 0, 5), (4, 5, 0))


def test_messages_are_single_json_lines():
    for line in (
        task_message(ROWS, WorkRange(0, 2), 1),
        result_message(SolveResult(7, (0, 1, 2, 0), 2)),
        error_message("boom"),
        shutdown_message(),
    ):
        assert line.endswith("\n")
        assert "\n" not in line[:-1]
        payload = json.loads(line)
        assert payload["v"] == PROTOCOL_VERSION


def test_task_round_trip():
    line = task_message(ROWS, WorkRange(1, 2), 3)
    task = decode_task(parse_message(line))
    assert task.n == 3
    assert task.matrix == ROWS
    assert (task.start, task.end, task.threads) == (1, 2, 3)


def test_indices_travel_as_decimal_strings():
    start = 2**64 + 12345
    end = start + 3
    line = task_message(ROWS, WorkRange(start, end), 1)
    payload = json.loads(line)
    assert payload["start"] == str(start)
    assert payload["end"] == str(end)
    task = decode_task(parse_message(line))
    assert (task.start, task.end) == (start, end)


def test_result_round_trip():
    result = SolveResult(42, (0, 2, 1, 0), 123456)
    assert decode_result(parse_message(result_message(result))) == result


def test_result_evaluated_above_64_bits():
    result = SolveResult(1, (0, 1, 2, 0), 2**70)
    assert decode_result(parse_message(result_message(result))).evaluated == 2**70


def test_version_rejection():
    good = json.loads(task_message(ROWS, WorkRange(0, 1), 1))
    for bad_version in (0, 2, "1", None):
        bad = dict(good)
        if bad_version is None:
            del bad["v"]
        else:
            bad["v"] = bad_version
        with pytest.raises(ProtocolError, match="version"):
            parse_message(json.dumps(bad))


def test_malformed_lines_rejected():
    with pytest.raises(ProtocolError):
        parse_message("this is not json\n")
    with pytest.raises(ProtocolError):
        parse_message("[1,2,3]\n")
    with pytest.raises(ProtocolError):
        parse_message('{"v":1,"type":"bogus"}\n')


def test_task_field_validation():
    good = json.loads(task_message(ROWS, WorkRange(0, 2), 1))

    def corrupted(**changes):
        msg = dict(good)
        msg.update(changes)
        return msg

    with pytest.raises(ProtocolError):
        decode_task(corrupted(start=5))  # int, not decimal string
    with pytest.raises(ProtocolError):
        decode_task(corrupted(start="-3"))
    with pytest.raises(ProtocolError):
        decode_task(corrupted(start="2", end="1"))
    with pytest.raises(ProtocolError):
        decode_task(corrupted(threads=0))
    with pytest.raises(ProtocolError):
        decode_task(corrupted(threads=True))
    with pytest.raises(ProtocolError):
        decode_task(corrupted(matrix=[[0, 1], [1, 0]]))  # n mismatch
    with pytest.raises(ProtocolError):
        decode_task(corrupted(n=1))


def test_result_field_validation():
    good = json.loads(result_message(SolveResult(7, (0, 1, 2, 0), 2)))

    def corrupted(**changes):
        msg = dict(good)
        msg.update(changes)
        return msg

    with pytest.raises(ProtocolError):
        decode_result(corrupted(cost="7"))
    with pytest.raises(ProtocolError):
        decode_result(corrupted(cost=-1))
    with pytest.raises(ProtocolError):
        decode_result(corrupted(path="0,1,2,0"))
    with pytest.raises(ProtocolError):
        decode_result(corrupted(evaluated=2))


#: Longer than the 4,300 digits that int() converts by default.
HUGE_DIGITS = "9" * 5000
#: Deeper than the JSON decoder's recursion limit.
DEEP_NESTING = "[" * 100_000


@pytest.mark.parametrize(
    "line",
    [
        f'{{"v":1,"type":"result","cost":{HUGE_DIGITS}}}\n',
        DEEP_NESTING + "\n",
        '{"v":1,"type":["result"]}\n',
    ],
    ids=["oversized-integer", "deep-nesting", "list-type"],
)
def test_unusual_json_is_protocol_error(line):
    with pytest.raises(ProtocolError):
        parse_message(line)


@pytest.mark.parametrize(
    "line, key",
    [
        (result_message(SolveResult(3, (0, 1, 0), 1)), "evaluated"),
        (task_message(ROWS, WorkRange(0, 2), 1), "start"),
        (task_message(ROWS, WorkRange(0, 2), 1), "end"),
    ],
    ids=["result-evaluated", "task-start", "task-end"],
)
def test_oversized_index_is_protocol_error(line, key):
    msg = parse_message(line)
    msg[key] = HUGE_DIGITS
    decode = decode_result if msg["type"] == "result" else decode_task
    with pytest.raises(ProtocolError, match=f"field '{key}'"):
        decode(msg)
