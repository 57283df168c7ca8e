import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tspbench.core import SolveResult
from tspbench.errors import ProtocolError
from tspbench.permutation import WorkRange
from tspbench.protocol import (
    PROTOCOL_VERSION,
    _encode,
    _loads,
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


# --- the codec is json's own -------------------------------------------------

#: Any text: non-ASCII, control characters and lone surrogates included.
ANY_TEXT = st.text(st.characters(exclude_categories=()))


def as_json_dumps(payload) -> str:
    return json.dumps(payload, separators=(",", ":")) + "\n"


@settings(max_examples=200)
@given(
    rows=st.lists(st.lists(st.integers(0, 10**9), min_size=2, max_size=5), min_size=2, max_size=5),
    start=st.integers(0, 2**80),
    count=st.integers(0, 2**80),
    threads=st.integers(1, 64),
    cost=st.integers(0, 34 * 10**9),
    text=ANY_TEXT,
)
def test_encoding_is_json_dumps_for_every_message_kind(rows, start, count, threads, cost, text):
    task = task_message(rows, WorkRange(start, start + count), threads)
    result = result_message(SolveResult(cost, tuple(range(len(rows))) + (0,), count))
    error = error_message(text)
    assert task == as_json_dumps({
        "v": 1, "type": "task", "n": len(rows), "matrix": rows,
        "start": str(start), "end": str(start + count), "threads": threads,
    })
    assert result == as_json_dumps({
        "v": 1, "type": "result", "cost": cost, "path": [*range(len(rows)), 0],
        "evaluated": str(count),
    })
    assert error == as_json_dumps({"v": 1, "type": "error", "message": text})
    assert shutdown_message() == as_json_dumps({"v": 1, "type": "shutdown"})
    assert parse_message(error)["message"] == text


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | ANY_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(ANY_TEXT, inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=200)
@given(JSON_VALUES)
@example({"x": [float("nan"), float("inf"), -float("inf"), -0.0, 1e300], "\ud800": "\x00é"})
def test_any_json_value_encodes_as_json_dumps(value):
    assert _encode(value) == as_json_dumps(value)


def test_unserializable_value_is_json_dumps_type_error():
    with pytest.raises(TypeError, match="^Object of type set is not JSON serializable$"):
        _encode({"x": {1}})


def assert_decodes_as_json_loads(line: str) -> None:
    """Either both decoders give the same value (same repr, so 1, 1.0,
    True and NaN stay apart), or both reject the line with the same error
    text and parse_message rejects it as a malformed line."""
    try:
        expected = repr(json.loads(line))
    except (ValueError, RecursionError) as exc:
        with pytest.raises((ValueError, RecursionError)) as rejected:
            _loads(line)
        assert str(rejected.value) == str(exc)
        with pytest.raises(ProtocolError, match="^malformed message line: "):
            parse_message(line)
        return
    assert repr(_loads(line)) == expected


VALID_LINE = '{"v":1,"type":"result","cost":7,"path":[0,1,2,0],"evaluated":"2"}'

HOSTILE_LINES = [
    "", " ", " \t\r\n", "\n", "\x0c", "\u00a0{}", "\x00",
    "\ufeff", "\ufeff{}", "\ufeff" + VALID_LINE,
    "[" * 100_000, "{" * 100_000, '{"a":' * 100_000,
    "9" * 5000, '{"v":1,"type":"result","cost":%s}' % ("9" * 5000), "1e400", "-0", "01", "1.",
    "NaN", "-Infinity", "Infinity", "-NaN", "nan", '{"v":1,"type":"result","cost":NaN}',
    "{} {}", "{}x", "{}\n\n", "{}\x0c", " {} \t", VALID_LINE + VALID_LINE, VALID_LINE + "\n",
    '"\x01"', '"\\u0000"', '"\\ud800"', '"\\ud800\\udc00"', '"\\x"', '"\ud800"',
    '{"a":1,"a":2}', "[1,]", '{"a":1,}', '{"a"}', '{"a" 1}', "tru", "true", "null", '{ "v" : 1 }',
    VALID_LINE[:-1], VALID_LINE[:20],
]


@pytest.mark.parametrize("line", HOSTILE_LINES, ids=range(len(HOSTILE_LINES)))
def test_hostile_line_decodes_as_json_loads(line):
    assert_decodes_as_json_loads(line)


#: Text near JSON: its structural characters, digits, keywords and escapes.
NEAR_JSON = st.lists(st.sampled_from(list(' \t\n\r{}[]":,0123456789.eE+-\\/u') + [
    "true", "false", "null", "NaN", "Infinity", "\\ud800", "\ufeff", "\x00", "\u00e9",
])).map("".join)


@settings(max_examples=300)
@given(st.one_of(
    ANY_TEXT,
    NEAR_JSON,
    st.tuples(JSON_VALUES.map(json.dumps), st.integers(0, 100), NEAR_JSON).map(
        lambda t: t[0][: t[1]] + t[2]  # a valid line cut short or followed by more
    ),
))
def test_any_line_decodes_as_json_loads(line):
    assert_decodes_as_json_loads(line)
