"""Line-delimited JSON wire protocol between coordinator and workers.

One message per line, UTF-8, compact encoding.  Every message embeds
the protocol version as ``"v"`` and receivers reject other versions.
Permutation indices travel as decimal strings because they may exceed
64 bits.  An error quotes a received value by errors.quoted, whose
reprlib shortens it, so a hostile line cannot make a long error.

Both ends encode and decode with CPython's ``_json``, the C accelerator
that the ``json`` package loads, configured exactly as ``json.dumps(...,
separators=(",", ":"))`` and ``json.loads`` configure it, and a rejected
line goes to ``json.loads`` itself.  So the bytes, the accepted lines and
the error texts are json's own, but a worker skips importing ``json`` and
the ``re`` and ``enum`` it pulls in.
"""

import _json

from .core import SolveResult
from .errors import ProtocolError, quoted, record
from .permutation import WorkRange

PROTOCOL_VERSION = 1

#: A tuple, not a set: a list or object "type" is unknown, not a TypeError.
_MESSAGE_TYPES = ("task", "result", "error", "shutdown")


#: A decoded task message: the full instance plus the assigned index
#: range and the size of the worker's local team.
Task = record("Task", "n matrix start end threads")


#: What json.loads skips around a value; any other trailing text is an error.
_WHITESPACE = " \t\n\r"


class _DecoderConfig:
    """The settings json.JSONDecoder() hands to the scanner."""

    strict = True
    object_hook = object_pairs_hook = None
    parse_float, parse_int = float, int
    parse_constant = {
        "-Infinity": float("-inf"), "Infinity": float("inf"), "NaN": float("nan")
    }.__getitem__


_scan_once = _json.make_scanner(_DecoderConfig)


def _unserializable(value):
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _encode(payload: dict) -> str:
    # json.dumps(payload, separators=(",", ":")): a fresh circular-reference
    # memo, ASCII-only strings, NaN and the infinities allowed
    encode = _json.make_encoder({}, _unserializable, _json.encode_basestring_ascii, None,
                                ":", ",", False, False, True)
    return "".join(encode(payload, 0)) + "\n"


def _loads(line: str):
    """json.loads(line).  The scanner takes a line that is one value with
    only whitespace around it; json.loads itself rejects any other line,
    so only a rejected line pays for importing json."""
    start = len(line) - len(line.lstrip(_WHITESPACE))
    try:
        value, end = _scan_once(line, start)
        if not line[end:].lstrip(_WHITESPACE):
            return value
    except (StopIteration, SystemError):
        # No value at start, or a syntax error in one, which CPython 3.11's
        # scanner raises as SystemError until json.decoder is imported.
        pass
    import json

    return json.loads(line)


def task_message(matrix_rows, work: WorkRange, threads: int) -> str:
    return _encode(
        {
            "v": PROTOCOL_VERSION,
            "type": "task",
            "n": len(matrix_rows),
            "matrix": [list(row) for row in matrix_rows],
            "start": str(work.start),
            "end": str(work.end),
            "threads": threads,
        }
    )


def result_message(result: SolveResult) -> str:
    return _encode(
        {
            "v": PROTOCOL_VERSION,
            "type": "result",
            "cost": result.optimal_cost,
            "path": list(result.optimal_path),
            "evaluated": str(result.evaluated),
        }
    )


def error_message(text: str) -> str:
    return _encode({"v": PROTOCOL_VERSION, "type": "error", "message": str(text)})


def shutdown_message() -> str:
    return _encode({"v": PROTOCOL_VERSION, "type": "shutdown"})


def parse_message(line: str) -> dict:
    """Parse one protocol line into a dict, enforcing the envelope:
    a JSON object with a supported version and a known type."""
    try:
        msg = _loads(line)
    except (ValueError, RecursionError) as exc:  # also too many digits, or too deep
        raise ProtocolError(f"malformed message line: {exc}") from None
    if not isinstance(msg, dict):
        raise ProtocolError(f"message is not an object: {quoted(line.strip())}")
    version = msg.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported protocol version {quoted(version)}")
    mtype = msg.get("type")
    if mtype not in _MESSAGE_TYPES:
        raise ProtocolError(f"unknown message type {quoted(mtype)}")
    return msg


def _require_int(msg: dict, key: str, minimum: int) -> int:
    value = msg.get(key)
    if type(value) is not int or value < minimum:
        raise ProtocolError(
            f"field {key!r} must be an integer >= {minimum}, got {quoted(value)}"
        )
    return value


def _require_index(msg: dict, key: str) -> int:
    value = msg.get(key)
    try:
        if isinstance(value, str) and value.isascii() and value.isdigit():
            return int(value)
    except ValueError:  # more digits than int() converts
        pass
    raise ProtocolError(f"field {key!r} must be a decimal string, got {quoted(value)}")


def decode_task(msg: dict) -> Task:
    n = _require_int(msg, "n", 2)
    matrix = msg.get("matrix")
    if not isinstance(matrix, list) or len(matrix) != n:
        raise ProtocolError(f"field 'matrix' must be a list of {n} rows")
    start = _require_index(msg, "start")
    end = _require_index(msg, "end")
    if end < start:
        raise ProtocolError(f"task range [{start}, {end}) is inverted")
    threads = _require_int(msg, "threads", 1)
    rows = []
    for row in matrix:
        if not isinstance(row, list):
            raise ProtocolError("field 'matrix' must be a list of rows (lists)")
        rows.append(tuple(row))
    return Task(n=n, matrix=tuple(rows), start=start, end=end, threads=threads)


def decode_result(msg: dict) -> SolveResult:
    cost = _require_int(msg, "cost", 0)
    path = msg.get("path")
    if not isinstance(path, list) or any(type(c) is not int for c in path):
        raise ProtocolError(f"field 'path' must be a list of integers, got {quoted(path)}")
    evaluated = _require_index(msg, "evaluated")
    return SolveResult(cost, tuple(path), evaluated)
