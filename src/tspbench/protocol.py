"""Line-delimited JSON wire protocol between coordinator and workers.

One message per line, UTF-8, compact encoding.  Every message embeds
the protocol version as ``"v"`` and receivers reject other versions.
Permutation indices travel as decimal strings because they may exceed
64 bits.  Errors quote a received value through reprlib, which shortens
it, so a hostile line cannot make a long error.
"""

from __future__ import annotations

import json
import reprlib
from dataclasses import dataclass

from .core import SolveResult
from .errors import ProtocolError
from .permutation import WorkRange

PROTOCOL_VERSION = 1

#: A tuple, not a set: a list or object "type" is unknown, not a TypeError.
_MESSAGE_TYPES = ("task", "result", "error", "shutdown")


@dataclass(frozen=True)
class Task:
    """A decoded task message: the full instance plus the assigned
    index range and the size of the worker's local team."""

    n: int
    matrix: tuple[tuple[int, ...], ...]
    start: int
    end: int
    threads: int


def _encode(payload: dict) -> str:
    return json.dumps(payload, separators=(",", ":")) + "\n"


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
        msg = json.loads(line)
    except (ValueError, RecursionError) as exc:  # also too many digits, or too deep
        raise ProtocolError(f"malformed message line: {exc}") from None
    if not isinstance(msg, dict):
        raise ProtocolError(f"message is not an object: {reprlib.repr(line.strip())}")
    version = msg.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported protocol version {reprlib.repr(version)}")
    mtype = msg.get("type")
    if mtype not in _MESSAGE_TYPES:
        raise ProtocolError(f"unknown message type {reprlib.repr(mtype)}")
    return msg


def _require_int(msg: dict, key: str, minimum: int) -> int:
    value = msg.get(key)
    if type(value) is not int or value < minimum:
        raise ProtocolError(
            f"field {key!r} must be an integer >= {minimum}, got {reprlib.repr(value)}"
        )
    return value


def _require_index(msg: dict, key: str) -> int:
    value = msg.get(key)
    try:
        if isinstance(value, str) and value.isascii() and value.isdigit():
            return int(value)
    except ValueError:  # more digits than int() converts
        pass
    raise ProtocolError(f"field {key!r} must be a decimal string, got {reprlib.repr(value)}")


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
        raise ProtocolError(f"field 'path' must be a list of integers, got {reprlib.repr(path)}")
    evaluated = _require_index(msg, "evaluated")
    return SolveResult(cost, tuple(path), evaluated)
