"""Workload file formats: CSV and JSON.

CSV uses the fixed header ``pid,arrival_ms,burst_ms`` (UTF-8 with or
without a BOM, LF or CRLF).  JSON is an object with an optional string
``label`` and a ``processes`` array of objects with the string ``pid`` and
the integers ``arrival_ms`` and ``burst_ms``.  Serialization is
normalized, so parse/serialize round trips are byte-stable.

A JSON array, and a CSV file whose rows are all three fields with
well-formed times, are read into the workload's pid, arrival and burst
columns, not one record per row; the CSV is split column by column in C.
``model._validate_columns``, the one workload check, then builds no
record.  A CSV file with a malformed line builds nothing: it is read line
by line only to name the first such line in a ``ParseError``, which thus
comes before any error of the workload check.
"""
from __future__ import annotations

import json
from itertools import repeat

from .model import Workload, _validate_columns, decimal_int

CSV_HEADER = "pid,arrival_ms,burst_ms"
CSV = "csv"
JSON = "json"

_escape = json.encoder.encode_basestring_ascii  # json.dumps quotes every str with it


def _json_row_template(keys) -> str:
    """A ``%`` template, one ``%s`` per key, for an object in a list that is
    a top-level value of ``json.dumps(…, indent=2)``."""
    return "    {\n" + ",\n".join(f"      {_escape(k)}: %s" for k in keys) + "\n    }"


def _scalar(value) -> str:
    """A str, an int, a float or None as json writes it."""
    if isinstance(value, str):
        return _escape(value)
    return "null" if value is None else repr(value)


def _column(values):
    """One field of every row, as ``%s`` must get it to write json's text;
    the C escaper alone quotes an all-str column, and ints need nothing."""
    kinds = set(map(type, values))
    if kinds <= {int}:
        return values
    return map(_escape if kinds == {str} else _scalar, values)


def _indented_json(fields: dict, row_template: str) -> str:
    """``json.dumps(fields, indent=2) + "\\n"``, byte for byte.

    ``indent`` makes json fall back to its pure-Python encoder; this writes
    the same text with the C string escaper, ``str`` for ints and ``repr``
    for floats.  A value is a str, an int, a float, None, a dict of ints, a
    list or tuple of ints, or a table: an iterator over its columns, each a
    list or tuple of strs, ints, floats and None, whose rows are written by
    ``row_template``.  A table is never handed over as rows.
    """
    lines = []
    for key, value in fields.items():
        if isinstance(value, (str, int, float)) or value is None:
            text = _scalar(value)
        elif isinstance(value, dict):
            items = [f"    {_escape(k)}: {v}" for k, v in value.items()]
            text = "{\n" + ",\n".join(items) + "\n  }" if items else "{}"
        elif isinstance(value, (list, tuple)):
            text = "[\n    " + ",\n    ".join(map(str, value)) + "\n  ]" if value else "[]"
        else:  # a table
            rows = [row_template % row for row in zip(*map(_column, value))]
            text = "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"
        lines.append(f"  {_escape(key)}: {text}")
    return "{\n" + ",\n".join(lines) + "\n}\n"


class ParseError(ValueError):
    """A workload file is malformed; carries the offending line."""

    def __init__(self, message: str, line: int | None = None):
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")
        self.line = line


def _decode(data: bytes | str) -> str:
    if isinstance(data, bytes):
        try:
            return data.decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not valid UTF-8: {exc}") from None
    return data


def _string(value, what: str) -> str:
    if not isinstance(value, str):
        raise ParseError(f"{what} must be a string")
    return value


def _parse_csv(text: str, label: str) -> Workload:
    lines = text.replace("\r\n", "\n").split("\n")
    if not lines or lines[0].strip() != CSV_HEADER:
        raise ParseError(f"expected header {CSV_HEADER!r}", line=1)
    # Column by column, in C: the rows that are not blank, their fields
    # stripped.  Stripping a row before it is split leaves each field as
    # stripping it alone would.
    rows = list(filter(None, map(str.strip, lines[1:])))
    fields = list(map(str.strip, ",".join(rows).split(",")))
    arrival, burst = fields[1::3], fields[2::3]
    times = "".join(arrival) + "".join(burst)
    # int() of ASCII text with no "+" or "_" reads only "-" and digits
    if (set(map(str.count, rows, repeat(","))) == {2} and times.isascii()
            and "+" not in times and "_" not in times):
        try:
            arrival, burst = list(map(int, arrival)), list(map(int, burst))
        except ValueError:  # a field int() does not read: the line loop words it
            pass
        else:
            return _validate_columns(fields[0::3], arrival, burst, label)
    # a malformed row: read line by line, so the first one is the one named
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 3:
            raise ParseError(f"expected 3 fields, got {len(fields)}", line=lineno)
        try:
            decimal_int(fields[1]), decimal_int(fields[2])
        except ValueError:
            raise ParseError(f"non-integer time in {line!r}", line=lineno) from None
    return _validate_columns([], [], [], label)  # every line is blank


def _parse_json(text: str, label: str) -> Workload:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from None
    except (ValueError, RecursionError) as exc:  # an over-long integer, or too deep
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(payload, dict) or "processes" not in payload:
        raise ParseError("expected an object with a 'processes' array")
    procs = payload["processes"]
    if not isinstance(procs, list):
        raise ParseError("'processes' must be an array")
    pids, arrivals, bursts = [], [], []
    for i, item in enumerate(procs):
        if not isinstance(item, dict):
            raise ParseError(f"process #{i + 1} is not an object")
        try:
            pid, arrival, burst = item["pid"], item["arrival_ms"], item["burst_ms"]
        except KeyError as exc:
            raise ParseError(f"process #{i + 1}: {exc!r}") from None
        pid = _string(pid, f"process #{i + 1}: pid")
        if type(arrival) is not int or type(burst) is not int:
            raise ParseError(f"process #{i + 1}: arrival_ms and burst_ms must be integers")
        pids.append(pid)
        arrivals.append(arrival)
        bursts.append(burst)
    if "label" in payload:
        label = _string(payload["label"], "'label'")
    return _validate_columns(pids, arrivals, bursts, label)


def parse_workload(data: bytes | str, format: str = CSV, label: str = "") -> Workload:
    """Parse workload bytes in the given format.

    Raises ParseError for malformed input and WorkloadError for a
    workload that fails ``Workload``'s check.
    """
    text = _decode(data)
    if format == CSV:
        return _parse_csv(text, label)
    if format == JSON:
        return _parse_json(text, label)
    raise ValueError(f"unknown workload format {format!r}")


_WORKLOAD_ROW = _json_row_template(("pid", "arrival_ms", "burst_ms"))


def serialize_workload(workload: Workload, format: str = CSV) -> bytes:
    """Render a workload to normalized CSV or JSON bytes.

    CSV carries only the process records (the label is not representable
    there); JSON round-trips the label too.
    """
    if format == CSV:
        rows = map("%s,%s,%s\n".__mod__, zip(*workload.columns))
        return (CSV_HEADER + "\n" + "".join(rows)).encode()
    if format == JSON:
        return _indented_json({"label": workload.label, "processes": iter(workload.columns)},
                              _WORKLOAD_ROW).encode()
    raise ValueError(f"unknown workload format {format!r}")
