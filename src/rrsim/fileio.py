"""Workload file formats: CSV and JSON.

CSV uses the fixed header ``pid,arrival_ms,burst_ms`` (UTF-8 with or
without a BOM, LF or CRLF).  JSON is an object with an optional string
``label`` and a ``processes`` array of objects with the string ``pid`` and
the integers ``arrival_ms`` and ``burst_ms``.  Serialization is
normalized, so parse/serialize round trips are byte-stable.
"""
from __future__ import annotations

import json

from .model import Workload, decimal_int, validate_workload

CSV_HEADER = "pid,arrival_ms,burst_ms"
CSV = "csv"
JSON = "json"

_escape = json.encoder.encode_basestring_ascii  # json.dumps quotes every str with it


def _json_row_template(keys) -> str:
    """A ``%`` template, one ``%s`` per key, for an object in a list that is
    a top-level value of ``json.dumps(…, indent=2)``."""
    return "    {\n" + ",\n".join(f"      {_escape(k)}: %s" for k in keys) + "\n    }"


def _indented_json(fields: dict, row_template: str) -> str:
    """``json.dumps(fields, indent=2) + "\\n"``, byte for byte.

    ``indent`` makes json fall back to its pure-Python encoder; this writes
    the same text with the C string escaper, ``str`` for ints and ``repr``
    for floats.  A value is a str, an int, a float, a list of ints, or a
    list of rows written by ``row_template``: tuples of a str, then ints.
    """
    lines = []
    for key, value in fields.items():
        if isinstance(value, str):
            text = _escape(value)
        elif isinstance(value, float):
            text = repr(value)
        elif not isinstance(value, (list, tuple)):
            text = str(value)
        elif not value:
            text = "[]"
        elif isinstance(value[0], tuple):
            rows = [row_template % ((_escape(row[0]),) + row[1:]) for row in value]
            text = "[\n" + ",\n".join(rows) + "\n  ]"
        else:
            text = "[\n    " + ",\n    ".join(map(str, value)) + "\n  ]"
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
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 3:
            raise ParseError(f"expected 3 fields, got {len(fields)}", line=lineno)
        pid, arrival_text, burst_text = fields
        try:
            arrival, burst = decimal_int(arrival_text), decimal_int(burst_text)
        except ValueError:
            raise ParseError(f"non-integer time in {line!r}", line=lineno) from None
        records.append((pid, arrival, burst))
    return validate_workload(records, label=label)


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
    records = []
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
        records.append((pid, arrival, burst))
    if "label" in payload:
        label = _string(payload["label"], "'label'")
    return validate_workload(records, label=label)


def parse_workload(data: bytes | str, format: str = CSV, label: str = "") -> Workload:
    """Parse workload bytes in the given format.

    Raises ParseError for malformed input and the validate_workload
    errors for structurally invalid records.
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
        lines = [CSV_HEADER]
        lines.extend(f"{p.pid},{p.arrival},{p.burst}" for p in workload.processes)
        return ("\n".join(lines) + "\n").encode("utf-8")
    if format == JSON:
        rows = [(p.pid, p.arrival, p.burst) for p in workload.processes]
        return _indented_json({"label": workload.label, "processes": rows},
                              _WORKLOAD_ROW).encode()
    raise ValueError(f"unknown workload format {format!r}")
