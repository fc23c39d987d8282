"""Reference workload parsing: the CSV and JSON parsers and the record and
workload checks as they were before parsing built columns.

The parsers are kept verbatim.  They build one ``(pid, arrival, burst)``
record per row and hand the list to the per-record check, which raises
on the first invalid record; the workload check then rejects a
non-``str`` label, a label with no UTF-8 form, an empty workload and a
duplicate pid, in that order.  The two checks are copied as functions
that return plain tuples, so ``parse_workload`` returns
``(records, label)``.  The differential tests in ``test_fileio.py``
require ``rrsim.fileio.parse_workload`` to give equal processes and
label, or to raise the same exception type with the same message.
Nothing under ``src/`` imports this module.
"""
from __future__ import annotations

import json

from rrsim.fileio import CSV, CSV_HEADER, JSON, ParseError
from rrsim.model import WorkloadError


def decimal_int(text: str) -> int:
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def _check_utf8(text: str, what: str) -> None:
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise WorkloadError(f"{what} {text!r} holds a lone surrogate") from None


def _process_spec(pid, arrival, burst):
    if not isinstance(pid, str) or type(arrival) is not int or type(burst) is not int:
        raise WorkloadError(f"record {(pid, arrival, burst)!r} needs a "
                            f"str pid and int times")
    if not pid:
        raise WorkloadError(f"empty pid in record {(pid, arrival, burst)!r}")
    if pid != pid.strip() or "," in pid or "\r" in pid or "\n" in pid:
        raise WorkloadError(f"pid {pid!r} has a comma, a line break or "
                            f"edge whitespace, so it cannot round-trip through CSV")
    _check_utf8(pid, "pid")
    if arrival < 0:
        raise WorkloadError(f"process {pid!r} has negative arrival {arrival}")
    if burst < 1:
        raise WorkloadError(f"process {pid!r} has non-positive burst {burst}")
    return (pid, arrival, burst)


def validate_workload(records, label: str = ""):
    procs = tuple(_process_spec(pid, arrival, burst) for pid, arrival, burst in records)
    if not isinstance(label, str):
        raise WorkloadError("a Workload needs a tuple of ProcessSpec and a str label")
    _check_utf8(label, "label")
    if not procs:
        raise WorkloadError("workload contains no processes")
    seen = set()
    for proc in procs:
        if proc[0] in seen:
            raise WorkloadError(f"duplicate pid {proc[0]!r}")
        seen.add(proc[0])
    return procs, label


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


def _parse_csv(text: str, label: str):
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


def _parse_json(text: str, label: str):
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from None
    except (ValueError, RecursionError) as exc:
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


def parse_workload(data: bytes | str, format: str = CSV, label: str = ""):
    text = _decode(data)
    if format == CSV:
        return _parse_csv(text, label)
    if format == JSON:
        return _parse_json(text, label)
    raise ValueError(f"unknown workload format {format!r}")
