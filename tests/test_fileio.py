import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrsim import WorkloadError, validate_workload
from rrsim.fileio import CSV, CSV_HEADER, JSON, ParseError, parse_workload, serialize_workload
from rrsim.workloads import benchmark_case

CASE_I_CSV = (
    "pid,arrival_ms,burst_ms\n"
    "P1,0,40\nP2,0,55\nP3,0,60\nP4,0,90\nP5,0,102\n"
)


def test_parse_csv_case_i():
    w = parse_workload(CASE_I_CSV.encode(), CSV)
    assert w.processes == benchmark_case("I").processes


def test_parse_csv_accepts_crlf_and_str_input():
    w = parse_workload(CASE_I_CSV.replace("\n", "\r\n"), CSV)
    assert w.processes == benchmark_case("I").processes


def test_header_only_csv_is_empty_workload():
    with pytest.raises(WorkloadError, match="^workload contains no processes$"):
        parse_workload(b"pid,arrival_ms,burst_ms\n", CSV)


def test_csv_bad_integer_names_line():
    with pytest.raises(ParseError) as exc:
        parse_workload(b"pid,arrival_ms,burst_ms\nP1,0,abc\n", CSV)
    assert exc.value.line == 2
    # int() alone would take each of these: only '-' and ASCII digits are a time
    for bad in ("1_0", "+5", "\u0663"):
        row = f"P2,{bad},3"
        with pytest.raises(ParseError, match=re.escape(f"non-integer time in {row!r}")) as exc:
            parse_workload(f"pid,arrival_ms,burst_ms\nP1,0,4\n{row}\n".encode(), CSV)
        assert exc.value.line == 3


def test_csv_wrong_field_count_names_line():
    with pytest.raises(ParseError) as exc:
        parse_workload(b"pid,arrival_ms,burst_ms\nP1,0,4\nP2,1\n", CSV)
    assert exc.value.line == 3


def test_csv_requires_exact_header():
    with pytest.raises(ParseError) as exc:
        parse_workload(b"pid,arrival,burst\nP1,0,4\n", CSV)
    assert exc.value.line == 1


def test_csv_validation_errors_propagate():
    with pytest.raises(WorkloadError, match="^duplicate pid 'P1'$"):
        parse_workload(b"pid,arrival_ms,burst_ms\nP1,0,4\nP1,0,5\n", CSV)


def test_csv_round_trip_is_byte_stable():
    messy = "pid,arrival_ms,burst_ms\r\nP1, 0, 40\r\nP2,0,55\n\n"
    once = serialize_workload(parse_workload(messy, CSV), CSV)
    twice = serialize_workload(parse_workload(once, CSV), CSV)
    assert once == twice
    assert once == b"pid,arrival_ms,burst_ms\nP1,0,40\nP2,0,55\n"


def test_json_round_trip_preserves_label():
    w = benchmark_case("IV")
    data = serialize_workload(w, JSON)
    back = parse_workload(data, JSON)
    assert back == w
    assert back.label == "case IV"
    assert serialize_workload(back, JSON) == data


def test_parse_json_shape_errors():
    with pytest.raises(ParseError):
        parse_workload(b"[1,2,3]", JSON)
    with pytest.raises(ParseError):
        parse_workload(b'{"processes": [{"pid": "P1"}]}', JSON)
    with pytest.raises(ParseError) as exc:
        parse_workload(b'{"processes": [}', JSON)
    assert exc.value.line == 1


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        parse_workload(b"", "xml")
    with pytest.raises(ValueError):
        serialize_workload(benchmark_case("I"), "xml")


@pytest.mark.parametrize("arrival,burst", [
    (1.7, 5), (1, True), ("1", 5), (0, 5.0), (None, 5),
], ids=["float", "bool", "string", "integral-float", "null"])
def test_json_times_must_be_real_integers(arrival, burst):
    data = json.dumps({"processes": [{"pid": "P1", "arrival_ms": arrival,
                                      "burst_ms": burst}]})
    with pytest.raises(ParseError) as exc:
        parse_workload(data, JSON)
    assert "process #1" in str(exc.value)


@pytest.mark.parametrize("pid", [None, 5, ["a"], True, {"p": 1}],
                         ids=["null", "integer", "array", "bool", "object"])
def test_json_pid_must_be_a_string(pid):
    data = json.dumps({"processes": [
        {"pid": "P1", "arrival_ms": 0, "burst_ms": 5},
        {"pid": pid, "arrival_ms": 0, "burst_ms": 5}]})
    with pytest.raises(ParseError) as exc:
        parse_workload(data, JSON)
    assert "process #2" in str(exc.value)


@pytest.mark.parametrize("label", [None, 5, ["a"]], ids=["null", "integer", "array"])
def test_json_label_must_be_a_string(label):
    data = json.dumps({"label": label, "processes": [
        {"pid": "P1", "arrival_ms": 0, "burst_ms": 5}]})
    with pytest.raises(ParseError) as exc:
        parse_workload(data, JSON)
    assert "label" in str(exc.value)


def test_json_label_may_be_omitted():
    data = json.dumps({"processes": [{"pid": "P1", "arrival_ms": 0, "burst_ms": 5}]})
    assert parse_workload(data, JSON, label="from caller").label == "from caller"
    # a label with no UTF-8 form, as Path.stem gives a file name's undecodable byte
    with pytest.raises(WorkloadError) as exc:
        parse_workload(data, JSON, label="bad\udcff")
    assert str(exc.value) == "label 'bad\\udcff' holds a lone surrogate"


def test_utf8_bom_is_accepted():
    bom = b"\xef\xbb\xbf"
    w = parse_workload(bom + CASE_I_CSV.encode(), CSV)
    assert w.processes == benchmark_case("I").processes
    data = serialize_workload(benchmark_case("IV"), JSON)
    assert parse_workload(bom + data, JSON) == benchmark_case("IV")


@pytest.mark.parametrize("data", [
    b'{"processes": [{"pid": "P1", "arrival_ms": 0, "burst_ms": ' + b"9" * 5000 + b"}]}",
    b"[" * 200_000,
], ids=["5000-digit-integer", "deep-nesting"])
def test_undecodable_json_is_a_parse_error(data):
    with pytest.raises(ParseError, match="invalid JSON"):
        parse_workload(data, JSON)


@pytest.mark.parametrize("payload, message", [
    ('{"processes": [{"pid": "\\ud800", "arrival_ms": 0, "burst_ms": 1}]}',
     "pid '\\ud800' holds a lone surrogate"),
    ('{"label": "\\udfff", "processes": [{"pid": "P1", "arrival_ms": 0, "burst_ms": 1}]}',
     "label '\\udfff' holds a lone surrogate"),
], ids=["pid", "label"])
def test_json_lone_surrogate_is_a_parse_error(payload, message):
    # json.loads turns the escape into a str that no UTF-8 output can hold,
    # and the model rejects it as it rejects one built in memory
    with pytest.raises(WorkloadError) as exc:
        parse_workload(payload.encode(), JSON)
    assert str(exc.value) == message


# Raw bytes, plus records of valid and invalid fields in each format, so
# that some inputs parse and the rest fail in the parser or the model.
def _records(pids, times):
    field = st.sampled_from
    return st.lists(st.tuples(field(pids), field(times), field(times)), max_size=3)


_near_csv = st.builds(
    lambda records, eol: (CSV_HEADER + eol + "".join(",".join(r) + eol for r in records)).encode(),
    _records(["P1", "P2", "P3", " P4 ", "\u00e9", "a b", ""],
             ["0", "1", "2", " 7", "40", "-1", "x"]),
    st.sampled_from(["\n", "\r\n"]))
_near_json = _records(['"P1"', '"P2"', '"P3"', '"\\u00e9"', '"\\ud800"', '" P4"', "7"],
                      ["0", "1", "2", "7", "40", "-1", "1.5", "true"]).map(
    lambda records: ('{"label": "x", "processes": [%s]}' % ", ".join(
        '{"pid": %s, "arrival_ms": %s, "burst_ms": %s}' % r for r in records)).encode())


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.binary(max_size=80), _near_csv, _near_json))
def test_any_bytes_parse_or_raise_a_workload_error_and_round_trip(data):
    for fmt in (CSV, JSON):
        try:
            workload = parse_workload(data, fmt)
        except (ParseError, WorkloadError):
            continue
        for out in (CSV, JSON):
            again = parse_workload(serialize_workload(workload, out), out)
            assert again.processes == workload.processes


# Records built in memory, not parsed from bytes.  The pid alphabet mixes
# what CSV cannot carry (comma, line breaks, edge whitespace) with what no
# UTF-8 file can carry (lone surrogates), which the label alphabet holds too.
_pid_chars = st.one_of(st.sampled_from("P1 ,\r\n\t\x85\u2028\u00e9\ud800\udfff"),
                       st.characters())
_built = st.tuples(
    st.lists(st.tuples(st.text(_pid_chars, min_size=1, max_size=4),
                       st.integers(0, 10**6), st.integers(1, 10**6)), min_size=1, max_size=4),
    st.text(st.one_of(st.sampled_from("\u00e9\udcff\ud800"), st.characters()), max_size=5))


@settings(max_examples=200, deadline=None)
@given(_built)
def test_every_valid_workload_round_trips_through_both_formats(built):
    records, label = built
    try:
        workload = validate_workload(records, label)
    except WorkloadError:
        return
    # CSV has no label, so the caller supplies it
    assert parse_workload(serialize_workload(workload, CSV), CSV, label=label) == workload
    assert parse_workload(serialize_workload(workload, JSON), JSON) == workload
