import collections
import copy
import functools
import importlib
import pickle
import pkgutil

import pytest
import reference_parse
from hypothesis import given, settings
from hypothesis import strategies as st

import rrsim
from rrsim import (
    GeneratorSpec,
    PolicyDescriptor,
    ProcessSpec,
    ReadySnapshot,
    Workload,
    WorkloadError,
    validate_workload,
)
from rrsim.fileio import parse_workload
from rrsim.model import COMPLETED, IdleGap, Slice, _validate_columns

CASE_I_RECORDS = [("P1", 0, 40), ("P2", 0, 55), ("P3", 0, 60),
                  ("P4", 0, 90), ("P5", 0, 102)]


def test_validate_workload_accepts_case_i_records():
    w = validate_workload(CASE_I_RECORDS, label="case I")
    assert len(w) == 5
    assert [p.pid for p in w] == ["P1", "P2", "P3", "P4", "P5"]
    assert [p.burst for p in w] == [40, 55, 60, 90, 102]


def test_validate_workload_preserves_submission_order():
    w = validate_workload([("B", 5, 10), ("A", 0, 10), ("C", 5, 1)])
    assert [p.pid for p in w] == ["B", "A", "C"]


def test_duplicate_pid_rejected():
    with pytest.raises(WorkloadError, match="^duplicate pid 'P1'$"):
        validate_workload([("P1", 0, 10), ("P1", 0, 20)])


def test_zero_burst_rejected():
    with pytest.raises(WorkloadError, match="^process 'P1' has non-positive burst 0$"):
        validate_workload([("P1", 0, 0)])


def test_negative_arrival_rejected():
    with pytest.raises(WorkloadError, match="^process 'P9' has negative arrival -1$"):
        validate_workload([("P9", -1, 5)])


def test_empty_workload_rejected():
    with pytest.raises(WorkloadError, match="^workload contains no processes$"):
        validate_workload([])


def test_validate_workload_idempotent():
    w = validate_workload(CASE_I_RECORDS)
    again = validate_workload((p.pid, p.arrival, p.burst) for p in w)
    assert again.processes == w.processes


def test_process_spec_is_immutable():
    w = validate_workload(CASE_I_RECORDS)
    with pytest.raises(AttributeError):
        w.processes[0].burst = 1
    assert w.processes[0].burst == 40


def test_workload_compares_by_processes_and_label_and_refuses_assignment():
    built = validate_workload(CASE_I_RECORDS, label="case I")
    parsed = parse_workload("pid,arrival_ms,burst_ms\n" + "".join(
        f"{pid},{arrival},{burst}\n" for pid, arrival, burst in CASE_I_RECORDS), label="case I")
    assert parsed == built and hash(parsed) == hash(built) and repr(parsed) == repr(built)
    assert parsed.columns == built.columns == tuple(zip(*CASE_I_RECORDS))
    assert parsed != validate_workload(CASE_I_RECORDS, label="other")
    assert parsed != tuple(CASE_I_RECORDS) and len(parsed) == 5
    for copied in (copy.copy(parsed), copy.deepcopy(parsed), pickle.loads(pickle.dumps(parsed))):
        assert copied == parsed and copied.processes == built.processes
    with pytest.raises(AttributeError):
        parsed.label = "x"
    with pytest.raises(AttributeError):
        del parsed.columns
    assert parsed.label == "case I"


# Each rule a workload can break, as (field, value): a pid that cannot
# round-trip through CSV, is empty or holds a lone surrogate; a negative
# arrival; a non-positive burst; a repeated pid; no records at all; a label
# that is not a str or holds a lone surrogate.
_DEFECTS = ([(0, pid) for pid in [" P", "P ", "\tP", "a,b", "a\rb", "a\nb", "", "P\ud800"]]
            + [(1, -1), (2, 0), (2, -2), ("repeat", None), ("empty", None)]
            + [("label", label) for label in [None, 5, b"x", "bad\udcff", "\ud800"]])


def _break(records, label, defects):
    """``records`` and ``label`` with each (position, (field, value)) defect made."""
    for at, (field, value) in defects:
        if field == "label":
            label = value
        elif field == "empty":
            records.clear()
        elif records and field == "repeat":
            records.insert(at % (len(records) + 1), records[at % len(records)])
        elif records:
            record = list(records[at % len(records)])
            record[field] = value
            records[at % len(records)] = tuple(record)
    return records, label


# A valid workload, or a few records of any pid and time and any label.
_valid = st.tuples(
    st.lists(st.tuples(st.integers(1, 40).map("P{}".format), st.integers(0, 99),
                       st.integers(1, 99)), min_size=1, max_size=6, unique_by=lambda r: r[0]),
    st.text(max_size=3))
_any = st.tuples(
    st.lists(st.tuples(
        st.text(st.one_of(st.sampled_from("P1 ,\r\n\t\x85\ud800"), st.characters()), max_size=3),
        st.integers(-2, 5), st.integers(-1, 5)), max_size=4),
    st.one_of(st.none(), st.text(st.one_of(st.sampled_from("x\udcff"), st.characters()),
                                 max_size=3)))


def _checked(build):
    """What ``build()`` makes: its records and label, or its error's message."""
    try:
        return build()
    except WorkloadError as exc:
        return str(exc)


def _contents(workload):
    # read the columns, not ``processes``, whose records check themselves again
    return tuple(zip(*workload.columns)), workload.label


@pytest.mark.parametrize("defect", [None, *_DEFECTS],
                         ids=lambda defect: "valid" if defect is None else f"{defect[0]}={defect[1]!r}")
@settings(max_examples=30, deadline=None)
@given(st.one_of(_valid, _any), st.integers(0, 6),
       st.lists(st.tuples(st.integers(0, 6), st.sampled_from(_DEFECTS)), max_size=1))
def test_every_workload_entry_point_checks_as_the_reference(defect, drawn, at, others):
    records, label = _break(*drawn, ([(at, defect)] if defect else []) + others)
    pid, arrival, burst = ([record[i] for record in records] for i in range(3))
    expected = _checked(lambda: reference_parse.validate_workload(records, label))
    assert _checked(lambda: _contents(_validate_columns(pid, arrival, burst, label))) == expected
    assert _checked(lambda: _contents(validate_workload(records, label))) == expected
    assert _checked(lambda: _contents(
        Workload(tuple(map(ProcessSpec, pid, arrival, burst)), label))) == expected


@pytest.mark.parametrize("record, field", [
    (Slice("P1", 0, 10, 1, 10, COMPLETED), "end"),
    (IdleGap(10, 20), "start"),
], ids=["Slice", "IdleGap"])
def test_trace_records_are_immutable_named_tuples(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, 1)
    assert record == tuple(record)
    assert record._replace(**{field: 1}) == tuple(
        1 if name == field else value for name, value in zip(record._fields, record))


def test_policy_descriptor_spec_string():
    assert PolicyDescriptor.of("RR", q=25).spec_string() == "rr:q=25"
    assert PolicyDescriptor.of("DABRR").spec_string() == "dabrr"
    assert PolicyDescriptor.of("RR", q=25).parameters == (("q", 25),)
    assert PolicyDescriptor.of("DABRR").parameters == ()


@pytest.mark.parametrize("pid", ["a,b", "a\nb", "a\rb", " P1", "P1 ", "\tP1", " "])
def test_pid_that_cannot_round_trip_through_csv_rejected(pid):
    with pytest.raises(WorkloadError) as exc:
        validate_workload([(pid, 0, 5)])
    assert repr(pid) in str(exc.value)


def test_package_exports_no_submodules():
    import rrsim
    for name in ("engine", "metrics", "model", "policies", "workloads"):
        assert name not in rrsim.__all__
    assert all(hasattr(rrsim, name) for name in rrsim.__all__)
    assert "validate_workload" in rrsim.__all__


def test_public_names_are_pinned():
    # Adding a name to, or removing one from, the package's surface must
    # be deliberate: update this list with the README's API notes.
    import rrsim
    assert sorted(rrsim.__all__) == [
        "ComparisonReport",
        "ExecutionTrace",
        "GeneratorSpec",
        "IdleGap",
        "InconsistentTrace",
        "MismatchedCaseSets",
        "PolicyBehavior",
        "PolicyDescriptor",
        "PolicyPlanInvalid",
        "PolicySpecError",
        "ProcessMetrics",
        "ProcessSpec",
        "ReadySnapshot",
        "RunMetrics",
        "Slice",
        "Workload",
        "WorkloadError",
        "alternating_min_max_order",
        "benchmark_case",
        "compare_runs",
        "compute_metrics",
        "generate_workload",
        "make_dabrr",
        "make_dqrrr",
        "make_irrvq",
        "make_mrr",
        "make_round_robin",
        "make_rp5",
        "make_sarr",
        "mean_quantum",
        "median_quantum",
        "parse_policy_spec",
        "range_quantum",
        "simulate",
        "trace_violations",
        "validate_workload",
    ]
    assert "replay_check" not in rrsim.__all__


@pytest.mark.parametrize("record", [
    ("P1", 1.7, True),
    ("P1", 0, True),
    ("P1", False, 3),
    ("P1", "3", 4),
    ("P1", 0, 5.0),
    ("P1", 0, None),
    (None, 0, 3),
    (5, 0, 1),
    (b"P1", 0, 1),
    ("P1", 0),
    ("P1", 0, 5, 9),
    5,
    None,
])
def test_record_types_are_checked_not_coerced(record):
    with pytest.raises(WorkloadError):
        validate_workload([record])
    with pytest.raises(WorkloadError):  # nor as the whole of the records
        validate_workload(record)


@pytest.mark.parametrize("args", [(5, 0, 1), ("P1", 1.5, 2.5)])
def test_process_spec_checks_types(args):
    with pytest.raises(WorkloadError):
        ProcessSpec(*args)


@pytest.mark.parametrize("processes, label", [
    ([ProcessSpec("P1", 0, 5)], ""),
    ((("P1", 0, 5),), ""),
    ((ProcessSpec("P1", 0, 5),), 5),
    ((ProcessSpec("P1", 0, 5),), None),
], ids=["list-of-specs", "tuple-of-records", "int-label", "none-label"])
def test_workload_checks_its_fields_and_converts_nothing(processes, label):
    with pytest.raises(WorkloadError):
        Workload(processes, label)


def test_validate_workload_rejects_a_non_string_label():
    with pytest.raises(WorkloadError):
        validate_workload([("P1", 0, 5)], label=5)


@pytest.mark.parametrize("build", [
    lambda: ProcessSpec("P1", 0, 5)._replace(burst=-1),
    lambda: ProcessSpec("P1", 0, 5)._replace(pid=" P1"),
    lambda: ProcessSpec._make(("", -3, 0)),
    lambda: ProcessSpec._make(("P1", 0, True)),
], ids=["replace-burst", "replace-pid", "make-empty-pid", "make-bool-burst"])
def test_process_spec_copies_are_checked_like_the_constructor(build):
    with pytest.raises(WorkloadError):
        build()


def test_process_spec_is_a_checked_named_tuple():
    spec = ProcessSpec("P1", 0, 5)
    assert spec == ("P1", 0, 5)
    assert spec._replace(burst=7) == ProcessSpec._make(("P1", 0, 7)) == ("P1", 0, 7)
    assert type(spec._replace(burst=7)) is ProcessSpec
    with pytest.raises(TypeError):
        ProcessSpec._make(("P1", 0))  # the arity check of ``_make`` stays
    with pytest.raises(TypeError):
        vars(spec)


def _built_in_c() -> set:
    """The classes rrsim builds through ``model.record_builder``: the
    ``tuple.__new__`` partials found among every module's globals."""
    built = set()
    for info in pkgutil.iter_modules(rrsim.__path__):
        module = importlib.import_module(f"rrsim.{info.name}")
        built.update(value.args[0] for value in vars(module).values()
                     if isinstance(value, functools.partial) and value.func is tuple.__new__)
    return built


def _checks_nothing(cls) -> bool:
    """Whether building ``cls`` skips no check: it derives from ``tuple``
    directly, and its ``__new__`` and ``_make`` are those ``namedtuple``
    generates, which check only the field count."""
    reference = collections.namedtuple(cls.__name__, cls._fields)
    code, expected = cls.__new__.__code__, reference.__new__.__code__
    return (cls.__mro__ == (cls, tuple, object)
            and (code.co_code, code.co_names, code.co_varnames)
            == (expected.co_code, expected.co_names, expected.co_varnames)
            and cls._make.__func__.__code__ is reference._make.__func__.__code__)


def test_records_built_in_c_define_no_check_of_their_own():
    built = _built_in_c()
    assert built == {Slice, ReadySnapshot}
    assert all(_checks_nothing(cls) for cls in built)
    # a record with a check of its own is told apart
    assert not _checks_nothing(ProcessSpec) and not _checks_nothing(GeneratorSpec)

    class CheckedSlice(Slice):
        __slots__ = ()

        def __new__(cls, *fields):
            if fields[1] < 0:
                raise ValueError("negative start")
            return super().__new__(cls, *fields)

    assert not _checks_nothing(CheckedSlice)
