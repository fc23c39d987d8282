"""The indented JSON writers, ``RunMetrics.render_json``, JSON
``serialize_workload`` and ``ReproductionReport.render_json``, against
``json.dumps(payload, indent=2)``, byte for byte, on pids, labels and
cells that need escaping and on very long quanta.
"""
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import seeded_workload

from rrsim import WorkloadError, simulate, validate_workload
from rrsim.fileio import JSON, serialize_workload
from rrsim.metrics import PROCESS_COLUMNS, compute_metrics, format_average, format_percent
from rrsim.policies import POLICY_NAMES, standard_policy
from rrsim.reproduce import CellCheck, ReproductionReport
from rrsim.workloads import STAGGERED, GeneratorSpec, generate_workload


def _render_json_oracle(run):
    payload = {
        "algorithm": run.descriptor.spec_string(),
        "workload": run.workload_label,
        "quanta": list(run.quanta()),
        "per_process": [dict(zip(PROCESS_COLUMNS, p)) for p in run.per_process],
        "avg_waiting": float(format_average(run.avg_waiting)),
        "avg_turnaround": float(format_average(run.avg_turnaround)),
        "avg_response": float(format_average(run.avg_response)),
        "context_switches": run.context_switches,
        "makespan_ms": run.makespan,
        "cpu_utilization_pct": float(format_percent(run.cpu_utilization)),
    }
    return json.dumps(payload, indent=2) + "\n"


def _serialize_json_oracle(workload):
    payload = {
        "label": workload.label,
        "processes": [{"pid": p.pid, "arrival_ms": p.arrival, "burst_ms": p.burst}
                      for p in workload.processes],
    }
    return (json.dumps(payload, indent=2) + "\n").encode("utf-8")


def _has_lone_surrogate(text):
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False


def _assert_writers_match_json_dumps(workload, policy_name):
    run = compute_metrics(simulate(workload, standard_policy(policy_name)), workload)
    text = run.render_json()
    assert text == _render_json_oracle(run)
    loaded = json.loads(text)
    assert [tuple(row) for row in loaded["per_process"]] == [PROCESS_COLUMNS] * len(workload)
    assert [tuple(row.values()) for row in loaded["per_process"]] == list(run.per_process)
    assert loaded["workload"] == workload.label
    assert serialize_workload(workload, JSON) == _serialize_json_oracle(workload)


# Each pid keeps a letter at both ends (no edge whitespace) and a counter
# (no duplicates); the middle needs quoting, a \u escape or a surrogate pair.
_PID_MIDDLES = ('"', "\\", "\t", "\x00", "\x1f", "\x7f", "é", "日本",
                "\U0001f600", "\u00a0", "/", "\u2028")
_LABELS = ("", "café ☃", "bad\\xff", 'a "quoted" \\ label\x01', "\U0001f600")


def test_writers_match_json_dumps_on_seeded_workloads_under_every_policy():
    for seed in range(150):
        base = seeded_workload(seed)
        workload = validate_workload(
            [(f"p{_PID_MIDDLES[(seed + i) % len(_PID_MIDDLES)]}{i}", p.arrival, p.burst)
             for i, p in enumerate(base.processes)],
            _LABELS[seed % len(_LABELS)])
        for name in POLICY_NAMES:
            _assert_writers_match_json_dumps(workload, name)


def test_writers_match_json_dumps_on_rp5s_longest_quanta():
    # arrivals further apart than the bursts: RP5 doubles its quantum ~1000 times
    sparse = generate_workload(GeneratorSpec(n=1000, burst_min=1, burst_max=500,
                                             arrival=STAGGERED, max_gap=2000, seed=0))
    run = compute_metrics(simulate(sparse, standard_policy("RP5")), sparse)
    assert max(len(str(q)) for q in run.quanta()) > 300
    assert run.render_json() == _render_json_oracle(run)
    assert serialize_workload(sparse, JSON) == _serialize_json_oracle(sparse)


# st.characters() draws lone surrogates too, rarely; the sampled ones put
# them in labels often.  A pid or a label that holds one must be rejected.
_pid_text = st.text(st.one_of(st.sampled_from('"\\\t\x00\x1f\x7fé\u2028/'),
                              st.characters(exclude_characters=",\r\n")), max_size=4)
_label_text = st.text(st.one_of(st.sampled_from('"\\\x00é\udcff\ud800'), st.characters()),
                      max_size=5)


@settings(max_examples=100, deadline=None)
@given(st.lists(_pid_text, min_size=1, max_size=5, unique=True), _label_text,
       st.lists(st.tuples(st.integers(0, 40), st.integers(1, 60)), min_size=5, max_size=5),
       st.sampled_from(POLICY_NAMES))
def test_writers_match_json_dumps_on_arbitrary_pids_and_labels(middles, label, times, name):
    records = [(f"p{middle}q", arrival, burst) for middle, (arrival, burst) in zip(middles, times)]
    if any(map(_has_lone_surrogate, middles)):
        with pytest.raises(WorkloadError, match="^pid .* holds a lone surrogate"):
            validate_workload(records, label)
        return
    if _has_lone_surrogate(label):
        with pytest.raises(WorkloadError, match="^label .* holds a lone surrogate"):
            validate_workload(records, label)
        return
    _assert_writers_match_json_dumps(validate_workload(records, label), name)


def _reproduction_json_oracle(report):
    payload = {
        "cells": [c._asdict() for c in report.checks],
        "summary": {
            "match": len(report.matches),
            "known_erratum": len(report.known_errata),
            "mismatch": len(report.mismatches),
        },
        "exit_status": report.exit_status,
    }
    return json.dumps(payload, indent=2) + "\n"


@settings(max_examples=100, deadline=None)
@given(st.lists(st.builds(CellCheck, *[_label_text] * 5,
                          st.sampled_from(("match", "mismatch", "known_erratum")),
                          st.none() | _label_text), max_size=4))
def test_reproduction_json_matches_json_dumps_on_any_cells(checks):
    # a cell's fields are any text, lone surrogates included; its erratum may be missing
    report = ReproductionReport(tuple(checks))
    assert report.render_json() == _reproduction_json_oracle(report)
