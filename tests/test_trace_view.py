"""The columnar trace: ``ExecutionTrace.slices`` is a read-only view over one
list per per-slice field and one per per-cycle value, and reads like the
tuple of ``Slice`` it replaced."""
import dataclasses
import json
import tracemalloc

import pytest

from rrsim import (
    ExecutionTrace,
    PolicyDescriptor,
    Slice,
    compute_metrics,
    make_irrvq,
    make_rp5,
    simulate,
    trace_violations,
    validate_workload,
)
from rrsim.gantt import render_gantt
from rrsim.model import COMPLETED, QUANTUM_EXPIRED, SliceView
from rrsim.policies import POLICY_NAMES, standard_policy
from rrsim.workloads import ALL_ZERO, CASE_IDS, GeneratorSpec, benchmark_case, generate_workload

_SLICES = (Slice("P1", 0, 5, 1, 5, QUANTUM_EXPIRED),
           Slice("P2", 5, 8, 1, 5, COMPLETED),
           Slice("P1", 8, 10, 2, 5, COMPLETED),
           Slice("P3", 15, 20, 3, 5, COMPLETED))


def _trace(slices):
    return ExecutionTrace(PolicyDescriptor.of("RR", q=5), slices)


@pytest.mark.parametrize("case_id", CASE_IDS)
@pytest.mark.parametrize("name", POLICY_NAMES)
def test_trace_rebuilt_from_its_slices_equals_the_simulated_one(case_id, name):
    trace = simulate(benchmark_case(case_id), standard_policy(name))
    rebuilt = tuple(trace.slices)
    assert all(type(s) is Slice for s in rebuilt)
    assert ExecutionTrace(trace.algorithm, rebuilt, passes=trace.passes) == trace
    assert dataclasses.replace(trace, slices=list(rebuilt)) == trace
    assert trace.passes == (name == "RR")
    assert dataclasses.replace(trace, slices=rebuilt[:-1]) != trace


def test_view_reads_like_the_tuple_it_was_built_from():
    view = _trace(_SLICES).slices
    assert isinstance(view, SliceView)
    assert len(view) == 4 and bool(view) and not _trace(()).slices
    assert [view[i] for i in range(-4, 4)] == [*_SLICES, *_SLICES]
    assert all(type(view[i]) is Slice for i in range(-4, 4))
    for i in (4, -5):
        with pytest.raises(IndexError):
            view[i]
    assert list(view) == list(_SLICES) and all(type(s) is Slice for s in view)
    for cut in (slice(None), slice(1, 3), slice(-2, None), slice(None, None, -1),
                slice(3, 0, -2), slice(9, 12), slice(0, 0)):
        part = view[cut]
        assert type(part) is tuple and part == _SLICES[cut]
        assert all(type(s) is Slice for s in part)
    assert view == _SLICES and hash(view) == hash(_SLICES)
    assert view[:2] + (view[3],) == _SLICES[:2] + _SLICES[3:]
    assert view.index(_SLICES[2]) == 2 and _SLICES[3] in view
    assert list(reversed(view)) == list(reversed(_SLICES))


def test_view_offers_no_mutator():
    view = _trace(_SLICES).slices
    with pytest.raises(TypeError):
        view[0] = _SLICES[1]
    with pytest.raises(AttributeError):
        view.columns = ([],) * 6
    assert not hasattr(view, "append")


def test_times_and_quanta_past_64_bits_survive_every_stage():
    # RP5 doubles its quantum every cycle: after cycle k, P1 has run 2**k - 1
    # ms, so its last ms runs in cycle 82 at quantum 2**81
    w = validate_workload([("P1", 0, 2**81), ("P2", 0, 3)])
    trace = simulate(w, make_rp5(1))
    last = trace.slices[-1]
    assert (last.cycle, last.quantum_in_effect, last.end) == (82, 2**81, 2**81 + 3)
    assert trace_violations(trace, w) == []
    run = compute_metrics(trace, w)
    assert run.quanta()[-1] == 2**81 and run.makespan == 2**81 + 3
    assert json.loads(run.render_json())["quanta"][-1] == 2**81
    chart = render_gantt(trace)
    assert f"cycle 82  <- quantum {2**81} ->" in chart and f" {2**81 + 3}\n" in chart


@pytest.mark.parametrize("name", POLICY_NAMES)
def test_an_arrival_past_64_bits_survives_every_stage(name):
    w = validate_workload([("A", 10**30, 5), ("B", 0, 7)])
    trace = simulate(w, standard_policy(name))
    assert trace.idles == ((7, 10**30),)
    assert trace_violations(trace, w) == []
    run = compute_metrics(trace, w)
    assert [p.completion for p in run.per_process] == [10**30 + 5, 7]
    chart = render_gantt(trace)
    assert "| -- " in chart and f" {10**30}" in chart and f" {10**30 + 5}" in chart


def test_hand_built_values_are_kept_as_given():
    w = validate_workload([("P1", 0, 10)])
    odd = Slice("P1", 0, 10.0, 1, 10, "Completed")  # neither canonical word, a float end
    trace = _trace([odd])
    kept = trace.slices[0]
    assert kept == odd and kept.termination == "Completed" and type(kept.end) is float
    assert trace_violations(trace, w) == ["last slice of P1 not marked completed"]


def test_trace_holds_at_most_72_bytes_per_slice():
    # a columnar slice is four list entries and one new int (its end); a
    # cycle's quantum and slice count are stored once per cycle, not per
    # slice, and a record per slice would be ~160 bytes
    workload = generate_workload(GeneratorSpec(n=300, burst_min=1, burst_max=500,
                                               arrival=ALL_ZERO, seed=0))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = simulate(workload, make_irrvq())
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(trace.slices) > 1000
    assert held / len(trace.slices) <= 72, (held, len(trace.slices))


def test_each_cycle_is_stored_once_and_read_back_per_slice():
    trace = _trace(_SLICES)
    pid, start, end, cycle, quantum, termination = trace.slices.columns
    assert (list(cycle), list(quantum)) == ([1, 1, 2, 3], [5, 5, 5, 5])
    assert list(cycle) == []  # one-shot iterators; a new read makes new ones
    assert list(trace.slices.columns[3]) == [1, 1, 2, 3]
    assert trace.quantum_log == ((1, 5), (2, 5), (3, 5))
    assert dataclasses.replace(trace, passes=True).quantum_log == ((1, 5),)
    shifting = [s._replace(quantum_in_effect=q) for s, q in zip(_SLICES, (5, 5, 7, 5))]
    assert _trace(shifting).quantum_log == ((1, 5), (2, 7), (3, 5))
    passes = ExecutionTrace(PolicyDescriptor.of("RR", q=5), shifting, passes=True)
    assert passes.quantum_log == ((1, 5), (2, 7), (3, 5)) and _trace(()).quantum_log == ()
    # a stale positional log is no truthy ``passes``
    with pytest.raises(TypeError):
        ExecutionTrace(PolicyDescriptor.of("RR", q=5), _SLICES, ((1, 5),))

