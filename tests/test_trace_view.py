"""The columnar trace: ``ExecutionTrace.slices`` is a read-only view over
two per-slice columns (pid index, termination byte), the runs that a
cycle's quantum does not give, two per-cycle lists and the breaks (the
first slice and each one after an idle gap), and reads like the tuple of
``Slice`` it replaced."""
import dataclasses
import json
import re
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import seeded_workload
from reference_walk import walk_trace as reference_walk
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
from rrsim.engine import _walk_trace
from rrsim.gantt import render_gantt
from rrsim.model import COMPLETED, QUANTUM_EXPIRED, SliceView
from rrsim.policies import POLICY_NAMES, standard_policy
from rrsim.workloads import (
    ALL_ZERO,
    CASE_IDS,
    STAGGERED,
    GeneratorSpec,
    benchmark_case,
    generate_workload,
)

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
    # ints of any size, before and after an idle gap, read back exactly
    big = 2**70
    given = (Slice("P1", big, big + 2**65, 1, 2**65, QUANTUM_EXPIRED),
             Slice("P2", big + 2**65 + 1, 3 * big, 1, 2**65, COMPLETED))
    trace = _trace(given)
    assert trace.slices == given and trace.slices[0].start == big
    assert trace.idles == ((big + 2**65, big + 2**65 + 1),)
    assert trace.end_time() == 3 * big and trace.quantum_log == ((1, 2**65),)
    # the same slices in an overlap are refused, naming the second
    overlap = (given[0], given[1]._replace(start=big + 1))
    with pytest.raises(ValueError, match=re.escape(
            f"slice 1 [{big + 1},{3 * big}) starts before {big + 2**65}, where the slice before it ends")):
        _trace(overlap)


@pytest.mark.parametrize("arrival, max_gap", [(ALL_ZERO, 0), (STAGGERED, 5)],
                         ids=["all-zero", "staggered"])
def test_trace_holds_at_most_11_bytes_per_slice(arrival, max_gap):
    # a slice is one list entry, its pid's index, an object that already
    # exists, and one byte for its termination; only a slice that completes
    # its process stores its run (its process's remaining work, also an
    # object that exists), since a slice that preempts ran its cycle's
    # quantum, so no int is made per slice; a cycle's quantum and slice
    # count are stored once per cycle, and a break once per idle gap
    workload = generate_workload(GeneratorSpec(n=300, burst_min=1, burst_max=500,
                                               arrival=arrival, max_gap=max_gap, seed=0))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = simulate(workload, make_irrvq())
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(trace.slices) > 1000
    assert held / len(trace.slices) <= 11, (held, len(trace.slices))


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


def test_each_slice_is_stored_as_a_run_after_a_break():
    trace = _trace(_SLICES)
    view = trace.slices
    # the first slice and the one after the idle gap [10,15) are breaks
    assert view[0].start == 0 and trace.end_time() == 20
    assert trace.idles == ((10, 15),)
    pid, start, end, *_ = view.columns
    assert (list(pid), list(start), list(end)) == (
        ["P1", "P2", "P1", "P3"], [0, 5, 8, 15], [5, 8, 10, 20])
    assert list(pid) == list(start) == list(end) == []  # one-shot iterators
    # an overlap and a slice out of order are refused, naming the first of them
    odd = (Slice("P1", 0, 5, 1, 5, QUANTUM_EXPIRED), Slice("P2", 5, 8, 1, 5, COMPLETED),
           Slice("P1", 6, 10, 2, 5, COMPLETED), Slice("P3", 2, 4, 3, 5, COMPLETED))
    with pytest.raises(ValueError, match=re.escape(
            "slice 2 [6,10) starts before 8, where the slice before it ends")):
        _trace(odd)
    with pytest.raises(ValueError, match=re.escape(
            "slice 3 [2,4) starts before 10, where the slice before it ends")):
        _trace(odd[:2] + (odd[2]._replace(start=8),) + odd[3:])
    assert _trace(()).idles == () and _trace(()).end_time() == 0


@pytest.mark.parametrize("case_id", CASE_IDS)
@pytest.mark.parametrize("name", POLICY_NAMES)
def test_a_fixture_trace_rebuilt_by_hand_is_stored_alike(case_id, name):
    _assert_stored_alike(benchmark_case(case_id), name)


def test_seeded_traces_rebuilt_by_hand_are_stored_alike():
    for seed in range(1000):
        for name in POLICY_NAMES:
            _assert_stored_alike(seeded_workload(seed), name)


def _stored(view):
    """What a view stores: each slice's pid (read through its table), then
    every column as it is held."""
    return ([*map(view._table.__getitem__, view._index)], view._run, view._termination,
            view._quanta, view._counts, view._break_at, view._break_start, view._end)


def _assert_stored_alike(workload, name):
    """A trace's slices, listed and stored again by ``SliceView.of`` (with a
    pid table of its own), are stored exactly as the engine stores them, a
    preempting slice that ran its quantum with no run in both, so the views
    compare and hash alike; and the walk finds the same in both."""
    trace = simulate(workload, standard_policy(name))
    view = SliceView.of(tuple(trace.slices))
    assert _stored(view) == _stored(trace.slices), name
    assert set(view._termination) <= {0, 1}, name
    assert view == trace.slices and hash(view) == hash(trace.slices), name
    rebuilt = ExecutionTrace(trace.algorithm, view, passes=trace.passes)
    assert rebuilt.idles == trace.idles and rebuilt.end_time() == trace.end_time()
    assert _walk_trace(rebuilt, workload) == _walk_trace(trace, workload), name
    assert trace_violations(trace, workload) == [], name


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10**6), name=st.sampled_from(POLICY_NAMES), data=st.data())
def test_a_preempting_slice_shorter_than_its_quantum_keeps_its_run(seed, name, data):
    workload = seeded_workload(seed)
    slices = simulate(workload, standard_policy(name)).slices[:]
    preempting = [i for i, s in enumerate(slices)
                  if s.termination == QUANTUM_EXPIRED and s.end - s.start > 1]
    assume(preempting)
    i = data.draw(st.sampled_from(preempting), label="slice")
    cut = data.draw(st.integers(1, slices[i].end - slices[i].start - 1), label="ms cut")
    # the slices after it keep their times, or move back to close the gap
    shift = data.draw(st.sampled_from((0, cut)), label="shift")
    short = slices[i]._replace(end=slices[i].end - cut)
    later = tuple(s._replace(start=s.start - shift, end=s.end - shift) for s in slices[i + 1:])
    edited = slices[:i] + (short,) + later
    trace = ExecutionTrace(PolicyDescriptor.of(name), edited)
    view = trace.slices
    assert view._termination[i] == 2 and view[i] == short and tuple(view) == edited
    problems = trace_violations(trace, workload)
    assert problems == reference_walk(trace, workload)[0]
    assert f"pid {short.pid}: executed" in "; ".join(problems)


def test_terminations_read_back_as_the_module_constants():
    # a view stores each termination as one byte; every read gives back the
    # module's own str, the very object, whichever path reads it
    def constant(termination):
        return termination is COMPLETED or termination is QUANTUM_EXPIRED

    for seed in range(1000):
        workload = seeded_workload(seed)
        for name in POLICY_NAMES:
            view = simulate(workload, standard_policy(name)).slices
            indexed = [view[i].termination for i in range(-len(view), 0)]
            listed = tuple(view)
            column = list(view.columns[5])
            assert all(map(constant, indexed + column)), (seed, name)
            assert all(constant(s.termination) for s in listed), (seed, name)
            assert indexed == column == [s.termination for s in listed], (seed, name)
            assert SliceView.of(listed) == view, (seed, name)
    # an equal str that is another object is stored, and read back, as the constant
    done = "".join(["compl", "eted"])
    assert done == COMPLETED and done is not COMPLETED
    view = SliceView.of([Slice("P1", 0, 5, 1, 5, QUANTUM_EXPIRED), Slice("P1", 5, 8, 2, 5, done)])
    assert view[1].termination is COMPLETED and view[-2].termination is QUANTUM_EXPIRED
    assert [*view.columns[5]] == [QUANTUM_EXPIRED, COMPLETED]


def test_a_termination_neither_constant_is_refused_as_before():
    bad = Slice("P1", 0, 10, 1, 10, "done")
    with pytest.raises(ValueError, match="^" + re.escape(
            "slice 0 Slice(pid='P1', start=0, end=10, cycle=1, quantum_in_effect=10, "
            "termination='done') is not six fields: a str pid, an int start, end, cycle "
            "and quantum, and 'completed' or 'quantum_expired'") + "$"):
        SliceView.of([bad])
