"""The bench tracer's hooks, in process and fast.

``bench/tracing.py`` swaps functions of ``rrsim.cli``, ``rrsim.reproduce``
and ``rrsim.metrics`` for timed wrappers, and reads ``trace.idles`` and
each slice's ``cycle``.  A renamed function or field must fail here, not
only in the bench's slow smoke test.
"""
import contextlib
import io
import sys
from pathlib import Path

BENCH = str(Path(__file__).resolve().parent.parent / "bench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import tracing  # noqa: E402

import rrsim.cli  # noqa: E402
from rrsim import make_dabrr, simulate, validate_workload  # noqa: E402

# rr:q=10 runs P1, idles over [10,30), runs P2 and P3, idles over [55,100)
_TWO_GAPS = "pid,arrival_ms,burst_ms\nP1,0,10\nP2,30,5\nP3,35,20\nP4,100,7\n"


def test_traced_jobs_report_every_layer_metric(tmp_path):
    workload = tmp_path / "gaps.csv"
    workload.write_text(_TWO_GAPS)
    tracer = tracing.Tracer()
    jobs = [["run", "--format", "json", "--algo", "rr:q=10", "--workload", str(workload)],
            ["reproduce-paper", "--cases", "I"]]  # case I has no idle gap
    with tracing.instrument(tracer):
        for argv in jobs:
            with contextlib.redirect_stdout(io.StringIO()):
                assert rrsim.cli.main(argv) == 0, argv
    metrics = tracer.layer_metrics(pass_s=1.0, generate_s=0.0)
    assert list(metrics) == list(tracing.LAYER_UNITS)
    assert metrics["engine.idle_gaps"] == 2
    assert metrics["engine.slices.rr"] > 0 and metrics["fileio.parse_s"] > 0
    assert metrics["reproduce.simulate_calls"] > 0


# DABRR plans one cycle over P1..P4; P5 arrives as P3 is preempted at 70 ms,
# so DABRR abandons that cycle before P4 runs and replans
_MID_CYCLE = (("P1", 0, 10), ("P2", 0, 20), ("P3", 0, 90), ("P4", 0, 100), ("P5", 70, 5))


def test_traced_dabrr_counts_its_cycles_and_restarts(tmp_path):
    workload = tmp_path / "mid_cycle.csv"
    workload.write_text("pid,arrival_ms,burst_ms\n"
                        + "".join(f"{p},{a},{b}\n" for p, a, b in _MID_CYCLE))
    tracer = tracing.Tracer()
    with tracing.instrument(tracer), contextlib.redirect_stdout(io.StringIO()):
        assert rrsim.cli.main(["run", "--algo", "dabrr", "--workload", str(workload)]) == 0
    metrics = tracer.layer_metrics(pass_s=1.0, generate_s=0.0)
    trace = simulate(validate_workload(_MID_CYCLE), make_dabrr())
    assert metrics["engine.cycles.dabrr"] == len(trace.quantum_log) > 1
    assert metrics["engine.slices.dabrr"] == len(trace.slices)
    assert metrics["engine.restarts.dabrr"] > 0
