"""The bench tracer's hooks, in process and fast.

``bench/tracing.py`` swaps functions of ``rrsim.cli``, ``rrsim.reproduce``
and ``rrsim.metrics`` for timed wrappers and reads ``trace.idles``.  A
renamed function or field must fail here, not only in the bench's slow
smoke test.
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
