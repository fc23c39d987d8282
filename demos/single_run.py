"""
Simulating one workload under one policy
========================================

Build a workload, pick a policy, simulate, and inspect the trace and the
derived metrics.
"""
from rrsim import compute_metrics, simulate, validate_workload
from rrsim.gantt import render_gantt
from rrsim.metrics import format_average
from rrsim.policies import make_dabrr

# A workload is an ordered list of (pid, arrival ms, burst ms) records.
# Submission order matters: it breaks FCFS ties.
workload = validate_workload(
    [("P1", 0, 40), ("P2", 0, 55), ("P3", 0, 60), ("P4", 0, 90), ("P5", 0, 102)],
    label="ascending bursts, zero arrivals",
)

# DABRR recomputes its quantum each cycle as the floored mean of the
# remaining bursts and dispatches in ascending burst order.
trace = simulate(workload, make_dabrr())
metrics = compute_metrics(trace, workload)

print("quantum per cycle:", metrics.quanta())
for s in trace.slices:
    print(f"  cycle {s.cycle}: {s.pid} runs [{s.start:>3}, {s.end:>3})  ({s.termination})")

print("average waiting time:   ", format_average(metrics.avg_waiting))
print("average turnaround time:", format_average(metrics.avg_turnaround))
print("context switches:       ", metrics.context_switches)

print()
print(render_gantt(trace, width=72))
