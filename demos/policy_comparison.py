"""
Comparing the seven policies on one workload
============================================

Run every policy over the same benchmark case and rank them by average
waiting time, with percentage gains against classic round robin.
"""
from rrsim import compare_runs, compute_metrics, simulate
from rrsim.policies import POLICY_NAMES, standard_policy
from rrsim.workloads import benchmark_case

workload = benchmark_case("V")
print(f"workload: {workload.label}")
for p in workload:
    print(f"  {p.pid}: arrival {p.arrival:>2} ms, burst {p.burst:>3} ms")
print()

# standard_policy() applies the benchmark parameterization:
# rr:q=25, rp5:base=25, mrr:floor=25; the rest have no knobs.
runs = {}
for name in POLICY_NAMES:
    policy = standard_policy(name)
    trace = simulate(workload, policy)
    runs[policy.descriptor] = {"V": compute_metrics(trace, workload)}

baseline = standard_policy("RR").descriptor
report = compare_runs(runs, baseline, label="case V")

print(report.render_text(), end="")
ranking = sorted(report.entries, key=lambda e: e.waiting_total)
print("\nby waiting time, lowest first:", ", ".join(e.descriptor.name for e in ranking))
