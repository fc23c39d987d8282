"""Per-layer tracing from outside the program.

``instrument`` swaps module attributes of rrsim for timed wrappers for
the duration of one traced pass and restores them afterwards; policies
are traced by wrapping their ``plan`` with ``dataclasses.replace``.  No
file under src/ is touched.  A span's self time is its duration minus
that of the spans nested in it.
"""
from __future__ import annotations

import dataclasses
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import rrsim.cli
import rrsim.metrics
import rrsim.reproduce

from jobs import POLICIES

PLANNING = tuple(p for p in POLICIES if p != "rr")  # RR never calls plan

# Per-layer metric names with their units, in report order.
LAYER_UNITS = {
    **{f"engine.dispatch_s.{p}": "s" for p in POLICIES},
    **{f"engine.slices.{p}": "count" for p in POLICIES},
    **{f"engine.cycles.{p}": "count" for p in POLICIES},
    **{f"engine.us_per_slice.{p}": "us" for p in POLICIES},
    "engine.restarts.dabrr": "count",
    "engine.idle_gaps": "count",
    **{f"policies.plan_s.{p}": "s" for p in PLANNING},
    **{f"policies.plan_calls.{p}": "count" for p in PLANNING},
    **{f"policies.snapshot_entries.{p}": "count" for p in PLANNING},
    **{f"check.s.{p}": "s" for p in POLICIES},
    **{f"metrics.self_s.{p}": "s" for p in POLICIES},
    "fileio.parse_s": "s",
    "cli.self_s": "s",
    "gantt.render_s": "s",
    "reproduce.reproduce_paper_s": "s",
    "reproduce.export_figures_s": "s",
    "reproduce.simulate_calls": "count",
    "workloads.generate_s": "s",
    "traced.pass_s": "s",
}


class Tracer:
    """Accumulates span times and counts of one pass, keyed by (layer, policy)."""

    def __init__(self):
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.counts: Counter = Counter()
        self._open: list[float] = []  # time covered by children of each open span
        self._plan_sizes: list[int] = []

    def wrap(self, layer, fn, key=lambda *args: ""):
        def traced(*args, **kwargs):
            name = (layer, key(*args))
            self._open.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                children = self._open.pop()
                if self._open:
                    self._open[-1] += duration
                self.total[name] += duration
                self.self_time[name] += duration - children
        return traced

    def traced_policy(self, policy):
        p = policy.descriptor.name.lower()
        inner = self.wrap("plan", policy.plan, lambda *_: p)

        def plan(snapshot):
            self.counts["plan_calls", p] += 1
            self.counts["snapshot_entries", p] += len(snapshot.entries)
            self._plan_sizes.append(len(snapshot.entries))
            return inner(snapshot)
        return dataclasses.replace(policy, plan=plan)

    def traced_simulate(self, simulate):
        inner = self.wrap("simulate", simulate,
                          lambda workload, policy: policy.descriptor.name.lower())
        # The tracer's own bookkeeping, linear in the slice count, gets a span
        # of its own so that no layer's self time is charged with it.
        count = self.wrap("tracing", self._count)

        def run(workload, policy):
            self._plan_sizes = []
            trace = inner(workload, policy)
            count(trace, policy.descriptor.name.lower())
            return trace
        return run

    def _count(self, trace, p):
        per_cycle = Counter(s.cycle for s in trace.slices)
        self.counts["slices", p] += len(trace.slices)
        self.counts["cycles", p] += trace.slices[-1].cycle if trace.slices else 0
        self.counts["restarts", p] += sum(
            1 for cycle, size in enumerate(self._plan_sizes, 1) if per_cycle[cycle] < size)
        self.counts["idle_gaps", ""] += len(trace.idles)

    def layer_metrics(self, pass_s: float, generate_s: float) -> dict[str, float]:
        t, s, c = self.total, self.self_time, self.counts
        m = {}
        for p in POLICIES:
            dispatch = t["simulate", p] - t["plan", p]
            m[f"engine.dispatch_s.{p}"] = dispatch
            m[f"engine.slices.{p}"] = c["slices", p]
            m[f"engine.cycles.{p}"] = c["cycles", p]
            m[f"engine.us_per_slice.{p}"] = dispatch / c["slices", p] * 1e6 if c["slices", p] else 0.0
            m[f"check.s.{p}"] = t["check", p]
            m[f"metrics.self_s.{p}"] = s["compute", p]
        m["engine.restarts.dabrr"] = c["restarts", "dabrr"]
        m["engine.idle_gaps"] = c["idle_gaps", ""]
        for p in PLANNING:
            m[f"policies.plan_s.{p}"] = t["plan", p]
            m[f"policies.plan_calls.{p}"] = c["plan_calls", p]
            m[f"policies.snapshot_entries.{p}"] = c["snapshot_entries", p]
        m["fileio.parse_s"] = t["parse", ""]
        m["cli.self_s"] = s["job", ""]
        m["gantt.render_s"] = t["gantt", ""]
        m["reproduce.reproduce_paper_s"] = t["reproduce_paper", ""]
        m["reproduce.export_figures_s"] = t["export_figures", ""]
        m["reproduce.simulate_calls"] = c["reproduce_simulate", ""]
        m["workloads.generate_s"] = generate_s
        m["traced.pass_s"] = pass_s
        return {name: m[name] for name in LAYER_UNITS}


@contextmanager
def instrument(tracer: Tracer):
    """Route rrsim's layer calls through ``tracer`` while the block runs."""
    cli, reproduce = rrsim.cli, rrsim.reproduce

    def by_policy(trace, *_):
        return trace.algorithm.name.lower()

    def counted(simulate):
        def run(workload, policy):
            tracer.counts["reproduce_simulate", ""] += 1
            return simulate(workload, policy)
        return run

    def traced_policies(factory):
        return lambda *args: tracer.traced_policy(factory(*args))

    simulate = tracer.traced_simulate(cli.simulate)
    compute = tracer.wrap("compute", cli.compute_metrics, by_policy)
    replacements = [
        (cli, "simulate", simulate),
        (reproduce, "simulate", counted(simulate)),
        (cli, "compute_metrics", compute),
        (reproduce, "compute_metrics", compute),
        (rrsim.metrics, "trace_violations",
         tracer.wrap("check", rrsim.metrics.trace_violations, by_policy)),
        (cli, "parse_policy_spec", traced_policies(cli.parse_policy_spec)),
        (reproduce, "standard_policy", traced_policies(reproduce.standard_policy)),
        (cli, "parse_workload", tracer.wrap("parse", cli.parse_workload)),
        (cli, "render_gantt", tracer.wrap("gantt", cli.render_gantt)),
        (cli, "reproduce_paper", tracer.wrap("reproduce_paper", cli.reproduce_paper)),
        (cli, "comparison_reports", tracer.wrap("export_figures", cli.comparison_reports)),
        (cli, "export_figure_data", tracer.wrap("export_figures", cli.export_figure_data)),
    ]
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in replacements]
    for module, attr, replacement in replacements:
        setattr(module, attr, replacement)
    try:
        yield
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)
