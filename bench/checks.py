"""Correctness gate: every job's stdout must be right, or the job fails.

A job's stdout is compared with a golden digest when golden.json has one
for it: always on ``paper``, and on generated inputs whose bytes were
recorded (the default seeds).  Output of any other generated input is
validated against the input file with rules written here independently
of rrsim.  Either way, every later pass must reproduce the first pass's
bytes exactly.
"""
from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from jobs import Job

GOLDEN_PATH = Path(__file__).with_name("golden.json")
REPRODUCE_SUMMARY = {"match": 220, "known_erratum": 18, "mismatch": 0}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:20]


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


class Checker:
    """Judges job outputs of one run; remembers each job's first good output."""

    def __init__(self, golden: dict, inputs: dict[str, bytes]):
        self._paper = golden["paper"]
        self._generated = golden["generated"]
        self._inputs = inputs
        self._input_digest = {stem: digest(data) for stem, data in inputs.items()}
        self._seen: dict[str, str] = {}

    def problem(self, job: Job, stdout: bytes) -> str | None:
        """Why ``stdout`` is wrong for ``job``, or None when it is right."""
        out = digest(stdout)
        if job.name in self._seen:
            return None if out == self._seen[job.name] else "output differs from the first pass"
        expected = self._golden(job)
        if expected is not None:
            problem = None if out == expected else "output differs from the golden digest"
        elif job.input is not None:
            problem = run_json_problem(stdout, job.policy, job.input, self._inputs[job.input])
        else:
            problem = "no golden digest for this job"
        if problem is None and job.name == "reproduce-paper":
            summary = json.loads(stdout)["summary"]
            if summary != REPRODUCE_SUMMARY:
                problem = f"reproduce-paper summary {summary}, expected {REPRODUCE_SUMMARY}"
        if problem is None:
            self._seen[job.name] = out
        return problem

    def _golden(self, job: Job) -> str | None:
        if job.input is None:
            return self._paper.get(job.name)
        return self._generated.get(self._input_digest[job.input], {}).get(job.name)


def _half_up(value: Fraction, digits: int) -> float:
    scaled = value * 10 ** digits
    whole = scaled.numerator // scaled.denominator
    if (scaled - whole) * 2 >= 1:
        whole += 1
    return float(Fraction(whole, 10 ** digits))


def run_json_problem(stdout: bytes, policy: str, stem: str, csv_bytes: bytes) -> str | None:
    """Check `run --format json` output for a non-negative workload file
    against the rules any single-CPU, work-conserving schedule obeys."""
    rows = [line.split(",") for line in csv_bytes.decode().splitlines()[1:]]
    rows = [(pid, int(arrival), int(burst)) for pid, arrival, burst in rows]
    try:
        out = json.loads(stdout)
        got = [(p["pid"], p["arrival_ms"], p["burst_ms"]) for p in out["per_process"]]
        if out["algorithm"].split(":")[0] != policy or out["workload"] != stem:
            return f"wrong algorithm or workload label: {out['algorithm']}, {out['workload']}"
        if got != rows:
            return "per_process rows do not echo the input file"
        per = out["per_process"]
        completions = sorted(p["completion_ms"] for p in per)
        if len(set(completions)) != len(per):
            return "two processes complete at the same time on one CPU"
        for p in per:
            if (p["turnaround_ms"] != p["completion_ms"] - p["arrival_ms"]
                    or p["waiting_ms"] != p["turnaround_ms"] - p["burst_ms"]
                    or not 0 <= p["response_ms"] <= p["waiting_ms"]):
                return f"inconsistent times for {p['pid']}"
        start = min(a for _, a, _ in rows)
        end = start
        for _, arrival, burst in sorted(rows, key=lambda r: r[1]):
            end = max(end, arrival) + burst  # end of the last busy period
        done_work = 0
        by_completion = sorted(per, key=lambda p: p["completion_ms"])
        for p in by_completion:
            done_work += p["burst_ms"]
            if done_work > p["completion_ms"] - start:
                return f"more work done than time elapsed by {p['completion_ms']} ms"
        if completions[-1] != end or out["makespan_ms"] != end - start:
            return f"makespan {out['makespan_ms']} is not that of a work-conserving schedule"
        n = len(per)
        for key, field in (("avg_waiting", "waiting_ms"), ("avg_turnaround", "turnaround_ms"),
                           ("avg_response", "response_ms")):
            if out[key] != _half_up(Fraction(sum(p[field] for p in per), n), 1):
                return f"{key} is not the rounded mean"
        total = sum(b for _, _, b in rows)
        if out["cpu_utilization_pct"] != _half_up(Fraction(total * 100, end - start), 2):
            return "cpu_utilization_pct is not total burst over makespan"
        if out["context_switches"] < n - 1 or not out["quanta"] or min(out["quanta"]) < 1:
            return "impossible context switch count or quanta"
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed run output: {exc!r}"
    return None
