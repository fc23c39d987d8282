"""On-demand scaling report; not one of the gated workloads.

    python3 bench/scaling.py [--sizes 100,1000,10000]

For each policy, on a dense file (all arrivals at zero) and a staggered
one (arrival gaps 0..100 ms, about one burst apart, so the queue both
builds up and runs dry), at each size n: runs `rrsim run --format json`
through the traced harness and reports engine.us_per_slice, the trace
check's time per idle gap, and the log-log slope of dispatch time and of
check time against n (1 means linear).  Bursts are 1..100 ms, seed 0.  A job
that exceeds the benchmark's per-job timeout (run.JOB_TIMEOUT_S) is reported
as `timeout`, never dropped.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import rrsim.cli  # noqa: E402
from rrsim.fileio import CSV, serialize_workload  # noqa: E402
from rrsim.workloads import ALL_ZERO, STAGGERED, GeneratorSpec, generate_workload  # noqa: E402

from jobs import POLICIES  # noqa: E402
from run import JOB_TIMEOUT_S, run_job  # noqa: E402
from tracing import Tracer, instrument  # noqa: E402

MODES = {"dense": (ALL_ZERO, 0), "staggered": (STAGGERED, 100)}


def slope(points) -> float | None:
    """Least-squares slope of log(y) against log(n)."""
    pts = [(math.log(n), math.log(y)) for n, y in points if y and y > 0]
    if len(pts) < 2:
        return None
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    var = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / var if var else None


def measure(path: Path, policy: str) -> dict:
    tracer = Tracer()
    with instrument(tracer):
        failure, _, seconds = run_job(tracer.wrap("job", rrsim.cli.main),
                                      ("run", "--algo", policy, "--workload", str(path),
                                       "--format", "json"), JOB_TIMEOUT_S)
    if failure is not None:
        return {"status": "timeout" if failure == "timeout" else failure, "job_s": seconds}
    m = tracer.layer_metrics(seconds, 0.0)
    gaps = m["engine.idle_gaps"]
    return {
        "status": "ok",
        "job_s": seconds,
        "slices": m[f"engine.slices.{policy}"],
        "dispatch_s": m[f"engine.dispatch_s.{policy}"],
        "us_per_slice": m[f"engine.us_per_slice.{policy}"],
        "idle_gaps": gaps,
        "check_s": m[f"check.s.{policy}"],
        "check_us_per_gap": m[f"check.s.{policy}"] / gaps * 1e6 if gaps else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="100,1000,10000")
    args = parser.parse_args(argv)
    sizes = [int(s) for s in args.sizes.split(",")]

    rows = []
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as tmp:
        for mode, (arrival, gap) in MODES.items():
            for n in sizes:
                path = Path(tmp) / f"{mode}-{n}.csv"
                path.write_bytes(serialize_workload(generate_workload(GeneratorSpec(
                    n=n, burst_min=1, burst_max=100, arrival=arrival, max_gap=gap,
                    seed=0)), CSV))
                for policy in POLICIES:
                    row = {"mode": mode, "n": n, "policy": policy,
                           **measure(path, policy)}
                    rows.append(row)
                    print(_row_text(row), flush=True)

    fits = []
    for mode in MODES:
        for policy in POLICIES:
            ok = [r for r in rows if r["mode"] == mode and r["policy"] == policy
                  and r["status"] == "ok"]
            fits.append({"mode": mode, "policy": policy,
                         "dispatch_exponent": slope((r["n"], r["dispatch_s"]) for r in ok),
                         "check_exponent": slope((r["n"], r["check_s"]) for r in ok)})
    print(f"\n{'mode':<10}{'policy':<8}{'dispatch exp':>14}{'check exp':>11}")
    for f in fits:
        print(f"{f['mode']:<10}{f['policy']:<8}{_num(f['dispatch_exponent']):>14}"
              f"{_num(f['check_exponent']):>11}")
    print(json.dumps({"sizes": sizes, "rows": rows, "fits": fits}))
    return 0


def _num(value, digits=2) -> str:
    return "-" if value is None else f"{value:.{digits}f}"


def _row_text(r) -> str:
    head = f"{r['mode']:<10}n={r['n']:<7}{r['policy']:<7}"
    if r["status"] != "ok":
        return f"{head}{r['status']} after {r['job_s']:.1f} s"
    return (f"{head}job {r['job_s']:8.3f} s  slices {r['slices']:>8}  "
            f"{r['us_per_slice']:7.2f} us/slice  gaps {r['idle_gaps']:>5}  "
            f"check {r['check_s']:7.3f} s  {_num(r['check_us_per_gap'], 1):>8} us/gap")


if __name__ == "__main__":
    sys.exit(main())
