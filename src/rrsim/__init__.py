"""Deterministic CPU-scheduling simulator for round-robin variants with
dynamic time quanta (RR, DQRRR, IRRVQ, SARR, RP-5, MRR, DABRR)."""

import types as _types

from .engine import (
    PolicyBehavior,
    PolicyPlanInvalid,
    ReadySnapshot,
    simulate,
    trace_violations,
)
from .metrics import (
    ComparisonReport,
    InconsistentTrace,
    MismatchedCaseSets,
    ProcessMetrics,
    RunMetrics,
    compare_runs,
    compute_metrics,
)
from .model import (
    ExecutionTrace,
    IdleGap,
    PolicyDescriptor,
    ProcessSpec,
    Slice,
    Workload,
    WorkloadError,
    validate_workload,
)
from .policies import (
    PolicySpecError,
    alternating_min_max_order,
    make_dabrr,
    make_dqrrr,
    make_irrvq,
    make_mrr,
    make_round_robin,
    make_rp5,
    make_sarr,
    mean_quantum,
    median_quantum,
    parse_policy_spec,
    range_quantum,
)
from .workloads import GeneratorSpec, benchmark_case, generate_workload

__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _types.ModuleType)]
__version__ = "0.1.0"
