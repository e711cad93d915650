"""Trace-driven multi-tenant inference serving on the MACO model.

This package layers a serving simulator over the system timing model:
:mod:`repro.serve.trace` generates or replays tenant request arrivals (with
optional per-tenant priorities and TTFT/TPOT SLO targets),
:mod:`repro.serve.scheduler` provides the batching policies (FCFS, SJF,
round-robin per tenant, priority tiers, SLO-aware EDF),
:mod:`repro.serve.simulator` prices every workload from a
:class:`~repro.core.config.MACOConfig` and lowers the trace onto the
integer-tick event engine of :mod:`repro.serve.engine` — either
whole-request dispatch or iteration-level continuous batching with a paged
KV budget and preemption — and :mod:`repro.serve.report` aggregates per-tenant and fleet-wide
throughput, utilization, queue depth, p50/p95/p99 latency, TTFT/TPOT
percentiles, SLO attainment and goodput.  :mod:`repro.serve.autoscale` adds
the elastic-fleet pieces: a windowed hysteresis autoscaler that grows and
shrinks the committed node groups against the trace, and a per-node KV
budget derived from the DRAM capacity model minus the resident (sharded)
model weights.

Typical use (also exposed as ``python -m repro.cli serve``)::

    from repro.serve import ServeSimulator, llm_tenants, poisson_trace

    sim = ServeSimulator(scheduler="slo", batching="step", max_batch=8)
    tenants = [spec.with_slo(ttft_slo_s=0.5, tpot_slo_s=0.1)
               for spec in sim.suggest_rates(llm_tenants(3), utilization=1.1)]
    trace = poisson_trace(tenants, duration_s=2.0, seed=7)
    report = sim.run(trace)
    print(report.render())
"""

from repro.serve.autoscale import (
    AutoscalePolicy,
    Autoscaler,
    AutoscaleStats,
    KVBudget,
    ScaleEvent,
    derive_kv_budget,
)
from repro.serve.report import NodeStats, ServeReport, TenantStats, build_report_from_columns
from repro.serve.scheduler import SCHEDULER_NAMES, BatchingPolicy, scheduler_by_name
from repro.serve.simulator import (
    DEFAULT_KV_BUDGET_BYTES,
    TENANT_SWITCH_FLUSH_CYCLES,
    ServeSimulator,
    ServiceProfile,
    StepSpec,
)
from repro.serve.trace import (
    Request,
    RequestTrace,
    TenantSpec,
    TraceColumns,
    bursty_trace,
    default_tenants,
    llm_tenants,
    poisson_trace,
    replay_trace,
)

__all__ = [
    "Request",
    "RequestTrace",
    "TenantSpec",
    "TraceColumns",
    "default_tenants",
    "llm_tenants",
    "poisson_trace",
    "bursty_trace",
    "replay_trace",
    "BatchingPolicy",
    "SCHEDULER_NAMES",
    "scheduler_by_name",
    "ServeSimulator",
    "ServiceProfile",
    "StepSpec",
    "TENANT_SWITCH_FLUSH_CYCLES",
    "DEFAULT_KV_BUDGET_BYTES",
    "AutoscalePolicy",
    "Autoscaler",
    "ScaleEvent",
    "AutoscaleStats",
    "KVBudget",
    "derive_kv_budget",
    "TenantStats",
    "NodeStats",
    "ServeReport",
    "build_report_from_columns",
]
