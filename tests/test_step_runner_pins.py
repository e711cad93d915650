"""Pinned digests of the step runner over its policy and fleet matrix.

Every simulated decision of the step-batching runner
(:func:`repro.serve.engine._run_step_segment`) — admission, KV preemption,
tenant switches, window evaluation, scale-out, drains — lands in the serve
report or in the simulator's admission and drain diagnostics.  These tests
hash the three together for 80 configurations: the five policies, a fixed
4-node fleet and a 1..4-group autoscaler (1..2 under ``pp:2``), one-stage
and pipelined (``pp:2``) steps, KV budgets of 1.5x and 3x the largest
per-request resident state, and bursty and Poisson arrivals.  A change to
the runner's bookkeeping must leave every digest as it is; re-capture them
only for a documented change of behaviour.

``test_runner_never_asks_the_policy_for_its_length`` makes every policy's
``__len__`` raise: the runner counts its waiting ranks itself.
"""

import hashlib
import itertools

import pytest

from repro.core import maco_default_config
from repro.core.perf import TimingCache
from repro.serve import (
    SCHEDULER_NAMES,
    AutoscalePolicy,
    BatchingPolicy,
    ServeSimulator,
    bursty_trace,
    llm_tenants,
    poisson_trace,
)
from repro.workloads import workload_graph_by_name

#: perfbench serve-step's LLaMA proxy, tenants, SLOs and step settings.
VARIANT = "llama-7b@layers=2,prompt=128,decode=64,block=8"
NODES = 4
MAX_BATCH = 4
REQUESTS = 200
CACHE = TimingCache()

FLEETS = ("fixed", "autoscale")
PARALLELISMS = ("none", "pp:2")
BUDGETS = (1.5, 3.0)
TRACES = ("bursty", "poisson")

#: ``sha256(report.to_json() + repr(last_admissions) + repr(last_drains))``,
#: first 16 hex digits, keyed ``policy-fleet-parallelism-budget-trace``.
PINS = {
    "fcfs-fixed-none-1.5x-bursty": "137d4dee447f81b4",
    "fcfs-fixed-none-1.5x-poisson": "ffdc63499c276f90",
    "fcfs-fixed-none-3.0x-bursty": "ab4e844a17c81e0d",
    "fcfs-fixed-none-3.0x-poisson": "d226c18d5861af7f",
    "fcfs-fixed-pp:2-1.5x-bursty": "0c066c3dd3e9b095",
    "fcfs-fixed-pp:2-1.5x-poisson": "b0f978c3c653ed74",
    "fcfs-fixed-pp:2-3.0x-bursty": "4fefa3cc8e5551ba",
    "fcfs-fixed-pp:2-3.0x-poisson": "0bcd814649ded842",
    "fcfs-autoscale-none-1.5x-bursty": "0c3730a103533c59",
    "fcfs-autoscale-none-1.5x-poisson": "989030b630a91d5b",
    "fcfs-autoscale-none-3.0x-bursty": "f39da441e047a766",
    "fcfs-autoscale-none-3.0x-poisson": "e056e223ef22a466",
    "fcfs-autoscale-pp:2-1.5x-bursty": "def1ae5169206c03",
    "fcfs-autoscale-pp:2-1.5x-poisson": "e7330984bb4bf4c3",
    "fcfs-autoscale-pp:2-3.0x-bursty": "f1baefe3b58d82ee",
    "fcfs-autoscale-pp:2-3.0x-poisson": "35168105828005bd",
    "sjf-fixed-none-1.5x-bursty": "f30f851f0c2a1598",
    "sjf-fixed-none-1.5x-poisson": "86544fa7afabcae0",
    "sjf-fixed-none-3.0x-bursty": "312ac32fe74831cd",
    "sjf-fixed-none-3.0x-poisson": "2ecbccbd2c3b3f71",
    "sjf-fixed-pp:2-1.5x-bursty": "ec3459d11dde9c90",
    "sjf-fixed-pp:2-1.5x-poisson": "724ef02edbc0f0ff",
    "sjf-fixed-pp:2-3.0x-bursty": "e53239c7e72ab4fd",
    "sjf-fixed-pp:2-3.0x-poisson": "2b4b6b0b1085bb13",
    "sjf-autoscale-none-1.5x-bursty": "4105477ca762a187",
    "sjf-autoscale-none-1.5x-poisson": "44f5a694e8c25e94",
    "sjf-autoscale-none-3.0x-bursty": "7993ccfb48b7f20a",
    "sjf-autoscale-none-3.0x-poisson": "77b878f0c8272916",
    "sjf-autoscale-pp:2-1.5x-bursty": "9635f625d61d3d84",
    "sjf-autoscale-pp:2-1.5x-poisson": "074b277a2bb3c9e9",
    "sjf-autoscale-pp:2-3.0x-bursty": "d3ddf3472b2c50df",
    "sjf-autoscale-pp:2-3.0x-poisson": "8977c5c59b27d4a3",
    "rr-fixed-none-1.5x-bursty": "b42242c00612d2b0",
    "rr-fixed-none-1.5x-poisson": "2d95960a2d07e4d4",
    "rr-fixed-none-3.0x-bursty": "700a1a8d74a2b727",
    "rr-fixed-none-3.0x-poisson": "278c7bff5f7bb2fe",
    "rr-fixed-pp:2-1.5x-bursty": "91527be330752a02",
    "rr-fixed-pp:2-1.5x-poisson": "05b0a9ed51747d19",
    "rr-fixed-pp:2-3.0x-bursty": "f2091ca9229eace4",
    "rr-fixed-pp:2-3.0x-poisson": "8cf01bd5bb57e7e2",
    "rr-autoscale-none-1.5x-bursty": "eda0efce8609bfa6",
    "rr-autoscale-none-1.5x-poisson": "64563e21bd2e4966",
    "rr-autoscale-none-3.0x-bursty": "f0b4782953fffbc5",
    "rr-autoscale-none-3.0x-poisson": "de10f4fc9b29410b",
    "rr-autoscale-pp:2-1.5x-bursty": "cb7626819d547580",
    "rr-autoscale-pp:2-1.5x-poisson": "a3cc8e66a575067c",
    "rr-autoscale-pp:2-3.0x-bursty": "b9d69ae4e5532d34",
    "rr-autoscale-pp:2-3.0x-poisson": "1be1f176a2027576",
    "priority-fixed-none-1.5x-bursty": "dd840a1df66d6f22",
    "priority-fixed-none-1.5x-poisson": "d67c4236820e472a",
    "priority-fixed-none-3.0x-bursty": "adadfa68005896e9",
    "priority-fixed-none-3.0x-poisson": "10310d2cf319501a",
    "priority-fixed-pp:2-1.5x-bursty": "b759a25f07599ff2",
    "priority-fixed-pp:2-1.5x-poisson": "d094e08ac39600d8",
    "priority-fixed-pp:2-3.0x-bursty": "cfba08990060e3e7",
    "priority-fixed-pp:2-3.0x-poisson": "5040bbd4d2e2499b",
    "priority-autoscale-none-1.5x-bursty": "09ee3225e3f2a80b",
    "priority-autoscale-none-1.5x-poisson": "ce29b0aca1072a8f",
    "priority-autoscale-none-3.0x-bursty": "da90862af8662192",
    "priority-autoscale-none-3.0x-poisson": "884a318608bb8e1c",
    "priority-autoscale-pp:2-1.5x-bursty": "a245ea5383db59b8",
    "priority-autoscale-pp:2-1.5x-poisson": "7e85882593b522c3",
    "priority-autoscale-pp:2-3.0x-bursty": "d0cffef98dbb68a7",
    "priority-autoscale-pp:2-3.0x-poisson": "94397345a6f5b398",
    "slo-fixed-none-1.5x-bursty": "3f2d72e29bb703b4",
    "slo-fixed-none-1.5x-poisson": "0dda3e2de8c2b949",
    "slo-fixed-none-3.0x-bursty": "8a69287850965721",
    "slo-fixed-none-3.0x-poisson": "f8c6961a543ac480",
    "slo-fixed-pp:2-1.5x-bursty": "ea0f52afbd6e6388",
    "slo-fixed-pp:2-1.5x-poisson": "4adedd4a212ffb11",
    "slo-fixed-pp:2-3.0x-bursty": "a2ec2432a0f7ff3d",
    "slo-fixed-pp:2-3.0x-poisson": "bc8eaef8dc07cc28",
    "slo-autoscale-none-1.5x-bursty": "a5d6d92f27ebdcf9",
    "slo-autoscale-none-1.5x-poisson": "bc21179bfd7f5b4c",
    "slo-autoscale-none-3.0x-bursty": "9d15915085cdcd3d",
    "slo-autoscale-none-3.0x-poisson": "8fe1464bc68086b3",
    "slo-autoscale-pp:2-1.5x-bursty": "d06efeadb56a66a4",
    "slo-autoscale-pp:2-1.5x-poisson": "13837329a08edd3b",
    "slo-autoscale-pp:2-3.0x-bursty": "11159946c3d32d81",
    "slo-autoscale-pp:2-3.0x-poisson": "1aa36606bb648366",
}


def _case_id(policy, fleet, parallelism, budget, trace):
    return f"{policy}-{fleet}-{parallelism}-{budget}x-{trace}"


CASES = list(itertools.product(SCHEDULER_NAMES, FLEETS, PARALLELISMS, BUDGETS, TRACES))


def pin_traces():
    """The largest resident state and the two ~200-request traces at utilization 1.0."""
    tenants = llm_tenants(2, variant=VARIANT)
    sizing = ServeSimulator(config=maco_default_config(num_nodes=NODES), cache=CACHE)
    ingest, interactive = sizing.suggest_rates(tenants, utilization=1.0)
    specs = [ingest.with_slo(ttft_slo_s=4.0),
             interactive.with_slo(ttft_slo_s=1.0, tpot_slo_s=0.2, priority=1)]
    duration = REQUESTS / sum(spec.rate_rps for spec in specs)
    peak = max(workload_graph_by_name(workload).peak_state_bytes
               for spec in tenants for workload, _ in spec.mix)
    return peak, {"bursty": bursty_trace(specs, duration, seed=1, burst_factor=8.0),
                  "poisson": poisson_trace(specs, duration, seed=1)}


@pytest.fixture(scope="module")
def traces():
    return pin_traces()


def _run(traces, policy, fleet, parallelism, budget, trace):
    peak, generated = traces
    groups = NODES if parallelism == "none" else NODES // 2
    simulator = ServeSimulator(
        config=maco_default_config(num_nodes=NODES), cache=CACHE, scheduler=policy,
        parallelism=None if parallelism == "none" else parallelism, batching="step",
        max_batch=MAX_BATCH, kv_budget_bytes=budget * peak,
        autoscale=(AutoscalePolicy(min_groups=1, max_groups=groups)
                   if fleet == "autoscale" else None))
    report = simulator.run(generated[trace])
    text = report.to_json() + repr(simulator.last_admissions) + repr(simulator.last_drains)
    return report, hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("case", CASES, ids=lambda case: _case_id(*case))
def test_step_runner_matches_its_pinned_digest(traces, case):
    report, digest = _run(traces, *case)
    assert digest == PINS[_case_id(*case)]
    if case[1] == "autoscale":
        assert report.autoscale.events, "an autoscaled pin must scale"


@pytest.mark.parametrize("policy", SCHEDULER_NAMES)
def test_runner_never_asks_the_policy_for_its_length(traces, policy, monkeypatch):
    def refuse(self):
        raise AssertionError("the step runner counts its waiting ranks itself")

    for cls in (BatchingPolicy, *BatchingPolicy.__subclasses__()):
        monkeypatch.setattr(cls, "__len__", refuse)
    case = (policy, "autoscale", "none", 1.5, "bursty")
    report, digest = _run(traces, *case)
    assert report.preemptions and report.autoscale.events
    assert digest == PINS[_case_id(*case)]
