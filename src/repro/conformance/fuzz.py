"""Property-based scenario fuzzing over the simulator's global invariants.

Rather than pinning specific outputs (the golden corpus does that), this
layer samples *scenarios* — workload-graph shapes, catalog parameters, serve
and parallel configurations — under their validity constraints and asserts
the properties the repo stakes out as exact:

* ``graph-roundtrip`` — ``WorkloadGraph`` JSON serialisation is lossless;
* ``catalog-build`` — catalog builds are deterministic, their aggregate
  FLOP/byte accounting is internally consistent, and the ``layers()`` walk
  yields every phase's shapes ``repeat`` times with the graph's GEMM FLOPs;
* ``tp-conservation`` — with communication zeroed, tensor-parallel per-node
  compute seconds sum to the unsharded phase (rel 1e-9), and ``tp:1`` is
  bit-identical to the unsharded timing;
* ``tp2d-conservation`` — the SUMMA grid's per-node compute seconds sum to
  the unsharded phase (rel 1e-9), ``tp2d:1x1`` is bit-identical to the
  unsharded timing, the overlap split is well-formed
  (``0 <= overlapped <= comm``), and no phase is slower than serial
  compute + serial comm (overlap can only help);
* ``serve-parity`` — the request runner's completion columns equal the
  scalar oracle's on the same lowered trace, and the general step runner at
  ``max_batch=1`` (preemption on, unlimited budget) reproduces the request
  runner's ``to_json`` report byte for byte (fcfs on the sampled fleet,
  every other policy on one server), across schedulers × seeds × fleets;
* ``autoscale-invariants`` — the elastic step-mode fleet stays within
  ``[min_groups, max_groups]`` at every timeline instant, every scale event
  conserves capacity (``groups_after == groups_before ± 1``, provisioning
  delay and drain-stop times well-formed, the fleet timeline reconstructs
  exactly from the event stream), draining groups admit nothing, and a
  ``min_groups == max_groups`` policy is byte-identical to the fixed-fleet
  path once the ``autoscale`` section is stripped;
* ``percentile`` — the report's p50/p95/p99 selection
  (``repro.serve.report._select_ranks``) picks exactly the sorted
  nearest-rank elements;
* ``trace-roundtrip`` — vectorized trace generators match their scalar twins
  element for element and traces survive a records round-trip;
* ``tile-translation`` — ``AcceleratorDataEngine.translate_tile`` equals the
  per-page oracle of :mod:`repro.conformance.functional_oracle` in per-tile
  stall cycles and mATLB/MMU/TLB/walker state over controller-ordered tile
  streams, and both fault at the same page when the mapping runs short;
* ``tile-schedule`` — the class-based ``build_tile_schedule``,
  ``estimate_translation_stalls`` and ``estimate_gemm_timing`` equal the
  per-tile loops of :mod:`repro.conformance.analytic_oracle` in every field,
  float bits included, over ragged edges at both tiling levels, explicit
  ``depth`` blocking, every precision, L3 shares below the working set, three
  page sizes, shared TLBs small enough to thrash and prediction on and off;
  an invalid tiling raises the same ``ValueError`` on both sides;
* ``layer-stream`` — :func:`repro.core.mapping.layer_stream_seconds` equals
  the per-layer loop of :mod:`repro.conformance.analytic_oracle` by ``repr``
  over streams that repeat a small pool of shapes, with and without a
  per-layer overhead, under a FLOP-count timer and MACO's cached node timer,
  and calls its node timer exactly once per distinct sub-shape of each
  distinct layer.

Everything is seeded stdlib :mod:`random` (no new dependency): case ``i`` of
run seed ``S`` draws from ``random.Random(f"{S}:{i}")``, and kinds rotate
round-robin, so ``fuzz(cases=200, seed=0)`` replays the same 200 scenarios on
every machine.  A failing scenario is greedily shrunk toward the smallest
parameter set that still fails and reported as a replayable JSON spec
(``python -m repro.cli conformance replay failure.json``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "SCENARIO_KINDS",
    "FuzzReport",
    "ScenarioFailure",
    "ScenarioResult",
    "ScenarioSpec",
    "fuzz",
    "replay",
    "run_scenario",
]


class ScenarioFailure(AssertionError):
    """A sampled scenario violated one of the exact invariants."""


@dataclass(frozen=True)
class ScenarioSpec:
    """One concrete fuzz scenario: a kind plus its sampled parameters."""

    kind: str
    params: Tuple = ()  # tuple of (name, value) pairs, sorted by name

    def param(self, key: str) -> object:
        for name, value in self.params:
            if name == key:
                return value
        raise KeyError(f"scenario {self.kind!r} has no parameter {key!r}")

    def to_dict(self) -> dict:
        return {
            "type": "fuzz",
            "kind": self.kind,
            "params": {key: value for key, value in self.params},
        }

    @classmethod
    def from_dict(cls, record: Mapping) -> "ScenarioSpec":
        try:
            return cls(
                kind=str(record["kind"]),
                params=tuple(sorted(dict(record["params"]).items())),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ValueError(f"malformed fuzz scenario record: {error}") from error


def _spec(kind: str, **params) -> ScenarioSpec:
    return ScenarioSpec(kind=kind, params=tuple(sorted(params.items())))


# Shared, lazily-built fixtures.  The timing cache makes the tp-conservation
# scenarios cheap (catalog phases re-use identical GEMM shapes heavily), and
# sharing the config keeps every scenario on the same deterministic fleet.
_SHARED: dict = {}


def _shared_config(num_nodes: int = 16):
    from repro.core import maco_default_config

    key = ("config", num_nodes)
    if key not in _SHARED:
        _SHARED[key] = maco_default_config(num_nodes=num_nodes)
    return _SHARED[key]


def _shared_cache():
    from repro.core.perf import TimingCache

    if "cache" not in _SHARED:
        _SHARED["cache"] = TimingCache()
    return _SHARED["cache"]


def _catalog_names() -> List[str]:
    from repro.workloads import workload_catalog

    if "catalog" not in _SHARED:
        _SHARED["catalog"] = workload_catalog()
    return _SHARED["catalog"]


def _tenants(count: int, rate: float, slo: bool):
    from repro.serve import default_tenants

    specs = [spec.with_rate(rate) for spec in default_tenants(count)]
    if slo:
        specs = [
            spec.with_slo(ttft_slo_s=0.4 + 0.2 * index, tpot_slo_s=0.05,
                          priority=index % 2)
            for index, spec in enumerate(specs)
        ]
    return specs


# ---------------------------------------------------------- graph-roundtrip
def _sample_graph_roundtrip(rng: random.Random) -> ScenarioSpec:
    return _spec(
        "graph-roundtrip",
        workload=rng.choice(_catalog_names()),
        precision=rng.choice(["fp64", "fp32", "fp16"]),
    )


def _check_graph_roundtrip(spec: ScenarioSpec) -> None:
    from repro.gemm.precision import Precision
    from repro.workloads import WorkloadGraph, workload_graph_by_name

    graph = workload_graph_by_name(
        str(spec.param("workload")), Precision.from_string(str(spec.param("precision")))
    )
    text = graph.to_json()
    rebuilt = WorkloadGraph.from_json(text)
    if rebuilt.to_json() != text:
        raise ScenarioFailure(
            f"{spec.param('workload')}: to_json -> from_json -> to_json is not "
            "a fixed point"
        )
    if rebuilt.to_dict() != graph.to_dict():
        raise ScenarioFailure(
            f"{spec.param('workload')}: JSON round-trip changed the graph record"
        )


# ------------------------------------------------------------ catalog-build
def _sample_catalog_build(rng: random.Random) -> ScenarioSpec:
    return _spec(
        "catalog-build",
        workload=rng.choice(_catalog_names()),
        precision=rng.choice(["fp64", "fp32", "fp16"]),
    )


def _check_catalog_build(spec: ScenarioSpec) -> None:
    from repro.gemm.precision import Precision
    from repro.workloads import workload_graph_by_name

    name = str(spec.param("workload"))
    precision = Precision.from_string(str(spec.param("precision")))
    graph = workload_graph_by_name(name, precision)
    again = workload_graph_by_name(name, precision)
    if graph.to_json() != again.to_json():
        raise ScenarioFailure(f"{name}: catalog build is not deterministic")
    expected_gemm = sum(phase.total_gemm_flops for phase in graph.phases)
    if graph.gemm_flops != expected_gemm:
        raise ScenarioFailure(
            f"{name}: graph.gemm_flops {graph.gemm_flops} != phase sum {expected_gemm}"
        )
    if graph.total_flops != graph.gemm_flops + graph.non_gemm_flops:
        raise ScenarioFailure(f"{name}: total_flops does not decompose")
    layers = list(graph.layers())
    expected_shapes = sum(len(phase.shapes) * phase.repeat for phase in graph.phases)
    if len(layers) != expected_shapes:
        raise ScenarioFailure(
            f"{name}: layers() yielded {len(layers)} shapes, expected {expected_shapes}"
        )
    layer_flops = sum(shape.flops for shape in layers)
    if layer_flops != graph.gemm_flops:
        raise ScenarioFailure(
            f"{name}: layers() sum to {layer_flops} FLOPs, graph.gemm_flops {graph.gemm_flops}"
        )
    expected_bytes = sum(phase.non_gemm_bytes * phase.repeat for phase in graph.phases)
    if graph.non_gemm_bytes != expected_bytes:
        raise ScenarioFailure(
            f"{name}: graph.non_gemm_bytes {graph.non_gemm_bytes} != phase sum {expected_bytes}"
        )


# ---------------------------------------------------------- tp-conservation
def _sample_tp_conservation(rng: random.Random) -> ScenarioSpec:
    return _spec(
        "tp-conservation",
        workload=rng.choice(_catalog_names()),
        precision=rng.choice(["fp32", "fp16"]),
        degree=rng.randint(2, 4),
    )


def _check_tp_conservation(spec: ScenarioSpec) -> None:
    from repro.gemm.precision import Precision
    from repro.parallel import ParallelismSpec, plan_parallel
    from repro.workloads import workload_graph_by_name

    graph = workload_graph_by_name(
        str(spec.param("workload")), Precision.from_string(str(spec.param("precision")))
    )
    config = _shared_config()
    cache = _shared_cache()
    degree = int(spec.param("degree"))
    plan = plan_parallel(graph, config, ParallelismSpec("tp", degree),
                         cache=cache, include_communication=False)
    for phase_plan in plan.phases:
        if phase_plan.comm_seconds != 0.0:
            raise ScenarioFailure(
                f"{graph.name} tp:{degree}: communication charged with collectives zeroed"
            )
        total = sum(phase_plan.node_compute_seconds)
        reference = phase_plan.unsharded_seconds
        if abs(total - reference) > 1e-9 * max(abs(reference), 1e-30):
            raise ScenarioFailure(
                f"{graph.name} tp:{degree}: per-node compute {total!r} does not "
                f"conserve the unsharded phase {reference!r}"
            )
    one = plan_parallel(graph, config, "tp:1", cache=cache)
    if one.total_seconds != one.unsharded_seconds:
        raise ScenarioFailure(f"{graph.name}: tp:1 total differs from unsharded timing")
    for phase_plan in one.phases:
        if phase_plan.node_compute_seconds != (phase_plan.unsharded_seconds,):
            raise ScenarioFailure(
                f"{graph.name}: tp:1 phase {phase_plan.phase!r} is not bit-identical "
                "to the unsharded phase"
            )


# -------------------------------------------------------- tp2d-conservation
def _sample_tp2d_conservation(rng: random.Random) -> ScenarioSpec:
    return _spec(
        "tp2d-conservation",
        workload=rng.choice(_catalog_names()),
        precision=rng.choice(["fp32", "fp16"]),
        rows=rng.randint(1, 3),
        cols=rng.randint(1, 3),
    )


def _check_tp2d_conservation(spec: ScenarioSpec) -> None:
    from repro.gemm.precision import Precision
    from repro.parallel import ParallelismSpec, plan_parallel
    from repro.workloads import workload_graph_by_name

    graph = workload_graph_by_name(
        str(spec.param("workload")), Precision.from_string(str(spec.param("precision")))
    )
    config = _shared_config()
    cache = _shared_cache()
    rows = int(spec.param("rows"))
    cols = int(spec.param("cols"))
    grid = f"{rows}x{cols}"
    plan = plan_parallel(graph, config, ParallelismSpec("tp2d", grid=(rows, cols)),
                         cache=cache)
    for phase_plan in plan.phases:
        total = sum(phase_plan.node_compute_seconds)
        reference = phase_plan.unsharded_seconds
        if abs(total - reference) > 1e-9 * max(abs(reference), 1e-30):
            raise ScenarioFailure(
                f"{graph.name} tp2d:{grid}: per-node compute {total!r} does not "
                f"conserve the unsharded phase {reference!r}"
            )
        serial = phase_plan.compute_seconds + phase_plan.comm_seconds
        if phase_plan.seconds > serial * (1 + 1e-12):
            raise ScenarioFailure(
                f"{graph.name} tp2d:{grid}: phase {phase_plan.name!r} "
                f"({phase_plan.seconds!r} s) is slower than serial compute + "
                f"comm ({serial!r} s) — overlap can only help"
            )
        overlapped = phase_plan.comm_overlapped_seconds
        if not 0.0 <= overlapped <= phase_plan.comm_seconds * (1 + 1e-12):
            raise ScenarioFailure(
                f"{graph.name} tp2d:{grid}: overlapped comm {overlapped!r} outside "
                f"[0, comm={phase_plan.comm_seconds!r}]"
            )
        exposed = phase_plan.comm_exposed_seconds
        if abs(exposed + overlapped - phase_plan.comm_seconds) > 1e-12 * max(
            phase_plan.comm_seconds, 1e-30
        ):
            raise ScenarioFailure(
                f"{graph.name} tp2d:{grid}: exposed {exposed!r} + overlapped "
                f"{overlapped!r} does not reconstruct comm {phase_plan.comm_seconds!r}"
            )
    identity = plan_parallel(graph, config, "tp2d:1x1", cache=cache)
    if identity.total_seconds != identity.unsharded_seconds:
        raise ScenarioFailure(f"{graph.name}: tp2d:1x1 total differs from unsharded timing")
    for phase_plan in identity.phases:
        if phase_plan.node_compute_seconds != (phase_plan.unsharded_seconds,):
            raise ScenarioFailure(
                f"{graph.name}: tp2d:1x1 phase {phase_plan.name!r} is not "
                "bit-identical to the unsharded phase"
            )
        if phase_plan.comm_seconds != 0.0 or phase_plan.comm_overlapped_seconds != 0.0:
            raise ScenarioFailure(
                f"{graph.name}: tp2d:1x1 phase {phase_plan.name!r} reports "
                "communication on a single-node grid"
            )


# ------------------------------------------------------------- serve-parity
def _sample_serve_parity(rng: random.Random) -> ScenarioSpec:
    return _spec(
        "serve-parity",
        scheduler=rng.choice(["fcfs", "sjf", "rr", "priority", "slo"]),
        batching=rng.choice(["request", "step"]),
        seed=rng.randint(0, 9999),
        tenants=rng.randint(1, 4),
        # The floor reaches near-empty traces: parity must hold there too.
        rate=round(rng.uniform(0.05, 8.0), 2),
        duration=round(rng.uniform(2.0, 6.0), 2),
        num_nodes=rng.choice([2, 4]),
    )


def _serve_simulator(spec: ScenarioSpec, **kwargs):
    from repro.serve import ServeSimulator

    kwargs.setdefault("config", _shared_config(int(spec.param("num_nodes"))))
    return ServeSimulator(scheduler=str(spec.param("scheduler")), **kwargs)


def _serve_trace(spec: ScenarioSpec):
    from repro.serve import poisson_trace

    tenants = _tenants(int(spec.param("tenants")), float(spec.param("rate")), slo=True)
    return poisson_trace(tenants, duration_s=float(spec.param("duration")),
                         seed=int(spec.param("seed")))


def _check_serve_parity(spec: ScenarioSpec) -> None:
    import dataclasses

    from repro.conformance.serve_oracle import check_request_engine

    trace = _serve_trace(spec)
    label = (f"scheduler={spec.param('scheduler')} seed={spec.param('seed')} "
             f"nodes={spec.param('num_nodes')}")
    if spec.param("batching") == "request":
        mismatch = check_request_engine(_serve_simulator(spec), trace)
        if mismatch is not None:
            raise ScenarioFailure(f"{mismatch} ({label})")
        return
    # The general step runner at batch 1 (preemption on, unlimited budget)
    # must reproduce whole-request dispatch byte for byte.  On several
    # servers that holds for fcfs only: the step runner lets an idle server
    # choose among arrivals a busy server queued after the idle server's
    # clock, which reorders every other policy (ROADMAP), so those run on
    # one server.
    nodes = int(spec.param("num_nodes")) if spec.param("scheduler") == "fcfs" else 1
    fleet = dict(config=_shared_config(nodes))
    request = _serve_simulator(spec, **fleet).run(trace)
    step = _serve_simulator(spec, batching="step", max_batch=1, preemption=True,
                            kv_budget_bytes=float("inf"), **fleet).run(trace)
    if dataclasses.replace(step, batching="request").to_json() != request.to_json():
        raise ScenarioFailure(
            f"step runner at max_batch=1 diverges from the request runner ({label})")


# ------------------------------------------------------ autoscale-invariants
def _sample_autoscale_invariants(rng: random.Random) -> ScenarioSpec:
    max_groups = rng.randint(1, 4)
    return _spec(
        "autoscale-invariants",
        scheduler=rng.choice(["fcfs", "sjf", "rr", "priority", "slo"]),
        seed=rng.randint(0, 9999),
        tenants=rng.randint(1, 3),
        # Reach both regimes: traces that never scale and overloads that
        # provision to the ceiling and drain back.
        rate=round(rng.uniform(0.5, 40.0), 2),
        duration=round(rng.uniform(2.0, 5.0), 2),
        min_groups=rng.randint(1, max_groups),
        max_groups=max_groups,
        max_batch=rng.choice([2, 4]),
    )


def _autoscale_fuzz_simulator(spec: ScenarioSpec, policy):
    from repro.serve import ServeSimulator

    return ServeSimulator(
        config=_shared_config(4),
        scheduler=str(spec.param("scheduler")),
        batching="step",
        max_batch=int(spec.param("max_batch")),
        autoscale=policy,
    )


def _check_autoscale_invariants(spec: ScenarioSpec) -> None:
    import dataclasses

    from repro.serve import AutoscalePolicy

    min_groups = int(spec.param("min_groups"))
    max_groups = int(spec.param("max_groups"))
    # Tight windows so short fuzz traces can actually trigger decisions.
    policy = AutoscalePolicy(
        min_groups=min_groups, max_groups=max_groups, window_s=0.2,
        sustain_windows=2, cooldown_s=0.5, provision_delay_s=0.25)
    trace = _serve_trace(spec)
    simulator = _autoscale_fuzz_simulator(spec, policy)
    report = simulator.run(trace)
    auto = report.autoscale
    if auto is None:
        raise ScenarioFailure("autoscaled run produced no autoscale section")

    for time_s, groups in auto.timeline:
        if not min_groups <= groups <= max_groups:
            raise ScenarioFailure(
                f"fleet timeline leaves [{min_groups}, {max_groups}]: "
                f"{groups} groups at t={time_s!r}")
    changes = []
    for event in auto.events:
        expected = event.groups_before + (1 if event.direction == "out" else -1)
        if event.groups_after != expected:
            raise ScenarioFailure(
                f"scale event at t={event.time_s!r} does not conserve capacity: "
                f"{event.groups_before} -> {event.groups_after} ({event.direction})")
        if not (min_groups <= event.groups_before <= max_groups
                and min_groups <= event.groups_after <= max_groups):
            raise ScenarioFailure(
                f"scale event at t={event.time_s!r} leaves the fleet bounds: "
                f"{event.groups_before} -> {event.groups_after}")
        if event.direction == "out":
            if event.serving_from_s != event.time_s + policy.provision_delay_s:
                raise ScenarioFailure(
                    f"scale-out at t={event.time_s!r} serves from "
                    f"{event.serving_from_s!r}, not after the "
                    f"{policy.provision_delay_s!r} s provisioning delay")
            changes.append((event.time_s, 1))
        else:
            if event.stopped_s is None or event.stopped_s < event.time_s:
                raise ScenarioFailure(
                    f"scale-in at t={event.time_s!r} has drain stop "
                    f"{event.stopped_s!r} before the decision")
            changes.append((event.stopped_s, -1))
    if auto.events:
        # The committed-fleet timeline must reconstruct exactly from the
        # event stream.
        fleet = min_groups
        rebuilt = [auto.timeline[0]]
        for time_s, delta in sorted(changes):
            fleet += delta
            rebuilt.append((time_s, fleet))
        if tuple(rebuilt) != auto.timeline:
            raise ScenarioFailure(
                f"fleet timeline {auto.timeline!r} does not reconstruct from "
                f"the scale events {rebuilt!r}")
    # Windows tick lazily, so wall timestamps of admissions and decisions can
    # interleave; the drain's scope is its loop-order slice of the admission
    # log, which must contain nothing for the draining group.
    for group_id, start_idx, stop_idx in simulator.last_drains:
        admitted = [
            admit_t
            for admit_t, group in simulator.last_admissions[start_idx:stop_idx]
            if group == group_id]
        if admitted:
            raise ScenarioFailure(
                f"draining group {group_id} admitted requests at {admitted!r} "
                "between its drain decision and its stop")
    drained = sum(1 for event in auto.events if event.direction == "in")
    if len(simulator.last_drains) != drained:
        raise ScenarioFailure(
            f"{drained} scale-in event(s) but {len(simulator.last_drains)} "
            "recorded drain(s)")

    # A pinned fleet (min == max == every group server) must be byte-identical
    # to the fixed-fleet path once the autoscale section is stripped.
    servers = len(simulator.groups)
    pinned_policy = AutoscalePolicy(
        min_groups=servers, max_groups=servers, window_s=0.2,
        sustain_windows=2, cooldown_s=0.5, provision_delay_s=0.25)
    pinned = _autoscale_fuzz_simulator(spec, pinned_policy).run(trace)
    fixed = _autoscale_fuzz_simulator(spec, None).run(trace)
    if dataclasses.replace(pinned, autoscale=None).to_json() != fixed.to_json():
        raise ScenarioFailure(
            "min_groups == max_groups autoscale diverges from the fixed-fleet "
            f"report (scheduler={spec.param('scheduler')} "
            f"seed={spec.param('seed')})")


# --------------------------------------------------------------- percentile
def _sample_percentile(rng: random.Random) -> ScenarioSpec:
    # Tiny samples, where the three ranks collide, and large ones.
    size = rng.choice([
        rng.randint(1, 16),
        rng.randint(900, 1100),
        rng.randint(1500, 4000),
    ])
    return _spec(
        "percentile",
        size=size,
        seed=rng.randint(0, 9999),
        scale=rng.choice([1.0, 1e-6, 1e6]),
    )


def _check_percentile(spec: ScenarioSpec) -> None:
    from repro.serve.report import _select_ranks

    rng = random.Random(int(spec.param("seed")))
    size = int(spec.param("size"))
    scale = float(spec.param("scale"))
    values = [rng.uniform(0.0, scale) for _ in range(size)]
    # Nearest-rank reference, straight from the definition.
    ordered = sorted(values)
    reference = tuple(ordered[max(1, int(np.ceil(q / 100.0 * size))) - 1] for q in (50, 95, 99))
    selected = _select_ranks(np.asarray(values))
    if selected != reference:
        raise ScenarioFailure(
            f"_select_ranks = {selected!r} != nearest-rank p50/p95/p99 {reference!r} "
            f"(size={size})"
        )


# ---------------------------------------------------------- trace-roundtrip
def _sample_trace_roundtrip(rng: random.Random) -> ScenarioSpec:
    params = dict(
        generator=rng.choice(["poisson", "bursty"]),
        seed=rng.randint(0, 9999),
        tenants=rng.randint(1, 4),
        rate=round(rng.uniform(0.05, 12.0), 2),
        duration=round(rng.uniform(1.0, 10.0), 2),
    )
    if params["generator"] == "bursty":
        params["burst_factor"] = round(rng.uniform(1.0, 10.0), 2)
        params["burst_fraction"] = round(rng.uniform(0.05, 0.5), 3)
    return _spec("trace-roundtrip", **params)


def _check_trace_roundtrip(spec: ScenarioSpec) -> None:
    from repro.conformance.serve_oracle import bursty_trace_scalar, poisson_trace_scalar
    from repro.serve import RequestTrace, bursty_trace, poisson_trace

    tenants = _tenants(int(spec.param("tenants")), float(spec.param("rate")), slo=False)
    duration = float(spec.param("duration"))
    seed = int(spec.param("seed"))
    if spec.param("generator") == "poisson":
        fast = poisson_trace(tenants, duration_s=duration, seed=seed)
        slow = poisson_trace_scalar(tenants, duration_s=duration, seed=seed)
    else:
        kwargs = dict(
            burst_factor=float(spec.param("burst_factor")),
            burst_fraction=float(spec.param("burst_fraction")),
        )
        fast = bursty_trace(tenants, duration_s=duration, seed=seed, **kwargs)
        slow = bursty_trace_scalar(tenants, duration_s=duration, seed=seed, **kwargs)
    if fast.to_records() != slow.to_records():
        raise ScenarioFailure(
            f"{spec.param('generator')} generator diverges from its scalar twin "
            f"(seed={seed}, tenants={len(tenants)}, rate={spec.param('rate')})"
        )
    rebuilt = RequestTrace(name=fast.name, requests=list(fast), duration_s=fast.duration_s)
    if rebuilt.to_records() != fast.to_records():
        raise ScenarioFailure(
            f"{spec.param('generator')} trace does not survive a records round-trip"
        )


# --------------------------------------------------------- tile-translation
def _tile_stream_pages(rows: int, cols: int, stride: int, element_bytes: int,
                       base_offset: int) -> int:
    """Pages from the first page of the operand through its last element."""
    return -(-(base_offset + ((rows - 1) * stride + cols) * element_bytes) // 4096)


def _sample_tile_translation(rng: random.Random) -> ScenarioSpec:
    element_bytes = rng.choice([2, 4, 8])
    if rng.random() < 1 / 3:
        # A steady stream (DESIGN.md section 6): rows of at most half a page
        # and one k-block per row block, so each A tile repeats back to back,
        # once per column block; at least two row blocks; and a mATLB and L1
        # larger than a tile's (at most 18) pages, so the later row blocks
        # replay with the earlier blocks' pages still below them.
        cols = rng.randint(1, 2048 // element_bytes)
        stride = rng.randint(cols, 2048 // element_bytes)
        tile_rows = rng.randint(8, 32)
        rows = rng.randint(2 * tile_rows, 64)
        base_offset = rng.randrange(0, 4096, element_bytes)
        return _spec(
            "tile-translation",
            rows=rows, cols=cols, stride=stride, element_bytes=element_bytes,
            base_offset=base_offset, mapped_pages=_tile_stream_pages(
                rows, cols, stride, element_bytes, base_offset),
            tile_rows=tile_rows, tile_cols=cols, repeats=rng.randint(2, 3),
            matlb_entries=rng.randint(19, 64), tlb_l1=48, tlb_l2=rng.choice([16, 1024]),
            prediction=rng.choice([True, False]),
        )
    rows, cols = rng.randint(1, 64), rng.randint(1, 512)
    stride = rng.choice([cols, 1 << (cols - 1).bit_length(), cols + rng.randint(1, 600)])
    base_offset = rng.randrange(0, 4096, element_bytes)
    pages = _tile_stream_pages(rows, cols, stride, element_bytes, base_offset)
    # Most streams are fully mapped; the rest run out of mapping part-way.
    mapped = pages if rng.random() < 0.7 else rng.randint(0, pages - 1)
    return _spec(
        "tile-translation",
        rows=rows, cols=cols, stride=stride, element_bytes=element_bytes,
        base_offset=base_offset, mapped_pages=mapped,
        tile_rows=rng.randint(8, 64), tile_cols=rng.choice([cols, rng.randint(8, 128)]),
        # Column blocks re-visit each A tile, as the controller's loop does.
        repeats=rng.randint(1, 3),
        matlb_entries=rng.randint(1, 64),
        tlb_l1=rng.choice([4, 48]), tlb_l2=rng.choice([16, 1024]),
        prediction=rng.choice([True, False]),
    )


def _check_tile_translation(spec: ScenarioSpec) -> None:
    from repro.conformance.functional_oracle import check_tile_stream
    from repro.mem.page_table import AddressSpace, FrameAllocator
    from repro.mmae.matlb import MatrixLayout

    rows, cols = int(spec.param("rows")), int(spec.param("cols"))
    tile_rows, tile_cols = int(spec.param("tile_rows")), int(spec.param("tile_cols"))
    mapped = int(spec.param("mapped_pages"))
    space = AddressSpace(asid=1, frame_allocator=FrameAllocator(mapped + 1))
    if mapped:
        space.allocate_region("A", mapped * 4096)
    layout = MatrixLayout(0x10_0000 + int(spec.param("base_offset")), rows, cols,
                          int(spec.param("stride")), int(spec.param("element_bytes")))
    tiles = [
        (row, min(tile_rows, rows - row), k, min(tile_cols, cols - k))
        for row in range(0, rows, tile_rows)
        for _ in range(int(spec.param("repeats")))
        for k in range(0, cols, tile_cols)
    ]
    mismatch = check_tile_stream(
        space.page_table, layout, tiles, bool(spec.param("prediction")),
        int(spec.param("matlb_entries")), (int(spec.param("tlb_l1")), int(spec.param("tlb_l2"))))
    if mismatch is not None:
        raise ScenarioFailure(f"{mismatch} ({len(tiles)} tiles, {mapped} pages mapped)")


# ------------------------------------------------------------ tile-schedule
def _sample_tile_schedule(rng: random.Random) -> ScenarioSpec:
    l2_rows, l2_cols = rng.randint(1, 48), rng.randint(1, 48)
    l2_depth = rng.choice([0, rng.randint(1, 48)])
    # Level 1 is a multiple of level 2, sometimes with a ragged extra; about
    # one case in twelve puts level 2 past level 1, which both sides reject.
    l1_rows = l2_rows * rng.randint(1, 4) + rng.choice([0, rng.randint(1, 7)])
    l1_cols = l2_cols * rng.randint(1, 4) + rng.choice([0, rng.randint(1, 7)])
    if rng.random() < 1 / 12:
        l2_rows = l1_rows + rng.randint(1, 8)
    l1_depth = rng.choice([0, rng.randint(1, 160)])

    def extent(level1_tile: int, level2_tile: int) -> int:
        # Below, at and one past a multiple of either level's tile.
        tile = rng.choice([level1_tile, level2_tile])
        return max(1, tile * rng.randint(1, 4) + rng.choice([-1, 0, 1]))

    return _spec(
        "tile-schedule",
        m=extent(l1_rows, l2_rows), n=extent(l1_cols, l2_cols),
        k=extent(l1_depth or l1_cols, l2_depth or l2_cols),
        l1_rows=l1_rows, l1_cols=l1_cols, l1_depth=l1_depth,
        l2_rows=l2_rows, l2_cols=l2_cols, l2_depth=l2_depth,
        precision=rng.choice(["fp64", "fp32", "fp16"]),
        # L3 share as a fraction of a full level-1 tile's working set: below
        # 1 the reuse fraction drops under 1 and the DRAM sum turns fractional.
        l3_fraction=rng.choice([0.02, round(rng.uniform(0.1, 0.95), 3), 4.0]),
        page_size=rng.choice([4096, 64 * 1024, 2 * 1024 * 1024]),
        # A small shared TLB makes these small tiles thrash, so the re-touch
        # walks (rounded per tile) are sampled too.
        tlb_entries=rng.choice([1024, rng.randint(1, 64)]),
        prediction=rng.choice([True, False]),
    )


def _check_tile_schedule(spec: ScenarioSpec) -> None:
    from repro.conformance.analytic_oracle import check_tile_schedule
    from repro.gemm import GEMMShape, Precision, TileConfig
    from repro.mmae.dataflow import MemoryEnvironment, MMAETimingParameters
    from repro.mmae.matlb import TranslationTimingParameters

    precision = Precision.from_string(str(spec.param("precision")))
    level1 = TileConfig(int(spec.param("l1_rows")), int(spec.param("l1_cols")),
                        int(spec.param("l1_depth")))
    level2 = TileConfig(int(spec.param("l2_rows")), int(spec.param("l2_cols")),
                        int(spec.param("l2_depth")))
    shape = GEMMShape(int(spec.param("m")), int(spec.param("n")), int(spec.param("k")),
                      precision)
    working_set = (level1.rows * level1.k_block + level1.k_block * level1.cols
                   + level1.rows * level1.cols) * precision.bytes_per_element
    env = MemoryEnvironment(l3_share_bytes=float(spec.param("l3_fraction")) * working_set)
    params = MMAETimingParameters(translation=TranslationTimingParameters(
        shared_tlb_entries=int(spec.param("tlb_entries"))))
    mismatch = check_tile_schedule(
        shape, level1, level2, params, env,
        bool(spec.param("prediction")), int(spec.param("page_size")))
    if mismatch is not None:
        raise ScenarioFailure(f"{mismatch} (shape {shape.m}x{shape.n}x{shape.k} {precision}, "
                              f"level 1 {level1}, level 2 {level2})")


# ------------------------------------------------------------- layer-stream
def _sample_layer_stream(rng: random.Random) -> ScenarioSpec:
    pool = tuple(
        (rng.randint(1, 4096), rng.randint(1, 4096), rng.randint(1, 2048),
         rng.choice(["fp64", "fp32", "fp16"]))
        for _ in range(rng.randint(1, 5))
    )
    return _spec(
        "layer-stream",
        pool=pool,
        # Indices into the pool, in execution order: repeats are the point.
        layers=tuple(rng.randrange(len(pool)) for _ in range(rng.randint(1, 64))),
        nodes=rng.randint(1, 16),
        overhead=rng.choice([0.0, rng.uniform(1e-7, 1e-4)]),
        timer=rng.choice(["flops", "maco"]),
    )


def _layer_timer(name: str, nodes: int) -> Callable:
    """A node timer: FLOPs at a fixed rate, or MACO's cached estimate on ``nodes``."""
    if name == "flops":
        return lambda shape: shape.flops / 1.3e12
    from repro.core.perf import estimate_node_gemm_cached, memory_environment

    config = _shared_config()
    env = memory_environment(config, nodes)
    return lambda shape: estimate_node_gemm_cached(
        config, shape, active_nodes=nodes, env=env, cache=_shared_cache()).seconds


def _check_layer_stream(spec: ScenarioSpec) -> None:
    from repro.conformance import analytic_oracle
    from repro.core.mapping import layer_stream_seconds, partition_gemm
    from repro.gemm import GEMMShape, Precision

    pool = [GEMMShape(int(m), int(n), int(k), Precision.from_string(str(precision)))
            for m, n, k, precision in spec.param("pool")]
    layers = [pool[int(index)] for index in spec.param("layers")]
    nodes = int(spec.param("nodes"))
    overhead = float(spec.param("overhead"))
    timer = _layer_timer(str(spec.param("timer")), nodes)
    calls: List = []

    def counted(shape):
        calls.append(shape)
        return timer(shape)

    ours = layer_stream_seconds(layers, nodes, counted, overhead)
    theirs = analytic_oracle.layer_stream_seconds(layers, nodes, timer, overhead)
    label = f"{len(layers)} layers of {len(set(layers))} shapes on {nodes} node(s)"
    if repr(ours) != repr(theirs):
        raise ScenarioFailure(f"stream seconds {ours!r} != oracle {theirs!r} ({label})")
    expected = [sub for shape in dict.fromkeys(layers)
                for sub in partition_gemm(shape, nodes).sub_shapes]
    if calls != expected:
        raise ScenarioFailure(
            f"node timer ran {len(calls)} times, expected once per distinct sub-shape "
            f"of each distinct layer ({len(expected)}) ({label})")


# ----------------------------------------------------------------- registry
@dataclass(frozen=True)
class _Kind:
    name: str
    sample: Callable[[random.Random], ScenarioSpec]
    check: Callable[[ScenarioSpec], None]
    #: Parameter shrink order: keys tried (in order) when minimising a failure,
    #: each mapped to its most-trivial value.
    shrink_floor: Tuple = ()


SCENARIO_KINDS: Dict[str, _Kind] = {
    kind.name: kind
    for kind in (
        _Kind("graph-roundtrip", _sample_graph_roundtrip, _check_graph_roundtrip),
        _Kind("catalog-build", _sample_catalog_build, _check_catalog_build),
        _Kind("tp-conservation", _sample_tp_conservation, _check_tp_conservation,
              (("degree", 2),)),
        _Kind("tp2d-conservation", _sample_tp2d_conservation, _check_tp2d_conservation,
              (("rows", 1), ("cols", 1))),
        _Kind("serve-parity", _sample_serve_parity, _check_serve_parity,
              (("tenants", 2), ("duration", 1.0), ("rate", 1.0), ("num_nodes", 2),
               ("scheduler", "fcfs"), ("batching", "request"))),
        _Kind("autoscale-invariants", _sample_autoscale_invariants,
              _check_autoscale_invariants,
              (("tenants", 1), ("duration", 2.0), ("rate", 4.0),
               ("max_batch", 2), ("scheduler", "fcfs"), ("min_groups", 1))),
        _Kind("percentile", _sample_percentile, _check_percentile,
              (("size", 1), ("scale", 1.0))),
        _Kind("trace-roundtrip", _sample_trace_roundtrip, _check_trace_roundtrip,
              (("tenants", 1), ("duration", 1.0), ("rate", 1.0))),
        _Kind("tile-translation", _sample_tile_translation, _check_tile_translation,
              (("repeats", 1), ("rows", 1), ("base_offset", 0), ("tlb_l1", 48),
               ("tlb_l2", 1024), ("matlb_entries", 64), ("prediction", False))),
        _Kind("tile-schedule", _sample_tile_schedule, _check_tile_schedule,
              (("prediction", False), ("page_size", 4096), ("precision", "fp64"),
               ("l3_fraction", 4.0), ("tlb_entries", 1024), ("m", 1), ("n", 1),
               ("k", 1))),
        _Kind("layer-stream", _sample_layer_stream, _check_layer_stream,
              (("timer", "flops"), ("overhead", 0.0), ("nodes", 1), ("layers", (0,)))),
    )
}


@dataclass
class ScenarioResult:
    spec: ScenarioSpec
    index: int
    status: str  # "pass" | "fail"
    message: str = ""
    shrunk: Optional[ScenarioSpec] = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def repro_spec(self) -> dict:
        record = (self.shrunk or self.spec).to_dict()
        record["message"] = self.message
        record["index"] = self.index
        return record


@dataclass
class FuzzReport:
    seed: int
    cases: int
    results: List[ScenarioResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(result.passed for result in self.results)

    @property
    def failures(self) -> List[ScenarioResult]:
        return [result for result in self.results if not result.passed]

    def failure_specs(self) -> List[dict]:
        return [result.repro_spec() for result in self.failures]

    def kind_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for result in self.results:
            counts[result.spec.kind] = counts.get(result.spec.kind, 0) + 1
        return counts


def run_scenario(spec: ScenarioSpec) -> None:
    """Execute one scenario; raises :class:`ScenarioFailure` on violation."""
    try:
        kind = SCENARIO_KINDS[spec.kind]
    except KeyError:
        raise ValueError(
            f"unknown scenario kind {spec.kind!r}; options: {sorted(SCENARIO_KINDS)}"
        ) from None
    kind.check(spec)


def _failure_message(spec: ScenarioSpec) -> Optional[str]:
    try:
        run_scenario(spec)
    except ScenarioFailure as error:
        return str(error)
    except Exception as error:  # a crash is also a failure worth reporting
        return f"{type(error).__name__}: {error}"
    return None


def _shrink(spec: ScenarioSpec, kind: _Kind) -> ScenarioSpec:
    """Greedily replace parameters with their floor values while still failing."""
    current = spec
    for key, floor in kind.shrink_floor:
        params = dict(current.params)
        if key not in params or params[key] == floor:
            continue
        candidate = ScenarioSpec(
            kind=current.kind, params=tuple(sorted({**params, key: floor}.items()))
        )
        if _failure_message(candidate) is not None:
            current = candidate
    return current


def fuzz(
    cases: int = 100,
    seed: int = 0,
    kinds: Optional[Sequence[str]] = None,
) -> FuzzReport:
    """Run ``cases`` deterministic scenarios and report violations.

    Scenario ``i`` is fully determined by ``(seed, i)``: its kind is the
    round-robin pick ``kinds[i % len(kinds)]`` and its parameters are drawn
    from ``random.Random(f"{seed}:{i}")``, so any failure reproduces from the
    run seed alone — the report additionally carries each failure's concrete
    (shrunk) spec for single-scenario replay.
    """
    if cases <= 0:
        raise ValueError(f"cases must be positive, got {cases}")
    names = list(kinds) if kinds else sorted(SCENARIO_KINDS)
    for name in names:
        if name not in SCENARIO_KINDS:
            raise ValueError(
                f"unknown scenario kind {name!r}; options: {sorted(SCENARIO_KINDS)}"
            )
    report = FuzzReport(seed=seed, cases=cases)
    for index in range(cases):
        kind = SCENARIO_KINDS[names[index % len(names)]]
        rng = random.Random(f"{seed}:{index}")
        spec = kind.sample(rng)
        message = _failure_message(spec)
        if message is None:
            report.results.append(ScenarioResult(spec=spec, index=index, status="pass"))
            continue
        shrunk = _shrink(spec, kind)
        final_message = _failure_message(shrunk) or message
        report.results.append(ScenarioResult(
            spec=spec, index=index, status="fail", message=final_message,
            shrunk=None if shrunk == spec else shrunk,
        ))
    return report


def replay(record: Mapping) -> Optional[str]:
    """Re-run a reported failure spec; returns the failure message or ``None``."""
    spec = ScenarioSpec.from_dict(record)
    return _failure_message(spec)
