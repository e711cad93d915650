"""Request traces for the multi-tenant serving simulator.

A serving scenario starts from a :class:`RequestTrace`: a time-ordered list of
:class:`Request` arrivals, each tagged with a tenant and a model from the
workload registry (:mod:`repro.workloads.registry`).  Traces come from three
generators —

* :func:`poisson_trace` — independent Poisson arrivals per tenant (the
  classic open-loop serving assumption);
* :func:`bursty_trace` — an on/off modulated Poisson process (Lewis–Shedler
  thinning) that concentrates arrivals into periodic bursts while preserving
  the mean rate;
* :func:`replay_trace` — arrivals replayed from a JSON file or records, for
  reproducing production traces.

All generators are seeded and fully deterministic: every tenant draws from a
private ``random.Random`` seeded with a string (string seeding hashes through
SHA-512, so it is stable across processes and ``PYTHONHASHSEED`` values).

Storage is *columnar first*: the generators produce a :class:`TraceColumns`
record — parallel NumPy arrays of arrival times, tenant/workload ids,
priorities and SLO targets — so a million-request trace costs megabytes, not a
million dataclasses.  :class:`RequestTrace` wraps the columns and materialises
:class:`Request` objects lazily, only when someone actually iterates them.

The generators are vectorised but bit-equal to their per-request references
(``poisson_trace_scalar`` / ``bursty_trace_scalar`` in
:mod:`repro.conformance.serve_oracle`), the parity oracle of the tests and the
``trace-roundtrip`` fuzz kind.  Two facts make exact equality possible: ``numpy``'s ``MT19937`` bit generator can be seeded
with the *state* of a ``random.Random`` and then reproduces its uniform stream
double for double, and ``np.log``/``np.cumsum`` evaluate element-wise
identically whether applied to one value or a chunk.  The scalar references
therefore route their single-value ``log`` through NumPy too, and the
vectorised paths consume the uniform stream in exactly the per-request order.
"""

from __future__ import annotations

import json
import math
import random
from bisect import bisect_right
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.mapping import in_order_sum
from repro.gemm.precision import Precision
from repro.serve.report import TICK_LIMIT, TICKS_PER_SECOND
from repro.workloads.registry import workload_names

__all__ = [
    "Request",
    "TenantSpec",
    "TraceColumns",
    "RequestTrace",
    "default_tenants",
    "llm_tenants",
    "poisson_trace",
    "bursty_trace",
    "replay_trace",
]


@dataclass(frozen=True, slots=True)
class Request:
    """One inference request: a tenant asks for one model invocation.

    ``workload`` names an entry of the workload registry (``resnet50``,
    ``bert``, ``gpt3``); ``arrival_s`` is the arrival time in seconds from
    the start of the trace.  ``priority`` is the scheduling tier (larger is
    more important; the priority/slo policies serve higher tiers first and
    preempt lower ones), and ``ttft_slo_s``/``tpot_slo_s`` are the tenant's
    latency deadlines — time to first token and time per output token —
    against which the report scores SLO attainment and goodput (``None``
    means the request carries no deadline and always counts as met).
    """

    request_id: int
    tenant: str
    workload: str
    arrival_s: float
    precision: Precision = Precision.FP32
    priority: int = 0
    ttft_slo_s: Optional[float] = None
    tpot_slo_s: Optional[float] = None

    def __post_init__(self) -> None:
        problem = _field_problem(self.arrival_s, self.priority, self.ttft_slo_s, self.tpot_slo_s)
        if problem is not None:
            raise ValueError(f"request {self.request_id}: {problem}")


def _number_problem(name: str, value: object, whole: bool = False) -> Optional[str]:
    """Why ``value`` is no number for field ``name``, or ``None`` when it is one.

    A boolean is no number here, although ``float(True)`` is 1.0, and a
    ``whole`` field takes no fraction, although ``int(1.5)`` is 1.
    """
    if isinstance(value, bool):
        return f"{name} must be a number, got {value!r}"
    if whole and isinstance(value, float) and not value.is_integer():
        return f"{name} must be a whole number, got {value!r}"
    return None


def _field_problem(
    arrival_s: float, priority: int, ttft_slo_s: Optional[float], tpot_slo_s: Optional[float]
) -> Optional[str]:
    """Why a request's scheduling fields are unusable, or ``None`` when they are fine.

    No field may be a boolean, and the priority must be a whole number.
    Arrivals must be finite, non-negative and on the event engine's tick
    clock (:data:`~repro.serve.report.TICK_LIMIT`); SLO targets finite and
    positive; priorities must fit int32 (the trace column type).
    """
    problem = (
        _number_problem("arrival_s", arrival_s)
        or _number_problem("ttft_slo_s", ttft_slo_s)
        or _number_problem("tpot_slo_s", tpot_slo_s)
        or _number_problem("priority", priority, whole=True)
    )
    if problem is not None:
        return problem
    if not (math.isfinite(arrival_s) and 0 <= arrival_s
            and arrival_s * TICKS_PER_SECOND < TICK_LIMIT):
        return (f"arrival time must be finite, non-negative and below 2**63 - 1 ns, "
                f"got {arrival_s!r}")
    for name, slo in (("TTFT", ttft_slo_s), ("TPOT", tpot_slo_s)):
        if slo is not None and not (math.isfinite(slo) and slo > 0):
            return f"{name} SLO must be finite and positive, got {slo!r}"
    if not -(2**31) <= priority < 2**31:
        return f"priority must fit in int32, got {priority!r}"
    return None


@dataclass(frozen=True)
class TenantSpec:
    """A tenant's traffic description: mean arrival rate and workload mix.

    ``mix`` is a tuple of ``(workload name, weight)`` pairs; weights are
    normalised when sampling, so they only need to be positive.
    ``priority`` and the TTFT/TPOT SLO targets are stamped onto every request
    the tenant generates (see :class:`Request`): priority tiers order
    admission and preemption under the priority/slo policies, and the
    deadlines feed the report's SLO-attainment and goodput figures.
    """

    name: str
    rate_rps: float = 8.0
    mix: Tuple[Tuple[str, float], ...] = (("bert", 1.0),)
    priority: int = 0
    ttft_slo_s: Optional[float] = None
    tpot_slo_s: Optional[float] = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rate_rps) and self.rate_rps > 0):
            raise ValueError(
                f"tenant {self.name!r}: rate must be finite and positive, got {self.rate_rps!r}")
        if not self.mix:
            raise ValueError(f"tenant {self.name!r}: workload mix cannot be empty")
        if any(weight <= 0 for _, weight in self.mix):
            raise ValueError(f"tenant {self.name!r}: mix weights must be positive")
        # The fields every generated request carries pass the request checks.
        problem = _field_problem(0.0, self.priority, self.ttft_slo_s, self.tpot_slo_s)
        if problem is not None:
            raise ValueError(f"tenant {self.name!r}: {problem}")

    def with_rate(self, rate_rps: float) -> "TenantSpec":
        """Copy of this spec with a different mean arrival rate."""
        return replace(self, rate_rps=rate_rps)

    def with_slo(
        self,
        ttft_slo_s: Optional[float] = None,
        tpot_slo_s: Optional[float] = None,
        priority: Optional[int] = None,
    ) -> "TenantSpec":
        """Copy of this spec with SLO deadlines (and optionally a priority tier)."""
        return replace(
            self,
            ttft_slo_s=ttft_slo_s,
            tpot_slo_s=tpot_slo_s,
            priority=self.priority if priority is None else priority,
        )

    def _cumulative_weights(self) -> List[float]:
        """The running mix-weight sums, accumulated left to right.

        The vectorised ``searchsorted`` compares draws against these exact
        partial sums, as the scalar scan of the conformance oracle does, so
        both pick identical workloads for identical uniforms.
        """
        cumulative, partials = 0.0, []
        for _, weight in self.mix:
            cumulative += weight
            partials.append(cumulative)
        return partials

    def mean_mix_weights(self) -> List[Tuple[str, float]]:
        """The mix with weights normalised to sum to 1."""
        total = in_order_sum(weight for _, weight in self.mix)
        return [(name, weight / total) for name, weight in self.mix]


@dataclass(frozen=True)
class TraceColumns:
    """Columnar request storage: parallel arrays plus interning tables.

    Row ``i`` describes one request; ``tenant_id``/``workload_id``/
    ``precision_id`` index the ``tenants``/``workloads``/``precisions``
    tables.  SLO targets use ``nan`` for "no deadline".  ``request_id``
    carries the public ids (``arange(n)`` for generated traces, arbitrary for
    hand-built ones), so a trace round-trips through columns losslessly.
    """

    tenants: Tuple[str, ...]
    workloads: Tuple[str, ...]
    precisions: Tuple[Precision, ...]
    request_id: np.ndarray
    arrival_s: np.ndarray
    tenant_id: np.ndarray
    workload_id: np.ndarray
    precision_id: np.ndarray
    priority: np.ndarray
    ttft_slo_s: np.ndarray
    tpot_slo_s: np.ndarray

    def __len__(self) -> int:
        return len(self.arrival_s)

    @property
    def nbytes(self) -> int:
        """Total array payload — the reason a 1M-request trace fits in MBs."""
        return sum(
            getattr(self, column).nbytes
            for column in ("request_id", "arrival_s", "tenant_id", "workload_id",
                           "precision_id", "priority", "ttft_slo_s", "tpot_slo_s")
        )

    @classmethod
    def from_requests(cls, requests: Sequence[Request]) -> "TraceColumns":
        """Intern a request list into columns (row order preserved)."""
        tenants = tuple(sorted({request.tenant for request in requests}))
        workloads = tuple(sorted({request.workload for request in requests}))
        precisions = tuple(sorted({request.precision for request in requests},
                                  key=lambda p: p.name))
        tenant_index = {name: i for i, name in enumerate(tenants)}
        workload_index = {name: i for i, name in enumerate(workloads)}
        precision_index = {p: i for i, p in enumerate(precisions)}
        n = len(requests)
        return cls(
            tenants=tenants,
            workloads=workloads,
            precisions=precisions,
            request_id=np.fromiter((r.request_id for r in requests), np.int64, n),
            arrival_s=np.fromiter((r.arrival_s for r in requests), np.float64, n),
            tenant_id=np.fromiter((tenant_index[r.tenant] for r in requests), np.int32, n),
            workload_id=np.fromiter((workload_index[r.workload] for r in requests), np.int32, n),
            precision_id=np.fromiter((precision_index[r.precision] for r in requests), np.int16, n),
            priority=np.fromiter((r.priority for r in requests), np.int32, n),
            ttft_slo_s=np.fromiter(
                (math.nan if r.ttft_slo_s is None else r.ttft_slo_s for r in requests),
                np.float64, n),
            tpot_slo_s=np.fromiter(
                (math.nan if r.tpot_slo_s is None else r.tpot_slo_s for r in requests),
                np.float64, n),
        )

    def materialize(self) -> List[Request]:
        """Build the :class:`Request` objects for every row (O(n) dataclasses)."""
        ttft = self.ttft_slo_s
        tpot = self.tpot_slo_s
        return [
            Request(
                request_id=int(self.request_id[i]),
                tenant=self.tenants[self.tenant_id[i]],
                workload=self.workloads[self.workload_id[i]],
                arrival_s=float(self.arrival_s[i]),
                precision=self.precisions[self.precision_id[i]],
                priority=int(self.priority[i]),
                ttft_slo_s=None if math.isnan(ttft[i]) else float(ttft[i]),
                tpot_slo_s=None if math.isnan(tpot[i]) else float(tpot[i]),
            )
            for i in range(len(self))
        ]

    def to_records(self) -> List[dict]:
        """JSON-able arrival records, identical to the request-list rendering."""
        records = []
        ttft = self.ttft_slo_s
        tpot = self.tpot_slo_s
        for i in range(len(self)):
            record = {
                "tenant": self.tenants[self.tenant_id[i]],
                "workload": self.workloads[self.workload_id[i]],
                "arrival_s": float(self.arrival_s[i]),
                "precision": self.precisions[self.precision_id[i]].name.lower(),
            }
            if self.priority[i]:
                record["priority"] = int(self.priority[i])
            if not math.isnan(ttft[i]):
                record["ttft_slo_s"] = float(ttft[i])
            if not math.isnan(tpot[i]):
                record["tpot_slo_s"] = float(tpot[i])
            records.append(record)
        return records


class RequestTrace:
    """A time-ordered request arrival trace for one serving scenario.

    Holds either a :class:`Request` list, a :class:`TraceColumns` record, or
    both; each view is derived lazily from the other, so the array engines
    read columns without ever materialising a million dataclasses, while
    code that iterates requests keeps working unchanged.
    """

    def __init__(
        self,
        name: str,
        requests: Optional[List[Request]] = None,
        duration_s: float = 0.0,
        columns: Optional[TraceColumns] = None,
    ) -> None:
        if duration_s < 0:
            raise ValueError("trace duration cannot be negative")
        if requests is None and columns is None:
            requests = []
        self.name = name
        self.duration_s = duration_s
        self._requests = requests
        self._columns = columns

    @property
    def requests(self) -> List[Request]:
        """The materialised request list (built from columns on first use)."""
        if self._requests is None:
            self._requests = self._columns.materialize()
        return self._requests

    @property
    def columns(self) -> TraceColumns:
        """The columnar view (interned from the request list on first use)."""
        if self._columns is None:
            self._columns = TraceColumns.from_requests(self._requests)
        return self._columns

    def __len__(self) -> int:
        if self._columns is not None:
            return len(self._columns)
        return len(self._requests)

    def __iter__(self) -> Iterator[Request]:
        return iter(self.requests)

    @property
    def tenants(self) -> List[str]:
        """Tenant names appearing in the trace, sorted."""
        columns = self.columns
        return sorted(columns.tenants[i] for i in np.unique(columns.tenant_id))

    @property
    def workloads(self) -> List[str]:
        """Distinct workload names appearing in the trace, sorted."""
        columns = self.columns
        return sorted(columns.workloads[i] for i in np.unique(columns.workload_id))

    def to_records(self) -> List[dict]:
        """JSON-able arrival records (the :func:`replay_trace` input format).

        Priority and SLO fields are emitted only when set, so traces recorded
        before those fields existed keep their byte-identical JSON form.
        """
        return self.columns.to_records()

    def save(self, path: Union[str, Path]) -> None:
        """Write the trace as a JSON record list that :func:`replay_trace` reads back."""
        Path(path).write_text(json.dumps(self.to_records(), indent=2) + "\n")


def default_tenants(count: int, rate_rps: float = 8.0) -> List[TenantSpec]:
    """``count`` tenants with rotating workload mixes over the registry.

    Tenant ``i`` leans 70% on registry model ``i mod len(registry)`` with the
    remaining 30% spread over the other models, so multi-tenant traces mix
    models without any randomness in the specs themselves.
    """
    if count < 1:
        raise ValueError(f"tenant count must be >= 1, got {count}")
    names = workload_names()
    specs = []
    for index in range(count):
        dominant = names[index % len(names)]
        others = [name for name in names if name != dominant]
        mix = [(dominant, 0.7)] + [(name, 0.3 / len(others)) for name in others]
        specs.append(TenantSpec(name=f"tenant{index}", rate_rps=rate_rps, mix=tuple(mix)))
    return specs


def llm_tenants(count: int, rate_rps: float = 8.0, variant: str = "llama-7b") -> List[TenantSpec]:
    """``count`` LLM tenants alternating prefill-heavy and decode-heavy mixes.

    Even-indexed tenants lean 80% on the prompt-ingest phase graph
    (``variant@prefill``) and odd-indexed tenants 80% on token generation
    (``variant@decode``), so a multi-tenant trace exercises both ends of the
    prefill/decode spectrum against the same fleet.  The registry names are
    resolved through :func:`repro.workloads.workload_graph_by_name`, so any
    catalog LLM variant works.
    """
    if count < 1:
        raise ValueError(f"tenant count must be >= 1, got {count}")
    # ``variant`` may already carry an @spec (e.g. "llama-7b@layers=2"); the
    # phase tag then joins the existing parameter list instead.  It must not
    # already select phases, though — the tenants are defined by adding the
    # prefill/decode split on top.
    spec = variant.partition("@")[2]
    # The registry resolves names case-insensitively, so normalize before
    # matching phase tags.
    tokens = [token.strip().lower() for token in spec.split(",") if token.strip()]
    if any(token in ("prefill", "decode") or token.startswith("phases=") for token in tokens):
        raise ValueError(
            f"variant {variant!r} already selects phases; pass the base variant "
            f"(e.g. 'llama-7b' or 'llama-7b@layers=2') and llm_tenants will add "
            f"the prefill/decode split per tenant")
    separator = "," if "@" in variant else "@"
    prefill = f"{variant}{separator}prefill"
    decode = f"{variant}{separator}decode"
    specs = []
    for index in range(count):
        if index % 2 == 0:
            name, mix = f"tenant{index}-prefill", ((prefill, 0.8), (decode, 0.2))
        else:
            name, mix = f"tenant{index}-decode", ((decode, 0.8), (prefill, 0.2))
        specs.append(TenantSpec(name=name, rate_rps=rate_rps, mix=mix))
    return specs


# --------------------------------------------------------------- RNG plumbing
def _seeded_generator(seed_string: str) -> np.random.Generator:
    """A NumPy generator continuing ``random.Random(seed_string)``'s stream.

    ``random.Random`` and NumPy's ``MT19937`` share the same core generator
    and the same 53-bit uniform recipe, so installing the stdlib state into
    the bit generator makes ``Generator.random(n)`` reproduce the exact
    doubles ``rng.random()`` would have produced, one for one.  That is the
    bridge that lets the vectorised trace generators stay bit-identical to
    the scalar references while drawing whole arrays at once.
    """
    state = random.Random(seed_string).getstate()
    key = np.array(state[1][:-1], dtype=np.uint32)
    bit_generator = np.random.MT19937()
    bit_generator.state = {
        "bit_generator": "MT19937",
        "state": {"key": key, "pos": state[1][-1]},
    }
    return np.random.Generator(bit_generator)


def _merge_tenant_columns(
    name: str,
    duration_s: float,
    precision: Precision,
    per_tenant: List[Tuple[TenantSpec, np.ndarray, np.ndarray]],
) -> RequestTrace:
    """Merge per-tenant ``(spec, arrivals, workload ids)`` into a sorted trace.

    Sorts into the canonical ``(arrival, tenant name, per-tenant sequence)``
    order with a single ``lexsort``, then assigns request ids by position.  Workload ids index each tenant's ``mix``; they
    are re-interned into the trace-wide sorted workload table here.
    """
    tenant_names = sorted({spec.name for spec, _, _ in per_tenant})
    tenant_rank = {tenant: rank for rank, tenant in enumerate(tenant_names)}
    workload_table = sorted({
        workload for spec, _, picks in per_tenant if len(picks) for workload, _ in spec.mix
    })
    workload_rank = {workload: rank for rank, workload in enumerate(workload_table)}

    chunks_arrival, chunks_tenant, chunks_workload = [], [], []
    chunks_sequence, chunks_priority, chunks_ttft, chunks_tpot = [], [], [], []
    for spec, arrivals, picks in per_tenant:
        count = len(arrivals)
        if not count:
            continue
        mix_ranks = np.array([workload_rank[w] for w, _ in spec.mix], dtype=np.int32)
        chunks_arrival.append(arrivals)
        chunks_tenant.append(np.full(count, tenant_rank[spec.name], dtype=np.int32))
        chunks_workload.append(mix_ranks[picks])
        chunks_sequence.append(np.arange(count, dtype=np.int64))
        chunks_priority.append(np.full(count, spec.priority, dtype=np.int32))
        ttft = math.nan if spec.ttft_slo_s is None else spec.ttft_slo_s
        tpot = math.nan if spec.tpot_slo_s is None else spec.tpot_slo_s
        chunks_ttft.append(np.full(count, ttft, dtype=np.float64))
        chunks_tpot.append(np.full(count, tpot, dtype=np.float64))

    if not chunks_arrival:
        columns = TraceColumns(
            tenants=(), workloads=(), precisions=(precision,),
            request_id=np.empty(0, np.int64), arrival_s=np.empty(0, np.float64),
            tenant_id=np.empty(0, np.int32), workload_id=np.empty(0, np.int32),
            precision_id=np.empty(0, np.int16), priority=np.empty(0, np.int32),
            ttft_slo_s=np.empty(0, np.float64), tpot_slo_s=np.empty(0, np.float64),
        )
        return RequestTrace(name=name, duration_s=duration_s, columns=columns)

    arrival = np.concatenate(chunks_arrival)
    tenant = np.concatenate(chunks_tenant)
    sequence = np.concatenate(chunks_sequence)
    order = np.lexsort((sequence, tenant, arrival))
    # Tenants that produced no arrivals drop out of the interning tables, so
    # the columns match what a per-request build would have seen.
    used = np.unique(tenant)
    if len(used) != len(tenant_names):
        remap = np.zeros(len(tenant_names), dtype=np.int32)
        remap[used] = np.arange(len(used), dtype=np.int32)
        tenant = remap[tenant]
        tenant_names = [tenant_names[i] for i in used]
    columns = TraceColumns(
        tenants=tuple(tenant_names),
        workloads=tuple(workload_table),
        precisions=(precision,),
        request_id=np.arange(len(arrival), dtype=np.int64),
        arrival_s=arrival[order],
        tenant_id=tenant[order],
        workload_id=np.concatenate(chunks_workload)[order],
        precision_id=np.zeros(len(arrival), dtype=np.int16),
        priority=np.concatenate(chunks_priority)[order],
        ttft_slo_s=np.concatenate(chunks_ttft)[order],
        tpot_slo_s=np.concatenate(chunks_tpot)[order],
    )
    return RequestTrace(name=name, duration_s=duration_s, columns=columns)


def _pick_workloads(spec: TenantSpec, uniforms: np.ndarray) -> np.ndarray:
    """Draw one workload id per uniform from the spec's (normalised) mix.

    ``searchsorted(side="right")`` against the exact running weight sums
    returns the first index whose cumulative weight exceeds the draw — the
    same comparison the scalar scan makes — and the clip reproduces its
    fall-through to the last mix entry.
    """
    cumulative = np.array(spec._cumulative_weights(), dtype=np.float64)
    total = in_order_sum(weight for _, weight in spec.mix)
    draws = uniforms * total
    picks = np.searchsorted(cumulative, draws, side="right")
    return np.minimum(picks, len(cumulative) - 1).astype(np.int32)


def poisson_trace(
    tenants: Sequence[TenantSpec],
    duration_s: float,
    seed: int = 0,
    precision: Precision = Precision.FP32,
) -> RequestTrace:
    """Independent Poisson arrivals per tenant over ``duration_s`` seconds.

    Vectorised: each tenant's whole uniform stream is drawn as one chunk
    (sized from the expected count plus six sigma of slack, doubled on the
    rare shortfall), split into the alternating gap/pick positions the scalar
    loop would have consumed, and turned into arrivals with one ``log``, one
    ``cumsum`` and one ``searchsorted``.  Bit-identical to the per-request
    reference in :mod:`repro.conformance.serve_oracle` element for element.
    """
    if duration_s <= 0:
        raise ValueError(f"duration must be positive, got {duration_s}")
    per_tenant = []
    for spec in tenants:
        expected = spec.rate_rps * duration_s
        draws = int(expected + 6.0 * math.sqrt(expected + 1.0)) + 16
        while True:
            rng = _seeded_generator(f"{seed}/poisson/{spec.name}")
            uniforms = rng.random(2 * draws)
            gaps = -np.log(1.0 - uniforms[0::2]) / spec.rate_rps
            arrivals = np.cumsum(gaps)
            # The scalar loop stops at the first clock >= duration; that
            # terminating draw must be inside the chunk or the count is a lie.
            count = int(np.searchsorted(arrivals, duration_s, side="left"))
            if count < len(gaps):
                break
            draws *= 2
        picks = _pick_workloads(spec, uniforms[1::2][:count])
        per_tenant.append((spec, arrivals[:count], picks))
    return _merge_tenant_columns(f"poisson-seed{seed}", duration_s, precision, per_tenant)


def _bursty_rates(spec: TenantSpec, burst_factor: float, burst_fraction: float) -> Tuple[float, float]:
    """(on rate, off rate) preserving the spec's mean rate exactly."""
    if burst_factor * burst_fraction >= 1.0:
        return spec.rate_rps / burst_fraction, 0.0
    on_rate = spec.rate_rps * burst_factor
    off_rate = spec.rate_rps * (1.0 - burst_factor * burst_fraction) / (1.0 - burst_fraction)
    return on_rate, off_rate


def bursty_trace(
    tenants: Sequence[TenantSpec],
    duration_s: float,
    seed: int = 0,
    precision: Precision = Precision.FP32,
    burst_factor: float = 8.0,
    burst_fraction: float = 0.2,
    cycle_s: float = 0.25,
) -> RequestTrace:
    """On/off modulated Poisson arrivals: periodic bursts, same mean rate.

    Each tenant's rate alternates between an elevated burst rate during the
    first ``burst_fraction`` of every ``cycle_s``-second cycle and a reduced
    off rate, chosen so the time-averaged rate equals ``rate_rps`` exactly:
    when ``burst_factor * burst_fraction >= 1`` all arrivals fall inside the
    bursts (burst rate ``rate / burst_fraction``), otherwise the burst rate is
    ``rate * burst_factor`` and the remainder spreads over the off phase.
    Sampling uses Lewis–Shedler thinning, which stays exact for any piecewise
    rate function and deterministic under the seeded generator.

    Thinning consumes a data-dependent number of uniforms per candidate (two,
    plus one more on acceptance), so the stream cannot be split into fixed
    positions like the Poisson case; instead the whole stream is drawn as one
    bulk chunk with every candidate gap ``-log(1-u)/on_rate`` precomputed in
    one vectorised pass, leaving only the accept/advance scan in Python.
    Bit-identical to the per-request reference in
    :mod:`repro.conformance.serve_oracle`.
    """
    if duration_s <= 0:
        raise ValueError(f"duration must be positive, got {duration_s}")
    if burst_factor < 1:
        raise ValueError(f"burst factor must be >= 1, got {burst_factor}")
    if not 0 < burst_fraction < 1:
        raise ValueError(f"burst fraction must be in (0, 1), got {burst_fraction}")
    if cycle_s <= 0:
        raise ValueError(f"cycle length must be positive, got {cycle_s}")
    per_tenant = []
    for spec in tenants:
        on_rate, off_rate = _bursty_rates(spec, burst_factor, burst_fraction)
        expected = on_rate * duration_s
        candidates = int(expected + 6.0 * math.sqrt(expected + 1.0)) + 16
        cumulative = spec._cumulative_weights()
        last_pick = len(spec.mix) - 1
        total = in_order_sum(weight for _, weight in spec.mix)
        while True:
            rng = _seeded_generator(f"{seed}/bursty/{spec.name}")
            uniforms = rng.random(3 * candidates)
            # Candidate gaps for *every* stream position: only the positions
            # the scan lands on are used, but precomputing all of them keeps
            # the log vectorised (and element-identical to the scalar calls).
            gaps = (-np.log(1.0 - uniforms) / on_rate).tolist()
            stream = uniforms.tolist()
            limit = len(stream)
            arrivals: List[float] = []
            picks: List[int] = []
            clock, position, exhausted = 0.0, 0, False
            while True:
                if position + 3 > limit:
                    exhausted = True
                    break
                clock += gaps[position]
                position += 1
                if clock >= duration_s:
                    break
                in_burst = (clock % cycle_s) / cycle_s < burst_fraction
                rate_now = on_rate if in_burst else off_rate
                accept = stream[position] * on_rate < rate_now  # thinning acceptance
                position += 1
                if accept:
                    draw = stream[position] * total
                    position += 1
                    arrivals.append(clock)
                    picks.append(min(bisect_right(cumulative, draw), last_pick))
            if not exhausted:
                break
            candidates *= 2
        per_tenant.append((spec,
                           np.array(arrivals, dtype=np.float64),
                           np.array(picks, dtype=np.int32)))
    return _merge_tenant_columns(f"bursty-seed{seed}", duration_s, precision, per_tenant)


# ---------------------------------------------------------------- trace replay
#: The numeric fields of a replay record, and whether each must be whole.
_NUMBER_FIELDS = (
    ("arrival_s", False),
    ("priority", True),
    ("ttft_slo_s", False),
    ("tpot_slo_s", False),
    ("request_id", True),
)


def _iter_json_records(text: str) -> Iterator[object]:
    """Yield the elements of a top-level JSON array one at a time.

    An incremental ``raw_decode`` walk: each record is parsed and handed to
    the caller immediately, so a million-request replay file never exists as
    a simultaneous list-of-dicts in memory — the caller interns each record
    into column buffers and drops it.
    """
    decoder = json.JSONDecoder()
    position, end = 0, len(text)
    while position < end and text[position].isspace():
        position += 1
    if position >= end or text[position] != "[":
        raise ValueError("replay source must be a JSON list of arrival records")
    position += 1
    first = True
    while True:
        while position < end and text[position].isspace():
            position += 1
        if position >= end:
            raise ValueError("replay source ends before the closing ']'")
        if text[position] == "]":
            position += 1
            break
        if not first:
            if text[position] != ",":
                raise ValueError(f"malformed replay list near offset {position}")
            position += 1
            while position < end and text[position].isspace():
                position += 1
        record, position = decoder.raw_decode(text, position)
        first = False
        yield record
    while position < end and text[position].isspace():
        position += 1
    if position != end:
        raise ValueError("trailing data after the replay record list")


def replay_trace(source: Union[str, Path, Iterable[dict]], name: str = "replay") -> RequestTrace:
    """Rebuild a trace from a JSON file path or an iterable of arrival records.

    Each record needs ``tenant``, ``workload`` and ``arrival_s``;
    ``precision``, ``priority`` and the ``ttft_slo_s``/``tpot_slo_s``
    deadlines are optional (default fp32, priority 0, no deadlines), so
    traces recorded before those fields existed replay unchanged.  A JSON
    boolean in a numeric field, or a fraction in ``priority`` or
    ``request_id``, is an error naming the record and the field, never
    coerced to a number.  Records are re-sorted and re-numbered, so a
    hand-edited file stays valid — unless they carry explicit ``request_id``
    fields, which must then be unique and increasing in file order (a
    duplicated or out-of-order id in a recorded trace means the file was
    corrupted or mis-merged, so it is an error, not something to silently
    renumber away).

    File input streams record by record straight into column buffers: no
    intermediate list of dicts is ever built, so replaying a million-request
    file costs the columns plus one parsed record at a time.
    """
    if isinstance(source, (str, Path)):
        records: Iterable[object] = _iter_json_records(Path(source).read_text())
        name = Path(source).stem
    else:
        records = source
        if isinstance(records, (dict, str, bytes)):
            raise ValueError("replay source must be a JSON list of arrival records")

    arrivals: List[float] = []
    tenant_ids: List[int] = []
    workload_ids: List[int] = []
    precision_ids: List[int] = []
    priorities: List[int] = []
    ttfts: List[float] = []
    tpots: List[float] = []
    tenant_index: dict = {}
    workload_index: dict = {}
    precision_index: dict = {}
    explicit_ids: List[int] = []
    last_id: Optional[int] = None

    for sequence, record in enumerate(records):
        if not isinstance(record, dict):
            raise ValueError(f"replay record {sequence} is malformed: {record!r}")
        # Checked before float()/int() below would coerce them silently.
        for field, whole in _NUMBER_FIELDS:
            problem = _number_problem(field, record.get(field), whole)
            if problem is not None:
                raise ValueError(f"replay record {sequence}: {problem}")
        try:
            arrival = float(record["arrival_s"])
            tenant = str(record["tenant"])
            workload = str(record["workload"])
            priority = int(record.get("priority", 0))
            ttft_slo = record.get("ttft_slo_s")
            tpot_slo = record.get("tpot_slo_s")
            ttft = math.nan if ttft_slo is None else float(ttft_slo)
            tpot = math.nan if tpot_slo is None else float(tpot_slo)
        except (KeyError, TypeError, ValueError) as error:
            raise ValueError(f"replay record {sequence} is malformed: {record!r}") from error
        problem = _field_problem(
            arrival, priority, None if ttft_slo is None else ttft,
            None if tpot_slo is None else tpot)
        if problem is not None:
            raise ValueError(f"replay record {sequence}: {problem}")
        if "request_id" in record:
            request_id = int(record["request_id"])
            if last_id is not None and request_id <= last_id:
                kind = "duplicate" if request_id == last_id else "out-of-order"
                raise ValueError(
                    f"replay record {sequence}: {kind} request_id {request_id} "
                    f"(previous id {last_id}); recorded ids must be unique and increasing")
            last_id = request_id
            explicit_ids.append(request_id)
        elif explicit_ids:
            raise ValueError(
                f"replay record {sequence} is missing request_id but earlier records "
                f"carry one; ids must be present on all records or none")
        precision = Precision.from_string(record.get("precision", "fp32"))
        arrivals.append(arrival)
        tenant_ids.append(tenant_index.setdefault(tenant, len(tenant_index)))
        workload_ids.append(workload_index.setdefault(workload, len(workload_index)))
        precision_ids.append(precision_index.setdefault(precision, len(precision_index)))
        priorities.append(priority)
        ttfts.append(ttft)
        tpots.append(tpot)
    if explicit_ids and len(explicit_ids) != len(arrivals):
        raise ValueError("replay records mix explicit request_id with records lacking one")

    count = len(arrivals)
    arrival_array = np.array(arrivals, dtype=np.float64)
    # Canonical generator order: (arrival, tenant name, file sequence), then
    # ids by position.  Interning gave tenants first-seen ids, so sort the
    # table first and remap.
    tenants = sorted(tenant_index)
    tenant_rank = {tenant: rank for rank, tenant in enumerate(tenants)}
    remap_tenant = np.array([tenant_rank[t] for t in tenant_index], dtype=np.int32)
    tenant_array = remap_tenant[np.array(tenant_ids, dtype=np.int32)] if count else \
        np.empty(0, np.int32)
    workloads = sorted(workload_index)
    workload_rank = {workload: rank for rank, workload in enumerate(workloads)}
    remap_workload = np.array([workload_rank[w] for w in workload_index], dtype=np.int32)
    workload_array = remap_workload[np.array(workload_ids, dtype=np.int32)] if count else \
        np.empty(0, np.int32)
    precisions = tuple(precision_index) if precision_index else (Precision.FP32,)

    order = np.lexsort((np.arange(count, dtype=np.int64), tenant_array, arrival_array)) \
        if count else np.empty(0, np.int64)
    columns = TraceColumns(
        tenants=tuple(tenants),
        workloads=tuple(workloads),
        precisions=precisions,
        request_id=np.arange(count, dtype=np.int64),
        arrival_s=arrival_array[order],
        tenant_id=tenant_array[order],
        workload_id=workload_array[order],
        precision_id=np.array(precision_ids, dtype=np.int16)[order] if count else
        np.empty(0, np.int16),
        priority=np.array(priorities, dtype=np.int32)[order] if count else
        np.empty(0, np.int32),
        ttft_slo_s=np.array(ttfts, dtype=np.float64)[order] if count else
        np.empty(0, np.float64),
        tpot_slo_s=np.array(tpots, dtype=np.float64)[order] if count else
        np.empty(0, np.float64),
    )
    duration = float(arrival_array.max()) if count else 0.0
    return RequestTrace(name=name, duration_s=duration, columns=columns)
