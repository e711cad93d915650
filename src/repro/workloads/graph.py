"""Phase-aware workload IR: networks as ordered streams of GEMM phases.

The Fig. 8 evaluation treats a network as one flat GEMM list, which is fine
for a single inference pass but loses exactly the structure that serving and
design-space studies care about: an LLM's prefill and decode phases have
radically different GEMM shapes and reuse, a ResNet's conv stages shrink
spatially while growing in channels, and a mixture-of-experts FFN routes a
token subset through each expert.  The :class:`WorkloadGraph` IR keeps that
structure: a named, ordered list of :class:`Phase` objects, each carrying its
GEMM shapes plus the metadata the consumers need —

* **footprint** — unique operand bytes streamed per execution of the phase;
* **reuse** — FLOPs per byte (arithmetic intensity), the roofline axis that
  separates compute-bound prefill from bandwidth-bound decode;
* **growth over steps** — ``step`` orders decode phases and ``state_bytes``
  records the resident state (e.g. the KV cache) at that step, so consumers
  can see the footprint grow token by token.

Consumers that do not care about phases (Fig. 8, the baselines, the GEMM+
mapping) walk :meth:`WorkloadGraph.layers`, the GEMM stream in execution
order; ``to_json``/``from_json`` round-trip the IR for export and replay.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.gemm.precision import Precision
from repro.gemm.workloads import GEMMShape

__all__ = ["PhaseKind", "Phase", "WorkloadGraph"]


class PhaseKind(enum.Enum):
    """What a phase computes, at the granularity the timing consumers use."""

    PREFILL = "prefill"  # full-sequence transformer pass (prompt processing)
    DECODE = "decode"  # per-token autoregressive step against a KV cache
    CONV = "conv"  # im2col-lowered convolution stage
    LINEAR = "linear"  # fully-connected layers
    MOE = "moe"  # routed mixture-of-experts FFN
    GENERIC = "generic"  # an unstructured GEMM list (square GEMMs, the HPL ladder)


@dataclass(frozen=True)
class Phase:
    """One ordered stage of a workload: a GEMM stream plus its metadata.

    ``shapes`` and the non-GEMM tail describe a *single* execution of the
    phase; ``repeat`` folds consecutive identical executions (e.g. the
    per-layer GEMM set of a transformer, or the per-token GEMMs of a decode
    block) so a 32-layer network stays a handful of phases.  ``step`` orders
    phases that model progress through time (decode blocks), and
    ``state_bytes`` is the resident state the phase needs beyond its
    streaming operands — the KV cache for decode, the expert weights for MoE.
    ``tokens`` counts the output tokens the phase emits (the tokens of a
    decode block); the serving simulator divides decode time by it to report
    time-per-output-token, and it stays 0 for phases that emit none.
    """

    name: str
    kind: PhaseKind
    shapes: Tuple[GEMMShape, ...]
    non_gemm_flops: int = 0
    non_gemm_bytes: int = 0
    repeat: int = 1
    step: int = 0
    state_bytes: int = 0
    tokens: int = 0
    weight_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.shapes:
            raise ValueError(f"phase {self.name!r} has no GEMMs")
        if self.repeat <= 0:
            raise ValueError(f"phase {self.name!r}: repeat must be positive")
        if self.non_gemm_flops < 0 or self.non_gemm_bytes < 0 or self.state_bytes < 0:
            raise ValueError(f"phase {self.name!r}: work and state cannot be negative")
        if self.step < 0 or self.tokens < 0:
            raise ValueError(f"phase {self.name!r}: step and tokens cannot be negative")
        if self.weight_bytes is not None and self.weight_bytes < 0:
            raise ValueError(f"phase {self.name!r}: weight bytes cannot be negative")

    # ------------------------------------------------------------- per-execution
    @property
    def gemm_flops(self) -> int:
        """GEMM FLOPs of one execution of the phase."""
        return sum(shape.flops for shape in self.shapes)

    @property
    def footprint_bytes(self) -> int:
        """Unique operand bytes one execution streams (A + B + C of every GEMM)."""
        return sum(shape.total_bytes for shape in self.shapes)

    @property
    def reuse(self) -> float:
        """FLOPs per operand byte — the roofline arithmetic intensity."""
        total_bytes = self.footprint_bytes + self.non_gemm_bytes
        if total_bytes == 0:
            return 0.0
        return (self.gemm_flops + self.non_gemm_flops) / total_bytes

    @property
    def resident_weight_bytes(self) -> int:
        """Model-weight bytes this phase needs resident while it executes.

        Generators that know their model set ``weight_bytes`` explicitly (the
        LLM phases all carry the full decoder stack, since prefill and decode
        share it).  Otherwise the weights are derived from the B operands —
        the stationary ``k x n`` matrix of each GEMM — summed over the
        ``repeat`` folded executions.  Derived decode phases report 0: their
        ``repeat`` folds layers x tokens, which would multiply-count the
        layer weights they share with prefill.
        """
        if self.weight_bytes is not None:
            return self.weight_bytes
        if self.kind is PhaseKind.DECODE:
            return 0
        per_execution = sum(
            shape.k * shape.n * shape.precision.bytes_per_element for shape in self.shapes
        )
        return per_execution * self.repeat

    # ------------------------------------------------------------------- totals
    @property
    def total_gemm_flops(self) -> int:
        """GEMM FLOPs across all ``repeat`` executions."""
        return self.gemm_flops * self.repeat

    @property
    def total_flops(self) -> int:
        """GEMM plus non-GEMM FLOPs across all ``repeat`` executions."""
        return (self.gemm_flops + self.non_gemm_flops) * self.repeat

    @property
    def total_bytes(self) -> int:
        """Operand bytes streamed across all ``repeat`` executions."""
        return (self.footprint_bytes + self.non_gemm_bytes) * self.repeat

    # --------------------------------------------------------------- serialization
    def to_dict(self) -> dict:
        """The phase as plain JSON-able data (see :meth:`from_dict`).

        Every field is emitted explicitly — including ``repeat``, ``step``
        and ``state_bytes`` when they hold their defaults — so exports are
        lossless and self-describing regardless of how the phase folds its
        repeats (``tests/test_workload_graph.py`` pins this down).
        """
        return {
            "name": self.name,
            "kind": self.kind.value,
            "shapes": [
                {
                    "m": shape.m,
                    "n": shape.n,
                    "k": shape.k,
                    "precision": shape.precision.value,
                }
                for shape in self.shapes
            ],
            "non_gemm_flops": self.non_gemm_flops,
            "non_gemm_bytes": self.non_gemm_bytes,
            "repeat": self.repeat,
            "step": self.step,
            "state_bytes": self.state_bytes,
            "tokens": self.tokens,
            "weight_bytes": self.weight_bytes,
        }

    @classmethod
    def from_dict(cls, record: Mapping) -> "Phase":
        """Rebuild a phase from :meth:`to_dict` output (exact round trip)."""
        try:
            shapes = tuple(
                GEMMShape(
                    int(entry["m"]),
                    int(entry["n"]),
                    int(entry["k"]),
                    Precision.from_string(entry.get("precision", "fp32")),
                )
                for entry in record["shapes"]
            )
            return cls(
                name=str(record["name"]),
                kind=PhaseKind(record.get("kind", "generic")),
                shapes=shapes,
                non_gemm_flops=int(record.get("non_gemm_flops", 0)),
                non_gemm_bytes=int(record.get("non_gemm_bytes", 0)),
                repeat=int(record.get("repeat", 1)),
                step=int(record.get("step", 0)),
                state_bytes=int(record.get("state_bytes", 0)),
                tokens=int(record.get("tokens", 0)),
                weight_bytes=(
                    None
                    if record.get("weight_bytes") is None
                    else int(record["weight_bytes"])
                ),
            )
        except (KeyError, TypeError) as error:
            raise ValueError(f"malformed phase record: {record!r}") from error


@dataclass
class WorkloadGraph:
    """A network lowered to an ordered list of GEMM phases.

    ``params`` records how the graph was generated (variant, batch, sequence
    lengths, ...) so exports are self-describing; it does not affect timing.
    """

    name: str
    phases: List[Phase] = field(default_factory=list)
    params: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError(f"workload graph {self.name!r} has no phases")

    def __iter__(self) -> Iterator[Phase]:
        return iter(self.phases)

    def __len__(self) -> int:
        return len(self.phases)

    @classmethod
    def from_shapes(
        cls,
        name: str,
        shapes: Sequence[GEMMShape],
        non_gemm_flops: int = 0,
        non_gemm_bytes: int = 0,
    ) -> "WorkloadGraph":
        """A one-phase ``GENERIC`` graph over an unstructured GEMM list."""
        phase = Phase(
            name=name,
            kind=PhaseKind.GENERIC,
            shapes=tuple(shapes),
            non_gemm_flops=non_gemm_flops,
            non_gemm_bytes=non_gemm_bytes,
        )
        return cls(name=name, phases=[phase])

    # ------------------------------------------------------------------- totals
    @property
    def gemm_flops(self) -> int:
        """Total GEMM FLOPs across every phase execution."""
        return sum(phase.total_gemm_flops for phase in self.phases)

    @property
    def non_gemm_flops(self) -> int:
        """Total non-GEMM (element-wise tail) FLOPs across every phase."""
        return sum(phase.non_gemm_flops * phase.repeat for phase in self.phases)

    @property
    def non_gemm_bytes(self) -> int:
        """Total bytes the non-GEMM tails touch across every phase."""
        return sum(phase.non_gemm_bytes * phase.repeat for phase in self.phases)

    @property
    def total_flops(self) -> int:
        """GEMM plus non-GEMM FLOPs over the whole graph."""
        return sum(phase.total_flops for phase in self.phases)

    @property
    def footprint_bytes(self) -> int:
        """Operand bytes streamed over the whole graph."""
        return sum(phase.total_bytes for phase in self.phases)

    @property
    def peak_state_bytes(self) -> int:
        """Largest resident state any phase needs (e.g. the final KV cache)."""
        return max(phase.state_bytes for phase in self.phases)

    @property
    def weight_bytes(self) -> int:
        """Resident model-weight bytes the graph needs on one server.

        Phases with an explicit :attr:`Phase.weight_bytes` declare the *total*
        shared weights of their model (prefill and decode carry the same
        stack), so they contribute a maximum; phases that derive their weights
        from B operands each own distinct layers (conv stages, MLP blocks),
        so they accumulate.  The resident requirement is whichever is larger.
        """
        explicit = max(
            (phase.weight_bytes for phase in self.phases if phase.weight_bytes is not None),
            default=0,
        )
        derived = sum(
            phase.resident_weight_bytes
            for phase in self.phases
            if phase.weight_bytes is None
        )
        return max(explicit, derived)

    @property
    def total_tokens(self) -> int:
        """Output tokens the graph emits (0 for graphs without decode phases)."""
        return sum(phase.tokens for phase in self.phases)

    @property
    def phase_names(self) -> List[str]:
        """The phase names, in execution order."""
        return [phase.name for phase in self.phases]

    def state_growth(self) -> List[Tuple[str, int]]:
        """``(phase name, state_bytes)`` in phase order — how state grows."""
        return [(phase.name, phase.state_bytes) for phase in self.phases]

    # ------------------------------------------------------------------ lowering
    def layers(self) -> Iterator[GEMMShape]:
        """Every GEMM in execution order: each phase's shapes ``repeat`` times.

        Consumers that time a plain layer stream (Fig. 8, the baselines, the
        GEMM+ mapping) walk this; the order fixes the order of their float sums.
        """
        for phase in self.phases:
            for _ in range(phase.repeat):
                yield from phase.shapes

    # --------------------------------------------------------------- serialization
    def to_dict(self) -> dict:
        """The graph as plain JSON-able data: name, params, explicit phases."""
        return {
            "name": self.name,
            "params": dict(self.params),
            "phases": [phase.to_dict() for phase in self.phases],
        }

    def to_json(self, indent: int = 2) -> str:
        """Stable JSON text (sorted keys, so identical graphs compare equal)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, record: Mapping) -> "WorkloadGraph":
        """Rebuild a graph from :meth:`to_dict` output (exact round trip)."""
        try:
            phases = [Phase.from_dict(entry) for entry in record["phases"]]
            return cls(
                name=str(record["name"]),
                phases=phases,
                params=dict(record.get("params", {})),
            )
        except (KeyError, TypeError) as error:
            raise ValueError(f"malformed workload graph record: {record!r}") from error

    @classmethod
    def from_json(cls, text: str) -> "WorkloadGraph":
        """Parse :meth:`to_json` output (``repro.cli workloads export``) back."""
        return cls.from_dict(json.loads(text))

    # ---------------------------------------------------------------- reporting
    def summary_rows(self) -> List[List[object]]:
        """Per-phase description rows for the CLI ``workloads describe`` table."""
        rows: List[List[object]] = []
        for phase in self.phases:
            rows.append(
                [
                    phase.name,
                    phase.kind.value,
                    phase.repeat,
                    len(phase.shapes),
                    phase.total_gemm_flops / 1e9,
                    phase.footprint_bytes / 1e6,
                    phase.state_bytes / 1e6,
                    phase.reuse,
                ]
            )
        return rows
