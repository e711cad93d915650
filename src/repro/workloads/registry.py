"""Registry of benchmark workloads and parameterized scenario variants.

Two layers of naming coexist:

* the **Fig. 8 benchmark suite** — ``resnet50``, ``bert``, ``gpt3`` — the
  three fixed-shape networks the paper compares systems on
  (:func:`workload_names`, :func:`dl_benchmark_suite`), beside the HPL-style
  square-GEMM ladder of Figs. 6-7 (:func:`hpl_graph`);
* the **scenario catalog** — every registered variant, each of which builds a
  phase-aware :class:`~repro.workloads.graph.WorkloadGraph` and accepts
  parameter overrides in the name itself::

      llama-7b@decode              # decode-only LLM generation
      llama-7b@prefill,batch=4     # prompt ingest at batch 4
      resnet50-conv@batch=16       # conv stages only, batch 16
      moe-8x@experts=16,top_k=4    # wider expert fan-out
      bert@seq=512,fp16            # longer sequences, half precision

The grammar after ``@`` is a comma-separated list of ``key=value`` overrides
and bare tags (``prefill``/``decode`` select LLM phases, ``fp16``/``fp32``/
``fp64`` select precision).  Unknown base names and unknown parameter keys
raise ``ValueError`` naming the sorted alternatives, so typos fail loudly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.gemm.precision import Precision
from repro.gemm.workloads import GEMMShape
from repro.workloads.bert import BERT_LARGE, bert_graph
from repro.workloads.gpt3 import gpt3_graph
from repro.workloads.graph import WorkloadGraph
from repro.workloads.llm import llm_workload_graph
from repro.workloads.moe import moe_workload_graph
from repro.workloads.resnet50 import resnet50_graph

__all__ = [
    "WorkloadVariant",
    "catalog_entry",
    "workload_names",
    "workload_catalog",
    "workload_graph_by_name",
    "describe_workload",
    "dl_benchmark_suite",
    "hpl_graph",
]

#: The three Fig. 8 benchmarks, in paper order.
_SUITE: Tuple[str, ...] = ("resnet50", "bert", "gpt3")


@dataclass(frozen=True)
class WorkloadVariant:
    """One catalog entry: a graph builder plus its overridable parameters."""

    name: str
    summary: str
    build: Callable[..., WorkloadGraph]
    defaults: Tuple[Tuple[str, object], ...] = ()

    @property
    def params(self) -> List[str]:
        """Names of the parameters the variant accepts via ``@key=value``."""
        return [key for key, _ in self.defaults]


def _build_resnet50(precision: Precision, batch: int = 8) -> WorkloadGraph:
    return resnet50_graph(batch=batch, precision=precision)


def _build_resnet50_conv(precision: Precision, batch: int = 8) -> WorkloadGraph:
    return resnet50_graph(batch=batch, precision=precision, conv_only=True)


def _build_bert(precision: Precision, batch: int = 8, seq: int = 384) -> WorkloadGraph:
    return bert_graph(config=BERT_LARGE, batch=batch, seq_len=seq, precision=precision)


def _build_gpt3(
    precision: Precision, batch: int = 4, seq: int = 1024, layers: int = 8
) -> WorkloadGraph:
    return gpt3_graph(variant="gpt3-2.7b", batch=batch, seq_len=seq,
                      num_layers=layers, precision=precision)


def _llm_builder(variant: str) -> Callable[..., WorkloadGraph]:
    def build(
        precision: Precision,
        batch: int = 1,
        prompt: int = 512,
        decode: int = 64,
        block: int = 16,
        layers: int = 8,
        phases: Tuple[str, ...] = ("prefill", "decode"),
    ) -> WorkloadGraph:
        return llm_workload_graph(
            variant=variant, batch=batch, prompt_len=prompt, decode_tokens=decode,
            decode_block=block, num_layers=layers, precision=precision, phases=phases,
        )

    return build


def _build_moe(
    precision: Precision,
    experts: int = 8,
    top_k: int = 2,
    batch: int = 4,
    seq: int = 512,
    layers: int = 8,
) -> WorkloadGraph:
    return moe_workload_graph(experts=experts, top_k=top_k, batch=batch, seq_len=seq,
                              num_layers=layers, precision=precision)


_LLM_DEFAULTS: Tuple[Tuple[str, object], ...] = (
    ("batch", 1), ("prompt", 512), ("decode", 64), ("block", 16), ("layers", 8),
    ("phases", ("prefill", "decode")),
)

_CATALOG: Dict[str, WorkloadVariant] = {
    variant.name: variant
    for variant in (
        WorkloadVariant(
            "resnet50",
            "ResNet-50 inference, conv stages im2col-lowered plus the FC tail (Fig. 8)",
            _build_resnet50, (("batch", 8),),
        ),
        WorkloadVariant(
            "resnet50-conv",
            "ResNet-50 conv stages only (no FC classifier), one phase per stage",
            _build_resnet50_conv, (("batch", 8),),
        ),
        WorkloadVariant(
            "bert",
            "BERT-large encoder inference at SQuAD-style sequence length (Fig. 8)",
            _build_bert, (("batch", 8), ("seq", 384)),
        ),
        WorkloadVariant(
            "gpt3",
            "GPT-3 2.7B prefill at proxy depth (Fig. 8)",
            _build_gpt3, (("batch", 4), ("seq", 1024), ("layers", 8)),
        ),
        WorkloadVariant(
            "llama-7b",
            "LLaMA-7B inference: prefill plus KV-cache-growing decode blocks",
            _llm_builder("llama-7b"), _LLM_DEFAULTS,
        ),
        WorkloadVariant(
            "llama-13b",
            "LLaMA-13B inference: prefill plus KV-cache-growing decode blocks",
            _llm_builder("llama-13b"), _LLM_DEFAULTS,
        ),
        WorkloadVariant(
            "moe-8x",
            "Sparse mixture-of-experts encoder: dense attention + routed expert FFNs",
            _build_moe,
            (("experts", 8), ("top_k", 2), ("batch", 4), ("seq", 512), ("layers", 8)),
        ),
    )
}

#: Bare tags accepted after ``@`` and the parameter they set.
_PHASE_TAGS = ("prefill", "decode")
_PRECISION_TAGS = ("fp64", "fp32", "fp16")


def _coerce_value(base: str, key: str, raw: str):
    """Parse one ``key=value`` override to the type the builder expects."""
    if key == "precision":
        return Precision.from_string(raw)
    if key == "phases":
        selected = tuple(part for part in raw.split("+") if part)
        return selected
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"workload {base!r}: parameter {key}={raw!r} is not an integer"
        ) from None


def _parse_spec(base: str, spec: str, variant: WorkloadVariant) -> Dict[str, object]:
    """Parse the ``@...`` suffix into builder keyword overrides."""
    allowed = set(variant.params) | {"precision"}
    params: Dict[str, object] = {}
    for token in (part.strip() for part in spec.split(",")):
        if not token:
            continue
        if "=" in token:
            key, _, raw = token.partition("=")
            key = key.strip()
            if key not in allowed:
                raise ValueError(
                    f"workload {base!r} does not take parameter {key!r}; "
                    f"options: {sorted(allowed)}"
                )
            value = _coerce_value(base, key, raw.strip())
        elif token in _PHASE_TAGS:
            key, value = "phases", (token,)
        elif token in _PRECISION_TAGS:
            key, value = "precision", Precision.from_string(token)
        else:
            raise ValueError(
                f"workload {base!r}: unknown tag {token!r}; bare tags: "
                f"{sorted(_PHASE_TAGS + _PRECISION_TAGS)}, parameters: {sorted(allowed)}"
            )
        if key not in allowed:
            raise ValueError(
                f"workload {base!r} does not take parameter {key!r}; "
                f"options: {sorted(allowed)}"
            )
        if key in params:
            raise ValueError(f"workload {base!r}: parameter {key!r} given twice")
        params[key] = value
    return params


def workload_names() -> List[str]:
    """Names of the Fig. 8 benchmark suite workloads, sorted."""
    return sorted(_SUITE)


def workload_catalog() -> List[str]:
    """Every registered scenario variant name, sorted."""
    return sorted(_CATALOG)


def catalog_entry(name: str) -> WorkloadVariant:
    """The catalog entry for a base name (no ``@`` spec), or raise."""
    key = name.strip().lower()
    if key not in _CATALOG:
        raise ValueError(f"unknown workload {name!r}; options: {sorted(_CATALOG)}")
    return _CATALOG[key]


def _resolve(name: str) -> Tuple[str, str, WorkloadVariant, Dict[str, object]]:
    """Parse ``base[@spec]`` into the normalized name, base, variant and overrides."""
    requested = name.strip().lower()
    base, _, spec = requested.partition("@")
    base = base.strip()
    if base not in _CATALOG:
        raise ValueError(f"unknown workload {name!r}; options: {sorted(_CATALOG)}")
    variant = _CATALOG[base]
    return requested, base, variant, _parse_spec(base, spec, variant)


def workload_graph_by_name(name: str, precision: Precision = Precision.FP32) -> WorkloadGraph:
    """Build a phase-aware workload graph from a catalog name with overrides.

    ``name`` is ``base[@spec]`` (see the module docstring for the grammar);
    ``precision`` applies unless the spec overrides it (``@fp16`` or
    ``@precision=fp16``).
    """
    requested, _, variant, params = _resolve(name)
    build_precision = params.pop("precision", precision)
    graph = variant.build(precision=build_precision, **params)
    graph.params["registry_name"] = requested
    return graph


def describe_workload(
    name: str,
    precision: Precision = Precision.FP32,
    graph: WorkloadGraph | None = None,
) -> dict:
    """A JSON-able description of one catalog entry (used by the CLI).

    ``parameters`` reports the values the graph was actually built with —
    the variant defaults overlaid with any ``@key=value`` overrides in
    ``name``.  Callers that already built the graph can pass it to avoid a
    second construction.
    """
    _, base, variant, overrides = _resolve(name)
    if graph is None:
        graph = workload_graph_by_name(name, precision)
    overrides.pop("precision", None)  # reflected in the phases' shapes
    return {
        "name": graph.name,
        "registry_name": graph.params.get("registry_name", base),
        "summary": variant.summary,
        "parameters": {key: overrides.get(key, default) for key, default in variant.defaults},
        "phases": [phase.to_dict() for phase in graph.phases],
        "gemm_flops": graph.gemm_flops,
        "total_flops": graph.total_flops,
        "footprint_bytes": graph.footprint_bytes,
        "peak_state_bytes": graph.peak_state_bytes,
    }


def dl_benchmark_suite(precision: Precision = Precision.FP32) -> List[WorkloadGraph]:
    """The three Fig. 8 benchmarks (ResNet-50, BERT, GPT-3) in paper order."""
    return [workload_graph_by_name(name, precision) for name in _SUITE]


def hpl_graph(
    max_size: int = 9216, step: int = 1024, precision: Precision = Precision.FP64
) -> WorkloadGraph:
    """An HPL-style workload: a ladder of square GEMMs up to ``max_size``.

    The paper sources its GEMM problems from the HPL benchmark package [7];
    HPL's LU factorisation spends its time in trailing-matrix updates whose
    GEMM sizes shrink as the factorisation proceeds, which this ladder mimics.
    """
    if max_size <= 0 or step <= 0:
        raise ValueError("max_size and step must be positive")
    sizes = list(range(step, max_size + 1, step))
    if not sizes:
        sizes = [max_size]
    shapes = [GEMMShape(size, size, size, precision) for size in reversed(sizes)]
    return WorkloadGraph.from_shapes(f"hpl-like-{max_size}", shapes)
