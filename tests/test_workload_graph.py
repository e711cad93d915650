"""Tests for the phase-aware workload IR, the scenario catalog and per-phase sweeps."""


import pytest

from repro.core import DesignPoint, DesignSpaceExplorer, maco_default_config
from repro.gemm.precision import Precision
from repro.gemm.workloads import GEMMShape
from repro.workloads import (
    LLAMA_CONFIGS,
    Phase,
    PhaseKind,
    WorkloadGraph,
    bert_graph,
    kv_cache_bytes,
    llm_workload_graph,
    moe_workload_graph,
    resnet50_graph,
    workload_catalog,
    workload_graph_by_name,
    workload_names,
)


def small_phase(name="p", kind=PhaseKind.GENERIC, repeat=1, step=0, state=0):
    return Phase(name=name, kind=kind, shapes=(GEMMShape(8, 8, 8),),
                 non_gemm_flops=16, non_gemm_bytes=64, repeat=repeat, step=step,
                 state_bytes=state)


# ---------------------------------------------------------------------- the IR
class TestPhase:
    def test_metadata_per_execution_and_totals(self):
        shape = GEMMShape(64, 32, 16, Precision.FP32)
        phase = Phase(name="x", kind=PhaseKind.GENERIC, shapes=(shape,),
                      non_gemm_flops=100, non_gemm_bytes=50, repeat=4)
        assert phase.gemm_flops == shape.flops
        assert phase.footprint_bytes == shape.total_bytes
        assert phase.total_gemm_flops == 4 * shape.flops
        assert phase.total_flops == 4 * (shape.flops + 100)
        assert phase.total_bytes == 4 * (shape.total_bytes + 50)
        assert phase.reuse == pytest.approx(
            (shape.flops + 100) / (shape.total_bytes + 50))

    def test_validation(self):
        with pytest.raises(ValueError):
            Phase(name="empty", kind=PhaseKind.GENERIC, shapes=())
        with pytest.raises(ValueError):
            small_phase(repeat=0)
        with pytest.raises(ValueError):
            Phase(name="neg", kind=PhaseKind.GENERIC, shapes=(GEMMShape(1, 1, 1),),
                  non_gemm_flops=-1)

    def test_phase_dict_round_trip(self):
        phase = small_phase(kind=PhaseKind.DECODE, repeat=3, step=2, state=1024)
        assert Phase.from_dict(phase.to_dict()) == phase

    def test_malformed_phase_record_rejected(self):
        with pytest.raises(ValueError):
            Phase.from_dict({"name": "x"})


class TestWorkloadGraph:
    def test_layers_expand_repeats_in_order(self):
        first = small_phase(name="a", repeat=2)
        second = Phase(name="b", kind=PhaseKind.GENERIC, shapes=(GEMMShape(4, 4, 4),),
                       non_gemm_flops=1, non_gemm_bytes=2)
        graph = WorkloadGraph(name="g", phases=[first, second])
        assert [shape.m for shape in graph.layers()] == [8, 8, 4]
        assert graph.non_gemm_flops == 2 * 16 + 1
        assert graph.non_gemm_bytes == 2 * 64 + 2

    def test_totals_match_the_layer_walk(self):
        graph = workload_graph_by_name("llama-7b@layers=2")
        assert graph.gemm_flops == sum(shape.flops for shape in graph.layers())
        assert graph.total_flops == graph.gemm_flops + graph.non_gemm_flops

    def test_from_shapes_builds_one_generic_phase(self):
        shapes = list(bert_graph(batch=1, seq_len=64).layers())
        graph = WorkloadGraph.from_shapes("flat", shapes, non_gemm_flops=5, non_gemm_bytes=7)
        assert len(graph) == 1
        (phase,) = graph.phases
        assert phase.kind is PhaseKind.GENERIC and phase.name == graph.name == "flat"
        assert list(graph.layers()) == shapes
        assert (graph.non_gemm_flops, graph.non_gemm_bytes) == (5, 7)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            WorkloadGraph(name="hollow", phases=[])

    def test_json_round_trip_exact(self):
        for name in ("llama-7b@decode,batch=2", "moe-8x", "resnet50-conv", "bert"):
            graph = workload_graph_by_name(name)
            clone = WorkloadGraph.from_json(graph.to_json())
            assert clone == graph, name

    def test_json_is_stable_text(self):
        graph = workload_graph_by_name("gpt3")
        assert graph.to_json() == WorkloadGraph.from_json(graph.to_json()).to_json()


# -------------------------------------------------------------- export fidelity
class TestExportExplicitness:
    """Exports must be lossless regardless of folding: every phase record
    carries ``repeat``/``step``/``state_bytes`` explicitly even at their
    defaults, so a round trip cannot silently change the work a graph holds."""

    EXPLICIT_FIELDS = ("name", "kind", "shapes", "non_gemm_flops",
                       "non_gemm_bytes", "repeat", "step", "state_bytes")

    @pytest.mark.parametrize("name", [
        "resnet50",        # conv stages fold with repeat=1 (the default)
        "llama-7b@decode",  # decode blocks fold repeat = layers x tokens
        "bert",            # one phase, repeat = layers
    ])
    def test_every_phase_record_is_explicit(self, name):
        import json

        record = json.loads(workload_graph_by_name(name).to_json())
        for phase_record in record["phases"]:
            for field in self.EXPLICIT_FIELDS:
                assert field in phase_record, (name, phase_record["name"], field)

    def test_unfolded_default_repeat_survives_the_round_trip(self):
        phase = small_phase(repeat=1)
        clone = Phase.from_dict(phase.to_dict())
        assert clone == phase
        assert clone.repeat == 1 and "repeat" in phase.to_dict()

    def test_cli_export_round_trips_through_a_file(self, tmp_path, capsys):
        from repro.cli import main

        target = tmp_path / "graph.json"
        assert main(["workloads", "export", "resnet50", "--output", str(target)]) == 0
        capsys.readouterr()
        clone = WorkloadGraph.from_json(target.read_text())
        original = workload_graph_by_name("resnet50")
        assert clone == original
        assert list(clone.layers()) == list(original.layers())

    @pytest.mark.parametrize("name", sorted(workload_catalog()))
    def test_layers_survive_round_trip(self, name):
        graph = workload_graph_by_name(name)
        clone = WorkloadGraph.from_json(graph.to_json())
        assert list(clone.layers()) == list(graph.layers())
        assert clone.total_flops == graph.total_flops
        assert clone.footprint_bytes == graph.footprint_bytes


# ------------------------------------------------------------------ generators
class TestLLMGraphs:
    def test_prefill_and_decode_phases_present(self):
        graph = llm_workload_graph("llama-7b", prompt_len=128, decode_tokens=32,
                                   decode_block=8, num_layers=2)
        kinds = [phase.kind for phase in graph]
        assert kinds[0] is PhaseKind.PREFILL
        assert all(kind is PhaseKind.DECODE for kind in kinds[1:])
        assert len(graph) == 1 + 32 // 8

    def test_kv_cache_grows_over_decode_steps(self):
        graph = llm_workload_graph("llama-7b", prompt_len=128, decode_tokens=32,
                                   decode_block=8, num_layers=2, phases=("decode",))
        states = [phase.state_bytes for phase in graph]
        assert states == sorted(states)
        assert states[0] < states[-1]
        steps = [phase.step for phase in graph]
        assert steps == sorted(steps)

    def test_decode_attention_reads_growing_kv(self):
        graph = llm_workload_graph("llama-7b", prompt_len=100, decode_tokens=4,
                                   decode_block=1, num_layers=1, phases=("decode",))
        assert len(graph) == 4
        config = LLAMA_CONFIGS["llama-7b"]
        for index, phase in enumerate(graph):
            logits = phase.shapes[3]
            assert logits.n == 100 + index + 1  # KV length at this step
            assert logits.m == config.heads  # batch=1, one token per step
            assert logits.k == config.hidden // config.heads

    def test_prefill_has_higher_reuse_than_decode(self):
        graph = llm_workload_graph("llama-7b", prompt_len=512, decode_tokens=16,
                                   decode_block=16, num_layers=2)
        prefill = graph.phases[0]
        decode = graph.phases[1]
        assert prefill.reuse > 10 * decode.reuse

    def test_kv_cache_bytes_formula(self):
        config = LLAMA_CONFIGS["llama-7b"]
        assert kv_cache_bytes(config, batch=2, kv_len=100, layers=4,
                              precision=Precision.FP16) == 2 * 2 * 100 * 4096 * 4 * 2

    def test_phase_selector_validation(self):
        with pytest.raises(ValueError):
            llm_workload_graph("llama-7b", phases=("prefill", "training"))
        with pytest.raises(ValueError):
            llm_workload_graph("llama-70b")
        with pytest.raises(ValueError):
            llm_workload_graph("llama-7b", decode_tokens=0, phases=("decode",))


class TestConvGraphs:
    def test_stage_phases_cover_all_layers(self):
        graph = resnet50_graph(batch=8)
        assert graph.phase_names == ["stem", "stage1", "stage2", "stage3", "stage4", "fc"]
        assert sum(len(phase.shapes) for phase in graph) == 54

    def test_conv_only_drops_classifier(self):
        conv = resnet50_graph(batch=8, conv_only=True)
        assert "fc" not in conv.phase_names
        assert all(phase.kind is PhaseKind.CONV for phase in conv)
        assert sum(len(phase.shapes) for phase in conv) == 53


class TestMoEGraphs:
    def test_expert_fan_out_shapes(self):
        graph = moe_workload_graph(experts=8, top_k=2, batch=2, seq_len=64, num_layers=2)
        moe_phase = next(phase for phase in graph if phase.kind is PhaseKind.MOE)
        # The router GEMM + (up, down) per expert.
        assert len(moe_phase.shapes) == 1 + 2 * 8
        router = moe_phase.shapes[0]
        assert router.n == 8 and router.m == 2 * 64

    def test_flops_scale_with_top_k_not_experts(self):
        base = moe_workload_graph(experts=8, top_k=2, batch=2, seq_len=64)
        wide = moe_workload_graph(experts=32, top_k=2, batch=2, seq_len=64)
        deep = moe_workload_graph(experts=8, top_k=4, batch=2, seq_len=64)
        assert wide.gemm_flops == pytest.approx(base.gemm_flops, rel=0.05)
        assert deep.gemm_flops > 1.3 * base.gemm_flops

    def test_expert_weights_reported_as_state(self):
        graph = moe_workload_graph(experts=8, top_k=2, hidden=256, intermediate=512)
        moe_phase = next(phase for phase in graph if phase.kind is PhaseKind.MOE)
        assert moe_phase.state_bytes == 8 * 2 * 256 * 512 * 4

    def test_validation(self):
        with pytest.raises(ValueError):
            moe_workload_graph(experts=0)
        with pytest.raises(ValueError):
            moe_workload_graph(experts=4, top_k=5)


# -------------------------------------------------------------------- registry
class TestRegistryCatalog:
    def test_suite_names_unchanged(self):
        assert workload_names() == ["bert", "gpt3", "resnet50"]

    def test_catalog_superset_of_suite(self):
        catalog = workload_catalog()
        assert set(workload_names()) <= set(catalog)
        assert {"llama-7b", "llama-13b", "moe-8x", "resnet50-conv"} <= set(catalog)

    def test_unknown_name_lists_sorted_options(self):
        with pytest.raises(ValueError) as excinfo:
            workload_graph_by_name("alexnet")
        assert str(workload_catalog()) in str(excinfo.value)

    def test_unknown_parameter_lists_options(self):
        with pytest.raises(ValueError) as excinfo:
            workload_graph_by_name("bert@experts=4")
        assert "experts" in str(excinfo.value)
        assert "seq" in str(excinfo.value)

    def test_non_integer_parameter_rejected(self):
        with pytest.raises(ValueError):
            workload_graph_by_name("bert@batch=large")

    def test_duplicate_parameter_rejected(self):
        with pytest.raises(ValueError):
            workload_graph_by_name("bert@batch=2,batch=4")

    def test_every_variant_builds_under_all_precisions(self):
        for name in workload_catalog():
            for precision in Precision:
                graph = workload_graph_by_name(name, precision)
                assert len(graph) >= 1, (name, precision)
                assert all(shape.precision is precision
                           for phase in graph for shape in phase.shapes), (name, precision)

    def test_precision_tag_overrides_argument(self):
        graph = workload_graph_by_name("bert@fp16", Precision.FP32)
        assert all(shape.precision is Precision.FP16
                   for phase in graph for shape in phase.shapes)

    def test_batch_override_scales_flops(self):
        base = workload_graph_by_name("resnet50-conv")
        bigger = workload_graph_by_name("resnet50-conv@batch=16")
        assert bigger.gemm_flops == pytest.approx(2 * base.gemm_flops, rel=1e-6)

    def test_phase_tags_select_subgraphs(self):
        prefill = workload_graph_by_name("llama-7b@prefill")
        decode = workload_graph_by_name("llama-7b@decode")
        both = workload_graph_by_name("llama-7b")
        assert all(phase.kind is PhaseKind.PREFILL for phase in prefill)
        assert all(phase.kind is PhaseKind.DECODE for phase in decode)
        assert len(both) == len(prefill) + len(decode)

    def test_describe_reports_actual_build_parameters(self):
        from repro.workloads import describe_workload

        description = describe_workload("llama-7b@batch=2,layers=1")
        assert description["parameters"]["batch"] == 2
        assert description["parameters"]["layers"] == 1
        assert description["parameters"]["prompt"] == 512  # untouched default

    def test_registry_name_recorded_in_params(self):
        graph = workload_graph_by_name("LLaMA-7B@decode")
        assert graph.params["registry_name"] == "llama-7b@decode"


# ------------------------------------------------------------- per-phase sweeps
@pytest.fixture(scope="module")
def tiny_graph():
    return llm_workload_graph("llama-7b", batch=1, prompt_len=64, decode_tokens=8,
                              decode_block=4, num_layers=1)


class TestPhaseSweeps:
    def test_phase_seconds_sum_to_aggregate(self, tiny_graph):
        explorer = DesignSpaceExplorer(maco_default_config(num_nodes=2))
        point = DesignPoint(name="p", num_nodes=2)
        result = explorer.evaluate_graph(point, tiny_graph)
        assert sum(phase.seconds for phase in result.phases) == pytest.approx(
            result.aggregate.seconds, rel=1e-12)
        assert len(result.phases) == len(tiny_graph)
        assert result.aggregate.point is point

    def test_aggregate_matches_flat_evaluation(self, tiny_graph):
        explorer = DesignSpaceExplorer(maco_default_config(num_nodes=2))
        point = DesignPoint(name="p", num_nodes=2)
        graph_result = explorer.evaluate_graph(point, tiny_graph)
        flat = WorkloadGraph.from_shapes("flat", list(tiny_graph.layers()))
        flat_result = explorer.evaluate(point, flat)
        assert graph_result.aggregate.seconds == pytest.approx(flat_result.seconds, rel=1e-9)
        assert graph_result.aggregate.gflops == pytest.approx(flat_result.gflops, rel=1e-9)

    def test_explore_graph_sorts_by_objective(self, tiny_graph):
        explorer = DesignSpaceExplorer()
        points = [DesignPoint(name="small", sa_rows=2, sa_cols=2, num_nodes=2),
                  DesignPoint(name="big", sa_rows=8, sa_cols=8, num_nodes=2)]
        ranked = explorer.explore_graph(points, tiny_graph, objective="gflops")
        values = [entry.aggregate.gflops for entry in ranked]
        assert values == sorted(values, reverse=True)

    def test_explore_graph_matches_per_point_evaluation(self, tiny_graph):
        explorer = DesignSpaceExplorer()
        points = [DesignPoint(name=f"n{count}", num_nodes=count) for count in (1, 2, 4)]
        ranked = explorer.explore_graph(points, tiny_graph)
        by_name = {entry.aggregate.point.name: entry for entry in ranked}
        assert sorted(by_name) == sorted(point.name for point in points)
        for point in points:
            assert repr(by_name[point.name]) == repr(explorer.evaluate_graph(point, tiny_graph))
