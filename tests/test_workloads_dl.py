"""Tests for the DL workload models (ResNet-50, BERT, GPT-3) and layer lowering."""

import pytest

from repro.gemm.precision import Precision
from repro.workloads import (
    BERT_BASE,
    BERT_LARGE,
    GPT3_CONFIGS,
    attention_gemms,
    bert_graph,
    conv2d_gemm,
    dl_benchmark_suite,
    elementwise_cost,
    gpt3_graph,
    linear_gemm,
    resnet50_graph,
    workload_graph_by_name,
)


class TestLayerLowering:
    def test_conv2d_im2col_dimensions(self):
        # 3x3 conv, 64->128 channels, 56x56 input, stride 1, batch 4.
        shape = conv2d_gemm(4, 64, 128, 3, 1, 56)
        assert shape.m == 4 * 56 * 56
        assert shape.k == 3 * 3 * 64
        assert shape.n == 128

    def test_strided_conv_shrinks_output(self):
        shape = conv2d_gemm(1, 64, 64, 3, 2, 56)
        assert shape.m == 28 * 28

    def test_conv_flops_formula(self):
        shape = conv2d_gemm(1, 3, 64, 7, 2, 224)
        assert shape.flops == 2 * (112 * 112) * (7 * 7 * 3) * 64

    def test_linear_gemm(self):
        shape = linear_gemm(32, 1024, 4096)
        assert (shape.m, shape.n, shape.k) == (32, 4096, 1024)

    def test_attention_block_structure(self):
        shapes = attention_gemms(batch=2, seq_len=128, hidden=768, heads=12)
        assert len(shapes) == 6
        # Q/K/V and output projections are token x hidden x hidden.
        assert shapes[0].m == 2 * 128 and shapes[0].n == 768 and shapes[0].k == 768
        # Logit GEMM reduces over the head dimension.
        assert shapes[3].k == 768 // 12

    def test_attention_rejects_indivisible_heads(self):
        with pytest.raises(ValueError):
            attention_gemms(1, 64, 100, 3)

    def test_elementwise_cost(self):
        flops, bytes_touched = elementwise_cost(1000, flops_per_element=4.0, precision=Precision.FP32)
        assert flops == 4000
        assert bytes_touched == 8000


class TestResNet50:
    def test_layer_count_matches_architecture(self):
        workload = resnet50_graph(batch=1)
        # 1 stem + 16 bottlenecks x 3 convs + 4 downsample shortcuts + 1 FC = 54 GEMMs.
        assert len(list(workload.layers())) == 54

    def test_total_flops_in_expected_range(self):
        """ResNet-50 inference is ~4.1 GMACs, i.e. ~8.2 GFLOP, per 224x224 image."""
        workload = resnet50_graph(batch=1)
        per_image_gflops = workload.gemm_flops / 1e9
        assert 7.0 <= per_image_gflops <= 9.5

    def test_flops_scale_linearly_with_batch(self):
        single = resnet50_graph(batch=1).gemm_flops
        batched = resnet50_graph(batch=8).gemm_flops
        assert batched == pytest.approx(8 * single, rel=1e-6)

    def test_has_non_gemm_tail(self):
        workload = resnet50_graph(batch=4)
        assert workload.non_gemm_flops > 0
        assert workload.non_gemm_bytes > 0

    def test_precision_propagates(self):
        workload = resnet50_graph(batch=1, precision=Precision.FP16)
        assert all(shape.precision is Precision.FP16 for shape in workload.layers())

    def test_invalid_batch_rejected(self):
        with pytest.raises(ValueError):
            resnet50_graph(batch=0)


class TestBERT:
    def test_gemms_per_layer(self):
        workload = bert_graph(BERT_BASE, batch=1, seq_len=128)
        assert len(list(workload.layers())) == BERT_BASE.layers * 8  # 6 attention + 2 MLP per layer

    def test_base_flops_in_expected_range(self):
        """BERT-base at seq 128 is ~22.5 GFLOP of GEMMs per sequence."""
        workload = bert_graph(BERT_BASE, batch=1, seq_len=128)
        gflops = workload.gemm_flops / 1e9
        assert 18 <= gflops <= 28

    def test_large_has_more_work_than_base(self):
        base = bert_graph(BERT_BASE, batch=1, seq_len=128).gemm_flops
        large = bert_graph(BERT_LARGE, batch=1, seq_len=128).gemm_flops
        assert large > 2.5 * base

    def test_sequence_length_grows_attention_quadratically(self):
        short = bert_graph(BERT_BASE, batch=1, seq_len=128)
        long = bert_graph(BERT_BASE, batch=1, seq_len=512)
        assert long.gemm_flops > 3.9 * short.gemm_flops


class TestGPT3:
    def test_known_variants_exposed(self):
        assert {"gpt3-2.7b", "gpt3-6.7b", "gpt3-175b"} <= set(GPT3_CONFIGS)

    def test_layer_override(self):
        full = gpt3_graph("gpt3-2.7b", batch=1, seq_len=256)
        proxy = gpt3_graph("gpt3-2.7b", batch=1, seq_len=256, num_layers=4)
        assert len(list(proxy.layers())) == 4 * 8
        assert proxy.gemm_flops < full.gemm_flops

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            gpt3_graph("gpt3-13b")

    def test_hidden_divisible_by_heads_for_all_variants(self):
        for config in GPT3_CONFIGS.values():
            assert config.hidden % config.heads == 0

    def test_prefill_flops_scale_with_hidden_squared(self):
        small = gpt3_graph("gpt3-small", batch=1, seq_len=128, num_layers=2).gemm_flops
        large = gpt3_graph("gpt3-xl", batch=1, seq_len=128, num_layers=2).gemm_flops
        assert large > 4 * small


class TestRegistry:
    def test_suite_has_three_networks_in_paper_order(self):
        suite = dl_benchmark_suite()
        assert len(suite) == 3
        assert suite[0].name.startswith("resnet50")
        assert suite[1].name.startswith("bert")
        assert suite[2].name.startswith("gpt3")

    def test_suite_uses_fp32_by_default(self):
        for workload in dl_benchmark_suite():
            assert all(shape.precision is Precision.FP32 for shape in workload.layers())

    def test_workload_graph_by_name(self):
        assert workload_graph_by_name("BERT").name.startswith("bert")
        with pytest.raises(ValueError):
            workload_graph_by_name("alexnet")
