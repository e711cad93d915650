"""ResNet-50 inference as a GEMM stream (He et al., CVPR 2016).

The layer table below follows the standard ResNet-50 architecture: a 7x7 stem,
four stages of bottleneck blocks (3/4/6/3 blocks with 1x1-3x3-1x1
convolutions), and the final fully-connected classifier.  Each convolution is
lowered to its im2col GEMM; the batch-norm/ReLU tails are summarised as
element-wise work for the GEMM+ mapping model.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.gemm.precision import Precision
from repro.gemm.workloads import GEMMShape
from repro.workloads.graph import Phase, PhaseKind, WorkloadGraph
from repro.workloads.layers import LayerKind, LayerSpec, conv2d_gemm, elementwise_cost, linear_gemm


def _bottleneck_stage(
    stage_name: str, input_size: int, in_channels: int, mid_channels: int, blocks: int, stride: int
) -> List[LayerSpec]:
    """One ResNet stage: ``blocks`` bottlenecks, the first possibly strided."""
    out_channels = mid_channels * 4
    layers: List[LayerSpec] = []
    current_in = in_channels
    current_size = input_size
    for block in range(blocks):
        block_stride = stride if block == 0 else 1
        prefix = f"{stage_name}.block{block}"
        layers.append(LayerSpec(f"{prefix}.conv1", LayerKind.CONV2D, current_in, mid_channels, 1, 1, current_size))
        layers.append(
            LayerSpec(f"{prefix}.conv2", LayerKind.CONV2D, mid_channels, mid_channels, 3, block_stride, current_size)
        )
        post_size = -(-current_size // block_stride)
        layers.append(LayerSpec(f"{prefix}.conv3", LayerKind.CONV2D, mid_channels, out_channels, 1, 1, post_size))
        if block == 0:
            # Projection shortcut on the first block of each stage.
            layers.append(
                LayerSpec(f"{prefix}.downsample", LayerKind.CONV2D, current_in, out_channels, 1, block_stride, current_size)
            )
        current_in = out_channels
        current_size = post_size
    return layers


def _build_layers() -> List[LayerSpec]:
    layers: List[LayerSpec] = [
        LayerSpec("stem.conv1", LayerKind.CONV2D, 3, 64, 7, 2, 224),
    ]
    layers += _bottleneck_stage("stage1", 56, 64, 64, blocks=3, stride=1)
    layers += _bottleneck_stage("stage2", 56, 256, 128, blocks=4, stride=2)
    layers += _bottleneck_stage("stage3", 28, 512, 256, blocks=6, stride=2)
    layers += _bottleneck_stage("stage4", 14, 1024, 512, blocks=3, stride=2)
    layers.append(LayerSpec("fc", LayerKind.LINEAR, 2048, 1000))
    return layers


#: The full ResNet-50 layer table used by :func:`resnet50_graph`.
RESNET50_LAYERS: List[LayerSpec] = _build_layers()


def _lower_layer(layer: LayerSpec, batch: int, precision: Precision) -> Tuple[GEMMShape, int, int]:
    """One layer's im2col/FC GEMM plus its element-wise (BN + ReLU) tail."""
    if layer.kind is LayerKind.CONV2D:
        shape = conv2d_gemm(
            batch, layer.in_channels, layer.out_channels, layer.kernel, layer.stride,
            layer.input_size, precision,
        )
        # Batch-norm + ReLU over the layer's output activations.
        flops, bytes_touched = elementwise_cost(shape.m * shape.n, flops_per_element=4.0,
                                                precision=precision)
    else:
        shape = linear_gemm(batch, layer.in_channels, layer.out_channels, precision)
        flops, bytes_touched = elementwise_cost(shape.m * shape.n, flops_per_element=1.0,
                                                precision=precision)
    return shape, flops, bytes_touched


def resnet50_graph(
    batch: int = 8, precision: Precision = Precision.FP32, conv_only: bool = False
) -> WorkloadGraph:
    """ResNet-50 as a phase graph: one CONV phase per stage plus the FC tail.

    Phases follow the network's stages (``stem``, ``stage1`` .. ``stage4``,
    ``fc``); each conv phase carries the stage's im2col GEMMs in layer order,
    so :meth:`~repro.workloads.graph.WorkloadGraph.layers` walks
    :data:`RESNET50_LAYERS` in order.  ``batch = 8`` gives GEMM sizes large
    enough to exercise the MMAE tiling while keeping the per-image latency
    realistic for inference serving.  ``conv_only`` drops the FC classifier,
    leaving the pure conv stream (the ``resnet50-conv`` registry variant).
    """
    if batch <= 0:
        raise ValueError("batch must be positive")
    stages: List[Tuple[str, List[LayerSpec]]] = []
    for layer in RESNET50_LAYERS:
        stage_name = layer.name.split(".", 1)[0]
        if not stages or stages[-1][0] != stage_name:
            stages.append((stage_name, []))
        stages[-1][1].append(layer)

    phases: List[Phase] = []
    for stage_name, layers in stages:
        if conv_only and all(layer.kind is LayerKind.LINEAR for layer in layers):
            continue
        shapes: List[GEMMShape] = []
        stage_flops = 0
        stage_bytes = 0
        for layer in layers:
            shape, flops, bytes_touched = _lower_layer(layer, batch, precision)
            shapes.append(shape)
            stage_flops += flops
            stage_bytes += bytes_touched
        kind = (PhaseKind.CONV if any(layer.kind is LayerKind.CONV2D for layer in layers)
                else PhaseKind.LINEAR)
        phases.append(
            Phase(
                name=stage_name,
                kind=kind,
                shapes=tuple(shapes),
                non_gemm_flops=stage_flops,
                non_gemm_bytes=stage_bytes,
            )
        )
    suffix = "conv" if conv_only else ""
    name = f"resnet50{'-' + suffix if suffix else ''}-b{batch}"
    return WorkloadGraph(
        name=name,
        phases=phases,
        params={"batch": batch, "precision": precision.value, "conv_only": conv_only},
    )

