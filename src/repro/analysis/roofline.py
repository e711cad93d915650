"""Roofline analysis for MACO compute nodes.

A roofline model relates a kernel's arithmetic intensity (FLOPs per byte moved
at some level of the memory hierarchy) to the attainable throughput given the
compute peak and the memory bandwidth.  The MACO evaluation never plots a
roofline, but the model is the standard lens for the questions the paper's
figures answer (when is the MMAE compute-bound? when does the NoC/DRAM share
start to matter?), so the analysis package provides it for the examples and
for design-space exploration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.config import MACOConfig, maco_default_config
from repro.core.perf import memory_environment
from repro.gemm.precision import Precision
from repro.gemm.workloads import GEMMShape
from repro.mmae.dataflow import build_tile_schedule


@dataclass(frozen=True)
class Roofline:
    """A two-ceiling roofline: compute peak and one memory bandwidth."""

    peak_gflops: float
    bandwidth_gbytes_per_s: float

    def __post_init__(self) -> None:
        if self.peak_gflops <= 0 or self.bandwidth_gbytes_per_s <= 0:
            raise ValueError("peak and bandwidth must be positive")

    @property
    def ridge_intensity(self) -> float:
        """Arithmetic intensity (FLOP/byte) where the kernel becomes compute bound."""
        return self.peak_gflops / self.bandwidth_gbytes_per_s

    def attainable_gflops(self, intensity: float) -> float:
        """Attainable throughput for a kernel of the given arithmetic intensity."""
        if intensity <= 0:
            raise ValueError("arithmetic intensity must be positive")
        return min(self.peak_gflops, intensity * self.bandwidth_gbytes_per_s)

    def is_compute_bound(self, intensity: float) -> bool:
        return intensity >= self.ridge_intensity


@dataclass
class RooflinePoint:
    """One kernel placed on the roofline."""

    label: str
    intensity: float
    attainable_gflops: float
    compute_bound: bool


def node_roofline(
    config: Optional[MACOConfig] = None,
    precision: Precision = Precision.FP64,
    active_nodes: int = 1,
    level: str = "dram",
) -> Roofline:
    """The roofline of one MACO compute node at a given contention level.

    ``level`` selects the bandwidth ceiling: ``"noc"`` uses the node's NoC port
    (the L3-traffic ceiling), ``"dram"`` uses the node's share of the DDR
    controllers (the ceiling that moves as more nodes become active).
    """
    config = config if config is not None else maco_default_config()
    env = memory_environment(config, active_nodes)
    if level == "noc":
        bandwidth = env.noc_node_bandwidth_bytes_per_s
    elif level == "dram":
        bandwidth = env.dram_bandwidth_share_bytes_per_s
    else:
        raise ValueError(f"unknown roofline level {level!r}; expected 'noc' or 'dram'")
    return Roofline(
        peak_gflops=config.mmae.peak_gflops(precision),
        bandwidth_gbytes_per_s=bandwidth / 1e9,
    )


def place_gemm(
    shape: GEMMShape,
    config: Optional[MACOConfig] = None,
    active_nodes: int = 1,
    level: str = "dram",
) -> RooflinePoint:
    """Place a (tiled) GEMM on the node roofline using the modelled traffic.

    The arithmetic intensity uses the tile schedule's traffic at the selected
    level (L3 traffic for ``"noc"``, DRAM traffic for ``"dram"``), i.e. the
    reuse the buffers / the L3 actually achieve, not the ideal operand sizes.
    """
    config = config if config is not None else maco_default_config()
    env = memory_environment(config, active_nodes)
    schedule = build_tile_schedule(
        shape, config.level1_tile, config.level2_tile, config.mmae.timing_parameters(), env
    )
    if level == "noc":
        bytes_moved = schedule.l3_traffic_bytes
    elif level == "dram":
        bytes_moved = schedule.dram_traffic_bytes
    else:
        raise ValueError(f"unknown roofline level {level!r}")
    intensity = shape.flops / bytes_moved if bytes_moved else float("inf")
    roofline = node_roofline(config, shape.precision, active_nodes, level)
    return RooflinePoint(
        label=f"{shape.m}x{shape.n}x{shape.k} ({shape.precision})",
        intensity=intensity,
        attainable_gflops=roofline.attainable_gflops(intensity),
        compute_bound=roofline.is_compute_bound(intensity),
    )


def roofline_sweep(
    sizes: List[int],
    config: Optional[MACOConfig] = None,
    precision: Precision = Precision.FP64,
    active_nodes: int = 1,
    level: str = "dram",
) -> Dict[int, RooflinePoint]:
    """Place a square GEMM of every size on the roofline."""
    return {
        size: place_gemm(GEMMShape(size, size, size, precision), config, active_nodes, level)
        for size in sizes
    }
