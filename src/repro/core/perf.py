"""System-level performance model: per-node memory environments and GEMM timing.

This module glues the substrates together for the evaluation sweeps: it
derives the :class:`~repro.mmae.dataflow.MemoryEnvironment` one compute node
sees when ``active_nodes`` nodes are streaming simultaneously (L3 capacity
share, DRAM bandwidth share, queueing-inflated round-trip latencies, the
node's NoC port bandwidth) and wraps
:func:`~repro.mmae.dataflow.estimate_gemm_timing` with the system
configuration.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.config import MACOConfig
from repro.gemm.workloads import GEMMShape
from repro.mem.dram import DRAMModel
from repro.mmae.dataflow import (
    GEMMTimingBreakdown,
    MemoryEnvironment,
    estimate_gemm_timing,
)


def memory_environment(config: MACOConfig, active_nodes: int) -> MemoryEnvironment:
    """The memory system as seen by one node when ``active_nodes`` nodes are busy.

    * **L3 share** — the distributed system cache is shared, so each active
      node can keep roughly ``total / active_nodes`` bytes resident.
    * **DRAM share** — the DDR controllers' effective bandwidth (which erodes
      slightly as stream count grows) divided among the active nodes.
    * **Round-trip latencies** — the base L3/DRAM latencies plus a queueing
      term that grows with the number of active nodes contending at the CCMs
      and memory controllers; the latency-limited DMA engines turn this
      directly into lower sustained bandwidth.
    """
    if not 1 <= active_nodes <= config.num_nodes:
        raise ValueError(f"active_nodes must be in 1..{config.num_nodes}, got {active_nodes}")
    memory = config.memory
    dram = DRAMModel(config=memory.dram)
    dram_share = dram.effective_bandwidth(active_nodes) / active_nodes
    queue_ns = memory.queue_ns_per_active_node * (active_nodes - 1)
    return MemoryEnvironment(
        l3_share_bytes=memory.l3_total_bytes / active_nodes,
        dram_bandwidth_share_bytes_per_s=dram_share,
        noc_node_bandwidth_bytes_per_s=config.noc.node_bandwidth_bytes_per_s,
        l3_round_trip_ns=memory.l3_round_trip_ns + queue_ns,
        dram_round_trip_ns=memory.dram_round_trip_ns + queue_ns,
    )


def unmapped_memory_environment(env: MemoryEnvironment) -> MemoryEnvironment:
    """Degrade ``env`` for runs without the stash/lock mapping scheme.

    Without stash/lock the working set is not pinned: demand traffic competes
    with every other node's streams, so the effective resident L3 share
    collapses to a small fraction (floor 64 KiB) and more of the re-read
    traffic spills to DRAM.  Shared by :meth:`MACOSystem.run_workload`, the
    Gemmini-like baseline and the serving simulator so the degradation model
    stays calibrated in one place.
    """
    from dataclasses import replace

    return replace(env, l3_share_bytes=max(env.l3_share_bytes * 0.125, 64 * 1024))


def estimate_node_gemm(
    config: MACOConfig,
    shape: GEMMShape,
    active_nodes: int = 1,
    prediction_enabled: Optional[bool] = None,
    env: Optional[MemoryEnvironment] = None,
) -> GEMMTimingBreakdown:
    """Timing of one GEMM executed by one MMAE under the given system load."""
    if prediction_enabled is None:
        prediction_enabled = config.prediction_enabled
    if env is None:
        env = memory_environment(config, active_nodes)
    return estimate_gemm_timing(
        shape,
        level1=config.level1_tile,
        level2=config.level2_tile,
        params=config.mmae.timing_parameters(),
        env=env,
        prediction_enabled=prediction_enabled,
        page_size=config.memory.page_size,
    )


class TimingCache:
    """Memoises :func:`estimate_node_gemm` results across sweeps and workloads.

    The cycle-approximate timing of a GEMM is a pure function of
    ``(configuration, shape, active_nodes, prediction, memory environment)``;
    sweeps and DL workloads evaluate the same shapes over and over (the five
    Fig. 8 systems share the networks' layer shapes, design points share
    configurations, figure regenerations rerun whole sweeps), so memoising
    the breakdown skips re-walking the tile schedule.  Entries are evicted
    FIFO past ``max_entries``.  Hits return the stored instance directly;
    that is safe because :class:`~repro.mmae.dataflow.GEMMTimingBreakdown`
    is frozen.

    The key holds the :class:`~repro.core.config.MACOConfig` and the
    :class:`~repro.mmae.dataflow.MemoryEnvironment` themselves: both are
    frozen dataclasses, so they hash and compare by value (a lookup hashes
    their field tuples), and two equal configurations built separately
    share one entry.  Lookups track distinct layer shapes, not layers or nodes: the layer
    stream (:func:`repro.core.mapping.layer_stream_seconds`) and the
    parallel phase planners price each distinct shape once per call, and a
    partitioned layer looks up each distinct sub-GEMM once, so a layer that
    repeats within a stream never reaches the cache.
    """

    def __init__(self, max_entries: int = 65536) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._store: "OrderedDict[Tuple, GEMMTimingBreakdown]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._store)

    @property
    def hit_rate(self) -> float:
        """Fraction of estimates served from the cache since the last clear."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss counters."""
        self._store.clear()
        self.hits = 0
        self.misses = 0

    def estimate(
        self,
        config: MACOConfig,
        shape: GEMMShape,
        active_nodes: int = 1,
        prediction_enabled: Optional[bool] = None,
        env: Optional[MemoryEnvironment] = None,
    ) -> GEMMTimingBreakdown:
        """Cached :func:`estimate_node_gemm` (bit-identical to the direct call)."""
        if prediction_enabled is None:
            prediction_enabled = config.prediction_enabled
        key = (config, shape, active_nodes, prediction_enabled, env)
        cached = self._store.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        result = estimate_node_gemm(
            config, shape, active_nodes=active_nodes,
            prediction_enabled=prediction_enabled, env=env,
        )
        if len(self._store) >= self.max_entries:
            self._store.popitem(last=False)
        self._store[key] = result
        return result


#: Process-wide default cache shared by the system model, the baselines and the
#: sweeps (a :class:`repro.core.batch.SweepRunner` built without ``cache``).
DEFAULT_TIMING_CACHE = TimingCache()


def estimate_node_gemm_cached(
    config: MACOConfig,
    shape: GEMMShape,
    active_nodes: int = 1,
    prediction_enabled: Optional[bool] = None,
    env: Optional[MemoryEnvironment] = None,
    cache: Optional[TimingCache] = None,
) -> GEMMTimingBreakdown:
    """:func:`estimate_node_gemm` through a memoizing cache (default: process-wide)."""
    cache = DEFAULT_TIMING_CACHE if cache is None else cache
    return cache.estimate(
        config, shape, active_nodes=active_nodes,
        prediction_enabled=prediction_enabled, env=env,
    )


@dataclass
class EfficiencyPoint:
    """One point of an efficiency sweep (Figs. 6 and 7)."""

    matrix_size: int
    active_nodes: int
    prediction_enabled: bool
    efficiency: float
    gflops: float
    seconds: float
