"""The general-purpose CPU core of a MACO compute node.

The core bundles the components the reproduction needs: the MPAIS front end
(register file, executor, Master Task Queue), the MMU shared with the MMAE,
the private cache hierarchy of Table I, and throughput models for the FP work
the core executes itself (the CPU-only GEMM baseline and the non-GEMM
operators of GEMM+ workloads).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.cpu.mmu import MMU
from repro.cpu.mtq import MasterTaskQueue
from repro.cpu.pipeline import InstructionMix, PipelineModel
from repro.cpu.process import ProcessManager
from repro.gemm.precision import Precision
from repro.gemm.workloads import GEMMShape
from repro.isa.executor import MMAEPort, MPAISExecutor
from repro.isa.registers import RegisterFile
from repro.mem.cache import CacheConfig, SetAssociativeCache

if TYPE_CHECKING:
    from repro.core.config import CPUConfig


@dataclass
class CPUComputeResult:
    """Timing result of work executed on the CPU core itself."""

    cycles: float
    seconds: float
    flops: int

    @property
    def gflops(self) -> float:
        return self.flops / self.seconds / 1e9 if self.seconds > 0 else 0.0


class CPUCore:
    """One MACO CPU core (paper Table I / Table IV).

    Parameters default to the paper's published values: 2.2 GHz, four-issue
    out-of-order, 8 FP64 FMAC lanes (35.2 GFLOPS FP64 / 71 GFLOPS FP32 peak),
    48 KB L1 caches, 512 KB private L2, 48-entry L1 TLBs and a 1024-entry
    L2 TLB.
    """

    def __init__(
        self,
        core_id: int = 0,
        frequency_hz: float = 2.2e9,
        fmac_lanes: int = 8,
        issue_width: int = 4,
        l1i_size: int = 48 * 1024,
        l1d_size: int = 48 * 1024,
        l1_associativity: int = 4,
        l2_size: int = 512 * 1024,
        l2_associativity: int = 8,
        itlb_entries: int = 48,
        dtlb_entries: int = 48,
        l2_tlb_entries: int = 1024,
        mtq_entries: int = 8,
        memory_bandwidth_bytes_per_s: float = 32e9,
    ) -> None:
        self.core_id = core_id
        self.frequency_hz = frequency_hz
        self.fmac_lanes = fmac_lanes
        self.issue_width = issue_width
        self.memory_bandwidth_bytes_per_s = memory_bandwidth_bytes_per_s

        self.registers = RegisterFile()
        self.mtq = MasterTaskQueue(num_entries=mtq_entries, name=f"cpu{core_id}.mtq")
        self.mmu = MMU(
            itlb_entries=itlb_entries,
            dtlb_entries=dtlb_entries,
            l2_entries=l2_tlb_entries,
        )
        self.pipeline = PipelineModel(issue_width=issue_width)
        self.l1i = SetAssociativeCache(
            CacheConfig(name=f"cpu{core_id}.l1i", size_bytes=l1i_size, associativity=l1_associativity,
                        hit_latency_cycles=3)
        )
        self.l1d = SetAssociativeCache(
            CacheConfig(name=f"cpu{core_id}.l1d", size_bytes=l1d_size, associativity=l1_associativity,
                        hit_latency_cycles=4)
        )
        self.l2 = SetAssociativeCache(
            CacheConfig(name=f"cpu{core_id}.l2", size_bytes=l2_size, associativity=l2_associativity,
                        hit_latency_cycles=12)
        )
        self.processes = ProcessManager()
        self._executor: Optional[MPAISExecutor] = None

    @classmethod
    def from_config(cls, cpu_config: CPUConfig, core_id: int = 0) -> CPUCore:
        """The core a :class:`~repro.core.config.CPUConfig` describes.

        The core has one L1 associativity; the L1D's is used for both caches.
        """
        return cls(
            core_id=core_id,
            frequency_hz=cpu_config.frequency_hz,
            fmac_lanes=cpu_config.fmac_lanes,
            issue_width=cpu_config.issue_width,
            l1i_size=cpu_config.l1i_size_bytes,
            l1d_size=cpu_config.l1d_size_bytes,
            l1_associativity=cpu_config.l1d_associativity,
            l2_size=cpu_config.l2_size_bytes,
            l2_associativity=cpu_config.l2_associativity,
            itlb_entries=cpu_config.itlb_entries,
            dtlb_entries=cpu_config.dtlb_entries,
            l2_tlb_entries=cpu_config.l2_tlb_entries,
            mtq_entries=cpu_config.mtq_entries,
            memory_bandwidth_bytes_per_s=cpu_config.memory_bandwidth_bytes_per_s,
        )

    # ------------------------------------------------------------------ MPAIS
    def attach_mmae(self, mmae: MMAEPort) -> MPAISExecutor:
        """Connect the companion MMAE and build the MPAIS executor."""
        self._executor = MPAISExecutor(
            registers=self.registers,
            mtq=self.mtq,
            mmae=mmae,
            asid=self.processes.current_asid if self.processes.current else 0,
        )
        return self._executor

    @property
    def executor(self) -> MPAISExecutor:
        if self._executor is None:
            raise RuntimeError("no MMAE attached to this core; call attach_mmae() first")
        return self._executor

    def switch_process(self, asid: int) -> int:
        """Context-switch the core; the MPAIS executor follows the new ASID."""
        cycles = self.processes.switch_to(asid, self.registers)
        if self._executor is not None:
            self._executor.set_asid(asid)
        return cycles

    # ----------------------------------------------------------------- FP peaks
    def peak_gflops(self, precision: Precision = Precision.FP64) -> float:
        """Theoretical peak (Table IV footnote: 2 x freq x FMACs), scaled by SIMD width.

        The CPU's vector units double their lane count at FP32 relative to FP64
        (35.2 -> 71 GFLOPS in Table IV); FP16 is not a native CPU GEMM type in
        the paper, so it reuses the FP32 rate.
        """
        base = 2.0 * self.frequency_hz * self.fmac_lanes / 1e9
        if precision is Precision.FP64:
            return base
        return base * 2.0

    # ------------------------------------------------------------- CPU-side GEMM
    def gemm_efficiency(self, shape: GEMMShape) -> float:
        """Fraction of peak a cache-blocked CPU GEMM sustains for this shape.

        The model combines a compute-bound ceiling (vector pipelines sustain
        ~70% of peak on well-blocked code) with a bandwidth bound from the
        operand traffic that the L2-blocked loop must move per FLOP.
        """
        compute_ceiling = 0.70
        # Blocked for the private L2: each operand element of the block is
        # reused ~block_size times; traffic per FLOP falls as 1/block.
        element_bytes = shape.precision.bytes_per_element
        block = max(64, min(512, int((self.l2.config.size_bytes / (3 * element_bytes)) ** 0.5)))
        effective_block = min(block, shape.m, shape.n, shape.k)
        bytes_per_flop = 3.0 * element_bytes / (2.0 * effective_block)
        peak_flops = self.peak_gflops(shape.precision) * 1e9
        bandwidth_bound = self.memory_bandwidth_bytes_per_s / bytes_per_flop / peak_flops
        efficiency = min(compute_ceiling, bandwidth_bound)
        # Very small GEMMs lose additional time to loop and call overhead.
        smallest_dim = min(shape.m, shape.n, shape.k)
        if smallest_dim < 128:
            efficiency *= smallest_dim / 128.0
        return max(0.01, min(1.0, efficiency))

    def run_gemm(self, shape: GEMMShape) -> CPUComputeResult:
        """Time a GEMM executed on the CPU core itself (Baseline-1 path)."""
        efficiency = self.gemm_efficiency(shape)
        sustained = self.peak_gflops(shape.precision) * 1e9 * efficiency
        seconds = shape.flops / sustained
        return CPUComputeResult(
            cycles=seconds * self.frequency_hz, seconds=seconds, flops=shape.flops
        )

    # -------------------------------------------------------- non-GEMM operators
    def run_elementwise(self, flops: int, bytes_touched: int) -> CPUComputeResult:
        """Time an element-wise operator (activation / normalisation / softmax).

        These operators are memory-bound on the CPU: the time is the maximum of
        the vector-FP time and the streaming-bandwidth time.
        """
        if flops < 0 or bytes_touched < 0:
            raise ValueError("flops and bytes must be non-negative")
        vector_rate = self.peak_gflops(Precision.FP32) * 1e9 * 0.5
        compute_seconds = flops / vector_rate if vector_rate else 0.0
        memory_seconds = bytes_touched / self.memory_bandwidth_bytes_per_s
        seconds = max(compute_seconds, memory_seconds)
        return CPUComputeResult(
            cycles=seconds * self.frequency_hz, seconds=seconds, flops=flops
        )

    # -------------------------------------------------------------- general code
    def run_instruction_mix(self, mix: InstructionMix) -> CPUComputeResult:
        """Time a general instruction mix through the pipeline model."""
        cycles = self.pipeline.estimate_cycles(mix)
        seconds = cycles / self.frequency_hz
        flops = mix.fp_ops + mix.vector_fp_ops * self.fmac_lanes
        return CPUComputeResult(cycles=cycles, seconds=seconds, flops=flops)
