"""GEMM shapes and the matrix sizes the paper sweeps.

The paper evaluates MACO on two kinds of GEMM workloads:

* synthetic square GEMMs of sizes 256 .. 9216 taken from an HPL-style
  benchmark package (Fig. 6 and Fig. 7), and
* the GEMM streams of ResNet-50, BERT and GPT-3 inference (Fig. 8).

The figure sweeps time single :class:`GEMMShape` objects, the type defined
here; :mod:`repro.workloads` builds every multi-GEMM workload (the DNN
streams, the HPL ladder) as a :class:`~repro.workloads.graph.WorkloadGraph`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gemm.precision import Precision

#: Matrix sizes swept by Fig. 6 of the paper (single-node address translation study).
FIG6_MATRIX_SIZES: tuple[int, ...] = (256, 512, 1024, 2048, 4096, 9216)

#: Matrix sizes swept by Fig. 7 of the paper (multi-node scalability study).
FIG7_MATRIX_SIZES: tuple[int, ...] = (
    256, 512, 1024, 2048, 3072, 4096, 5120, 6144, 7168, 8192, 9216,
)


@dataclass(frozen=True)
class GEMMShape:
    """Shape of a single GEMM: C[M,N] += A[M,K] @ B[K,N].

    The shape is the unit of work the MACO runtime schedules; everything the
    performance models need (FLOP count, operand footprints) derives from it.
    """

    m: int
    n: int
    k: int
    precision: Precision = Precision.FP64

    def __post_init__(self) -> None:
        for dim_name in ("m", "n", "k"):
            value = getattr(self, dim_name)
            if not isinstance(value, int) or value <= 0:
                raise ValueError(f"GEMM dimension {dim_name} must be a positive integer, got {value!r}")

    @property
    def flops(self) -> int:
        """Floating point operations (multiply + add counted separately)."""
        return 2 * self.m * self.n * self.k

    @property
    def macs(self) -> int:
        """Multiply-accumulate operations."""
        return self.m * self.n * self.k

    @property
    def bytes_a(self) -> int:
        return self.m * self.k * self.precision.bytes_per_element

    @property
    def bytes_b(self) -> int:
        return self.k * self.n * self.precision.bytes_per_element

    @property
    def bytes_c(self) -> int:
        return self.m * self.n * self.precision.bytes_per_element

    @property
    def total_bytes(self) -> int:
        """Total unique operand bytes (A + B + C)."""
        return self.bytes_a + self.bytes_b + self.bytes_c

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"GEMM(M={self.m}, N={self.n}, K={self.k}, {self.precision})"
