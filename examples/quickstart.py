#!/usr/bin/env python
"""Quickstart: run a GEMM on MACO through the MPAIS instruction path.

The example builds a small MACO system, allocates matrices in a compute
node's address space, submits the GEMM with the MA_CFG instruction, lets the
MMAE execute it functionally (through the systolic-array datapath model), and
checks the result against NumPy.  It then uses the cycle-approximate model to
report what a full-size version of the same GEMM would achieve.
"""

import numpy as np

from repro.core import MACORuntime, MACOSystem, estimate_node_gemm, maco_default_config
from repro.gemm import GEMMShape, Precision


def main() -> None:
    config = maco_default_config(num_nodes=4)
    system = MACOSystem(config)
    runtime = MACORuntime(system=system)

    # ---------------------------------------------------------------- functional
    rng = np.random.default_rng(seed=7)
    m, k, n = 96, 128, 80
    a = rng.standard_normal((m, k))
    b = rng.standard_normal((k, n))
    c = rng.standard_normal((m, n))

    print(f"Running a {m}x{k}x{n} FP64 GEMM through MPAIS (MA_CFG -> MMAE -> MA_STATE)...")
    result = runtime.gemm(a, b, c, precision=Precision.FP64)
    reference = a @ b + c
    max_error = float(np.max(np.abs(result - reference)))
    print(f"  max |error| vs numpy: {max_error:.2e}")
    assert max_error < 1e-9, "functional GEMM does not match the NumPy reference"

    # The MTQ entry was released by MA_STATE; nothing should be outstanding.
    print(f"  outstanding MTQ tasks: {runtime.outstanding_tasks()}")

    # ------------------------------------------------------------ cycle-accurate
    shape = GEMMShape(4096, 4096, 4096, Precision.FP64)
    print(f"\nEstimating a {shape} on a single MMAE...")
    timing = estimate_node_gemm(config, shape, active_nodes=1)
    print(f"  total cycles       : {timing.total_cycles:,.0f}")
    print(f"  achieved           : {timing.achieved_gflops:.1f} GFLOPS "
          f"({timing.efficiency * 100:.1f}% of {timing.peak_gflops:.0f} GFLOPS peak)")
    print(f"  translation stalls : {timing.translation_stall_cycles:,.0f} cycles "
          f"(prediction {'on' if timing.prediction_enabled else 'off'})")

    print(f"\nSame GEMM partitioned across {config.num_nodes} compute nodes...")
    multi = system.run_gemm(shape)
    print(f"  time               : {multi.seconds * 1e3:.2f} ms")
    print(f"  throughput         : {multi.gflops:.1f} GFLOPS "
          f"({multi.efficiency * 100:.1f}% of the {multi.peak_gflops:.0f} GFLOPS aggregate peak)")


if __name__ == "__main__":
    main()
