"""Last-bit pins on the CPU throughput model and everything that reads it.

The range checks elsewhere in the suite cannot see a drift in the last bit
of a timing.  Each pin here is the first 16 hex digits of the sha256 of the
``repr`` of one list: the Fig. 8 rows of every system, the serve estimator's
service profiles, and the model itself on the default
:class:`~repro.core.config.CPUConfig`.  A refactor must keep every digest;
re-take one only for a documented behaviour change.
"""

import hashlib

from repro.baselines import (
    CPUOnlyBaseline,
    GemminiLikeBaseline,
    NoMappingBaseline,
    RASALikeBaseline,
    compare_systems,
)
from repro.core import MACOSystem, maco_default_config
from repro.core.config import CPUConfig
from repro.gemm import GEMMShape, Precision
from repro.serve import ServeSimulator
from repro.workloads import dl_benchmark_suite

SERVE_WORKLOADS = ("bert", "gpt3", "resnet50", "llama-7b@prefill", "llama-7b@decode", "moe-8x")
GEMM_SIZES = ((32, 32, 32), (100, 700, 300), (1024, 1024, 1024), (4096, 512, 2048))


def digest(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()[:16]


def test_fig8_rows_match_their_pin():
    rows = []
    for nodes in (8, 16):
        config = maco_default_config(num_nodes=nodes)
        systems = [system(config) for system in (
            CPUOnlyBaseline, NoMappingBaseline, RASALikeBaseline, GemminiLikeBaseline, MACOSystem)]
        comparison = compare_systems(systems, dl_benchmark_suite(), num_nodes=nodes)
        for system, results in comparison.results.items():
            for name, result in results.items():
                rows.append((nodes, system, name, result.seconds, result.gemm_seconds,
                             result.non_gemm_seconds, result.peak_gflops))
    assert len(rows) == 30
    assert digest(rows) == "b789804b2b31f3b5"


def test_service_profiles_match_their_pin():
    rows = []
    for parallelism in (None, "tp:2", "pp:2"):
        simulator = ServeSimulator(config=maco_default_config(num_nodes=4), parallelism=parallelism)
        for workload in SERVE_WORKLOADS:
            rows.append((parallelism, workload, repr(simulator.service_profile(workload))))
    assert digest(rows) == "9b430fcaf04bbb96"


def test_cpu_model_matches_its_pin():
    cpu = CPUConfig()
    values = []
    for precision in Precision:
        values.append(cpu.peak_gflops(precision))
        for m, n, k in GEMM_SIZES:
            values.append(cpu.gemm_seconds(GEMMShape(m, n, k, precision)))
    for flops, bytes_touched in ((0, 0), (10**9, 10**6), (10**6, 10**9)):
        values.append(cpu.elementwise_seconds(flops, bytes_touched))
    assert digest(values) == "2969cdd85dea2a17"
