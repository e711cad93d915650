"""Last-bit pins on the layer-stream timers of the paper path.

The parallel planners, the explorer and :meth:`MACOSystem.run_workload`
time each distinct GEMM of a layer stream once and add one float per layer
in execution order, never with ``sum()``, whose rounding changed in Python
3.12 (DESIGN.md section 4.2).  A range check cannot see a last-bit drift in
those sums, so each pin here is the first 16 hex digits of the sha256 of the
``repr`` of one list, as in ``tests/test_cpu_model_pins.py``: the parallel
plans perfbench's paper-sweep sweeps, two LHS explores, and the LLM decode
stream whose phases repeat 128 times.  A refactor must keep every digest;
re-take one only for a documented behaviour change.
"""

import hashlib

from repro.core import DesignSpaceExplorer, MACOSystem, SweepRunner, maco_default_config
from repro.gemm import Precision
from repro.workloads import workload_graph_by_name

PARALLEL_SPECS = ("tp:1", "tp:2", "tp:4", "tp:8", "pp:2", "pp:4", "tp2d:2x2", "tp2d:2x4")
LHS_POINTS = 8


def digest(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()[:16]


def graph(name: str):
    return workload_graph_by_name(name, Precision.FP32)


def test_parallel_plans_match_their_pin():
    config = maco_default_config(num_nodes=16)
    rows = []
    for name in ("bert", "llama-7b@decode", "resnet50"):
        plans = SweepRunner().sweep_parallelism(config, graph(name), specs=PARALLEL_SPECS)
        rows += [(name, str(plan.spec), repr(plan)) for plan in plans]
    assert len(rows) == 24
    assert digest(rows) == "9548aeb0694ba44c"


def test_explore_rows_match_their_pin():
    explorer = DesignSpaceExplorer()
    rows = []
    for seed in (1, 2, 3, 4):
        points = DesignSpaceExplorer.sample("lhs", LHS_POINTS, seed=seed)
        results = explorer.explore_graph(points, graph("resnet50"), runner=SweepRunner())
        results += explorer.explore_graph(
            [point for point in points if point.num_nodes >= 4], graph("llama-7b@decode"),
            runner=SweepRunner(), parallelism="tp2d:2x2")
        rows += [(seed, repr(result)) for result in results]
    assert digest(rows) == "1d5124c02e78dcbf"


def test_decode_stream_matches_its_pin():
    system = MACOSystem(maco_default_config(num_nodes=16))
    decode = graph("llama-7b@decode")
    assert len(list(decode.layers())) == 4608
    rows = [repr(system.run_workload(decode, num_nodes=nodes)) for nodes in (1, 8, 16)]
    assert digest(rows) == "49f2da4c7ad57ec6"
