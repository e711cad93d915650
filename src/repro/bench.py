"""Benchmark harness for the functional fast path (``repro.cli bench``).

The functional execution path — page prediction, mATLB/MMU translation and the
wavefront emulator — has one vectorized production implementation per concept,
each bit-identical to its scalar reference in
:mod:`repro.conformance.functional_oracle`.  This module times the two against
each other on a BERT-sized layer and writes the measurements to
``BENCH_functional.json``, establishing the repo's performance trajectory:

* ``page_enumeration`` — :meth:`PageTablePredictor.tile_page_vaddrs` (template
  memo + ``arange``/``unique`` arithmetic) vs the oracle's per-row walk;
* ``tile_translation`` — :meth:`AcceleratorDataEngine.translate_tile`
  (enumeration + batched prewalk + batched lookup/demand) vs the oracle's
  per-page loop, with and without predictive translation;
* ``tile_translation_steady`` — the same comparison on the steady A stream
  of a FP32 512^3 GEMM (32-page tiles that repeat the tile before them),
  prediction on and off in one case: the stream where tiles replay
  (DESIGN.md section 6), which the BERT stream never reaches without
  prediction;
* ``emulator`` — :class:`VectorizedSystolicArrayEmulator` vs the oracle's
  PE-by-PE emulator;
* ``tile_schedule`` — the analytic :func:`estimate_gemm_timing`, which
  evaluates each distinct tile shape once, vs the per-tile loops of
  :mod:`repro.conformance.analytic_oracle` on the Fig. 7 sweep (here
  ``scalar_s`` is the oracle and ``vectorized_s`` the class-based path);
* ``layer_stream`` — :func:`repro.core.mapping.layer_stream_seconds`, which
  partitions and times each distinct layer shape once, vs the per-layer loop
  of :mod:`repro.conformance.analytic_oracle` on the Fig. 8 networks and the
  LLM decode stream, through MACO's cached node timer (``scalar_s`` is the
  oracle, ``vectorized_s`` production);
* ``functional_gemm`` — end-to-end functional GEMM throughput through the
  controller (batch path), recorded for trend tracking;
* ``serve_throughput`` — requests simulated per wall-clock second by the
  serving event loop (request-level and step-level continuous batching) on a
  seeded multi-tenant LLM trace, with the service-time estimation pre-warmed
  so the number isolates the discrete-event loop itself;
* ``serve_scale`` — the request runner vs the scalar oracle on a
  100k-request (quick) or million-request (full) trace, timing trace
  generation separately and recording ``requests_per_s`` at scale, with the
  two runs' completion columns compared element for element;
* ``serve_dispatch`` — the same comparison on the perfbench serve-request
  shape (three tenants, four nodes, sjf), where the multi-server dispatch
  loop runs instead of the closed form.

Every comparative benchmark re-verifies oracle/production parity on the timed
runs (identical stats and outputs) and reports it in the JSON, so a bench report
doubles as a correctness witness.  ``check_regression`` compares a fresh
report against a committed baseline and flags speedups that regressed by more
than the allowed factor; CI runs it via ``repro.cli bench --baseline``.
"""

from __future__ import annotations

import gc
import json
import time
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.conformance import analytic_oracle
from repro.conformance.functional_oracle import (
    SystolicArrayEmulator,
    tile_page_addresses,
    translate_tile,
    translation_state,
)
from repro.core.mapping import in_order_sum
from repro.cpu.mmu import MMU
from repro.cpu.process import ProcessManager
from repro.gemm.precision import Precision
from repro.gemm.workloads import FIG7_MATRIX_SIZES, GEMMShape
from repro.isa.instructions import GEMMDescriptor
from repro.mem.hostmem import HostMemory
from repro.mmae.controller import AcceleratorController
from repro.mmae.data_engine import AcceleratorDataEngine
from repro.mmae.dataflow import estimate_gemm_timing
from repro.mmae.matlb import MATLB, MatrixLayout, PageTablePredictor
from repro.mmae.systolic_array import VectorizedSystolicArrayEmulator

#: Report schema version written to BENCH_functional.json.
SCHEMA_VERSION = 1

#: BERT-large-shaped layer used for the translation benchmarks: a batch of
#: 8 x 384 tokens against the hidden dimension (A operand of the first MLP
#: GEMM), FP32.  One matrix row is exactly one 4 KB page, the Fig. 4 regime
#: the mATLB targets.
BERT_TOKENS = 3072
BERT_HIDDEN = 1024
BERT_ELEMENT_BYTES = 4


def _best_of(repeat: int, fn: Callable[[], float]) -> float:
    """Run ``fn`` (which returns elapsed seconds) ``repeat`` times; keep the best."""
    return min(fn() for _ in range(max(1, repeat)))


def _bert_layout_and_tiles(quick: bool) -> Tuple[ProcessManager, int, MatrixLayout, List[Tuple[int, int, int, int]]]:
    """The A-operand layout and the controller-ordered tile stream for one layer.

    The stream mirrors ``_compute_gemm_functional``: level-2 tiles iterate
    (row, col, k) with k innermost, so the A tile of a fixed (row, k) pair is
    re-requested for every column block — the reuse pattern the mATLB's
    steady state serves.
    """
    manager = ProcessManager()
    process = manager.create_process("bench")
    base = process.address_space.allocate_region(
        "A", BERT_TOKENS * BERT_HIDDEN * BERT_ELEMENT_BYTES
    )
    layout = MatrixLayout(base, BERT_TOKENS, BERT_HIDDEN, BERT_HIDDEN, BERT_ELEMENT_BYTES)
    row_extent = 256 if quick else 1024
    tiles = [
        (row, 64, k, 64)
        for row in range(0, row_extent, 64)
        for _col in range(0, 1024, 64)
        for k in range(0, 1024, 64)
    ]
    return manager, process.asid, layout, tiles


def _steady_layout_and_tiles() -> Tuple[ProcessManager, int, MatrixLayout, List[Tuple[int, int, int, int]]]:
    """The A operand of a FP32 512^3 GEMM and its controller-ordered tile stream.

    A row is half a page, so each 64-row tile touches 32 pages and every
    k-block of a row block touches the same ones: all but the first tile of
    each row block repeat the page list of the tile before.
    """
    manager = ProcessManager()
    process = manager.create_process("bench-steady")
    size = 512
    base = process.address_space.allocate_region("A", size * size * 4)
    layout = MatrixLayout(base, size, size, size, 4)
    tiles = [
        (row, 64, k, 64)
        for row in range(0, size, 64)
        for _col in range(0, size, 64)
        for k in range(0, size, 64)
    ]
    return manager, process.asid, layout, tiles


def _fresh_translation_stack(manager: ProcessManager) -> Tuple[MMU, AcceleratorDataEngine]:
    mmu = MMU()
    mmu.register_page_table(manager.current.address_space.page_table)
    return mmu, AcceleratorDataEngine(matlb=MATLB(entries=64))


def bench_page_enumeration(quick: bool, repeat: int) -> Dict[str, object]:
    """Scalar vs vectorized page enumeration over the BERT tile stream."""
    _, _, layout, tiles = _bert_layout_and_tiles(quick)

    def scalar_run() -> float:
        start = time.perf_counter()
        for row, rows, col, cols in tiles:
            tile_page_addresses(layout, row, rows, col, cols)
        return time.perf_counter() - start

    def vector_run() -> float:
        predictor = PageTablePredictor()
        start = time.perf_counter()
        for row, rows, col, cols in tiles:
            predictor.tile_page_vaddrs(layout, row, rows, col, cols)
        return time.perf_counter() - start

    vectorized = PageTablePredictor()
    parity = all(
        tile_page_addresses(layout, row, rows, col, cols)
        == vectorized.tile_page_vaddrs(layout, row, rows, col, cols).tolist()
        for row, rows, col, cols in tiles[:: max(1, len(tiles) // 64)]
    )
    scalar_s = _best_of(repeat, scalar_run)
    vector_s = _best_of(repeat, vector_run)
    return {
        "scalar_s": scalar_s,
        "vectorized_s": vector_s,
        "speedup": scalar_s / vector_s,
        "calls": len(tiles),
        "parity": parity,
    }


def bench_tile_translation(quick: bool, repeat: int, prediction: bool) -> Dict[str, object]:
    """Oracle vs batched tile translation (enumeration + prewalk + lookup/demand)."""
    manager, asid, layout, tiles = _bert_layout_and_tiles(quick)

    def run(batched: bool) -> Tuple[float, MMU, AcceleratorDataEngine]:
        mmu, ade = _fresh_translation_stack(manager)
        translate = AcceleratorDataEngine.translate_tile if batched else translate_tile
        start = time.perf_counter()
        for row, rows, k, depth in tiles:
            translate(ade, mmu, asid, layout, (row, rows), (k, depth), prediction)
        return time.perf_counter() - start, mmu, ade

    scalar_s, scalar_mmu, scalar_ade = run(batched=False)
    vector_s, vector_mmu, vector_ade = run(batched=True)
    parity = translation_state(scalar_mmu, scalar_ade) == translation_state(vector_mmu, vector_ade)
    scalar_s = min(scalar_s, _best_of(repeat - 1, lambda: run(batched=False)[0])) if repeat > 1 else scalar_s
    vector_s = min(vector_s, _best_of(repeat - 1, lambda: run(batched=True)[0])) if repeat > 1 else vector_s
    return {
        "scalar_s": scalar_s,
        "vectorized_s": vector_s,
        "speedup": scalar_s / vector_s,
        "calls": len(tiles),
        "prediction": prediction,
        "parity": parity,
    }


def bench_tile_translation_steady(quick: bool, repeat: int) -> Dict[str, object]:
    """Oracle vs production tile translation on the steady FP32 512^3 stream.

    Each side translates the stream once with prediction and once without,
    each time on a fresh stack; the timings add the two, and parity requires
    both runs to leave the oracle's :func:`translation_state`.  ``quick``
    changes nothing here; the stream is small.
    """
    manager, asid, layout, tiles = _steady_layout_and_tiles()

    def run(batched: bool) -> Tuple[float, list]:
        translate = AcceleratorDataEngine.translate_tile if batched else translate_tile
        elapsed, states = 0.0, []
        for prediction in (True, False):
            mmu, ade = _fresh_translation_stack(manager)
            start = time.perf_counter()
            for row, rows, k, depth in tiles:
                translate(ade, mmu, asid, layout, (row, rows), (k, depth), prediction)
            elapsed += time.perf_counter() - start
            states.append(translation_state(mmu, ade))
        return elapsed, states

    scalar_s, oracle_states = _best_of_with(repeat, lambda: run(batched=False))
    vector_s, states = _best_of_with(repeat, lambda: run(batched=True))
    return {
        "scalar_s": scalar_s,
        "vectorized_s": vector_s,
        "speedup": scalar_s / vector_s,
        "calls": 2 * len(tiles),
        "parity": states == oracle_states,
    }


def bench_emulator(quick: bool, repeat: int) -> Dict[str, object]:
    """Scalar vs vectorized wavefront emulation of one stationary block."""
    rows = cols = 4
    tr = 192 if quick else 512
    rng = np.random.default_rng(2024)
    a_block = rng.standard_normal((tr, rows))
    b_block = rng.standard_normal((rows, cols))

    scalar = SystolicArrayEmulator(rows=rows, cols=cols)
    vectorized = VectorizedSystolicArrayEmulator(rows=rows, cols=cols)
    scalar_result = scalar.run_block(a_block, b_block)
    vector_result = vectorized.run_block(a_block, b_block)
    parity = (
        np.array_equal(scalar_result.output, vector_result.output)
        and scalar_result.cycles == vector_result.cycles
        and scalar_result.macs == vector_result.macs
    )

    def scalar_run() -> float:
        start = time.perf_counter()
        scalar.run_block(a_block, b_block)
        return time.perf_counter() - start

    def vector_run() -> float:
        start = time.perf_counter()
        vectorized.run_block(a_block, b_block)
        return time.perf_counter() - start

    scalar_s = _best_of(repeat, scalar_run)
    vector_s = _best_of(repeat, vector_run)
    return {
        "scalar_s": scalar_s,
        "vectorized_s": vector_s,
        "speedup": scalar_s / vector_s,
        "geometry": f"{rows}x{cols}",
        "tr": tr,
        "parity": parity,
    }


def bench_tile_schedule(quick: bool, repeat: int) -> Dict[str, object]:
    """Class-based vs per-tile analytic GEMM timing on the Fig. 7 sweep.

    Every Fig. 7 size at 1 and 16 active nodes, in all three precisions, is
    timed under the default configuration by
    :func:`~repro.mmae.dataflow.estimate_gemm_timing` and by
    :func:`repro.conformance.analytic_oracle.estimate_gemm_timing`.  Parity
    is exact: the two breakdowns must have the same ``repr``, which keeps
    every float bit.  ``quick`` changes nothing here; the sweep is small.
    """
    from repro.core.config import maco_default_config
    from repro.core.perf import memory_environment

    config = maco_default_config()
    params = config.mmae.timing_parameters()
    cases = [
        (GEMMShape(size, size, size, precision), memory_environment(config, nodes))
        for size in FIG7_MATRIX_SIZES for nodes in (1, 16) for precision in Precision
    ]

    def run(estimate) -> Tuple[float, List[str]]:
        start = time.perf_counter()
        breakdowns = [
            estimate(shape, config.level1_tile, config.level2_tile, params, env,
                     config.prediction_enabled, config.memory.page_size)
            for shape, env in cases
        ]
        return time.perf_counter() - start, [repr(breakdown) for breakdown in breakdowns]

    # A class-based sweep lasts milliseconds, so one cold run is mostly
    # noise: each side keeps the best of at least three sweeps.
    repeat = max(repeat, 3)
    oracle_s, oracle_breakdowns = _best_of_with(
        repeat, lambda: run(analytic_oracle.estimate_gemm_timing))
    class_s, breakdowns = _best_of_with(repeat, lambda: run(estimate_gemm_timing))
    return {
        "scalar_s": oracle_s,
        "vectorized_s": class_s,
        "speedup": oracle_s / class_s,
        "calls": len(cases),
        "parity": breakdowns == oracle_breakdowns,
    }


def bench_layer_stream(quick: bool, repeat: int) -> Dict[str, object]:
    """Distinct-shape vs per-layer stream timing on 4,918 layers at 8 nodes.

    The streams are the ``layers()`` of the three Fig. 8 networks and of
    ``llama-7b@decode``, timed by MACO's node timer through a
    :class:`~repro.core.perf.TimingCache` warmed off the clock, so both
    sides pay only mapping and cache lookups.  Parity is exact: the stream
    seconds must have the same ``repr``.  ``quick`` changes nothing here.
    """
    from repro.core.config import maco_default_config
    from repro.core.mapping import layer_stream_seconds
    from repro.core.perf import TimingCache, estimate_node_gemm_cached, memory_environment
    from repro.workloads import dl_benchmark_suite, workload_graph_by_name

    nodes = 8
    config = maco_default_config(num_nodes=nodes)
    env = memory_environment(config, nodes)
    cache = TimingCache()
    graphs = dl_benchmark_suite() + [workload_graph_by_name("llama-7b@decode")]
    streams = [list(graph.layers()) for graph in graphs]

    def node_seconds(shape: GEMMShape) -> float:
        return estimate_node_gemm_cached(
            config, shape, active_nodes=nodes, env=env, cache=cache).seconds

    def run(stream_seconds) -> Tuple[float, List[str]]:
        start = time.perf_counter()
        totals = [stream_seconds(layers, nodes, node_seconds) for layers in streams]
        return time.perf_counter() - start, [repr(total) for total in totals]

    run(analytic_oracle.layer_stream_seconds)  # warm the timing cache
    repeat = max(repeat, 3)
    oracle_s, oracle_totals = _best_of_with(
        repeat, lambda: run(analytic_oracle.layer_stream_seconds))
    stream_s, totals = _best_of_with(repeat, lambda: run(layer_stream_seconds))
    return {
        "scalar_s": oracle_s,
        "vectorized_s": stream_s,
        "speedup": oracle_s / stream_s,
        "layers": sum(len(layers) for layers in streams),
        "parity": totals == oracle_totals,
    }


def bench_functional_gemm(quick: bool, repeat: int) -> Dict[str, object]:
    """End-to-end functional GEMM throughput through the controller (batch path)."""
    size = 256 if quick else 512
    precision = Precision.FP32
    rng = np.random.default_rng(7)
    memory = HostMemory()
    a = rng.standard_normal((size, size)).astype(np.float32)
    b = rng.standard_normal((size, size)).astype(np.float32)
    c = np.zeros((size, size), dtype=np.float32)
    addr_a, addr_b, addr_c = 0x10_0000, 0x80_0000, 0xF0_0000
    for addr, matrix in ((addr_a, a), (addr_b, b), (addr_c, c)):
        memory.register_matrix(addr, matrix)
    manager = ProcessManager()
    process = manager.create_process("bench-gemm")
    for addr, matrix in ((addr_a, a), (addr_b, b), (addr_c, c)):
        process.address_space.allocate_region(f"m{addr:x}", matrix.nbytes)

    descriptor = GEMMDescriptor(
        addr_a=addr_a, addr_b=addr_b, addr_c=addr_c, m=size, n=size, k=size,
        precision=precision, tile_rows=max(size, 64), tile_cols=max(size, 64),
        ttr=min(64, size), ttc=min(64, size),
    )

    def run() -> float:
        # Fresh MMU per repetition so best-of timings stay cold-state
        # comparable, matching the fresh-stack policy of the other benches.
        mmu = MMU()
        mmu.register_page_table(process.address_space.page_table)
        controller = AcceleratorController(host_memory=memory, mmu=mmu)
        controller.stq.on_completion(lambda maid, exc: None)
        controller.submit_gemm(0, process.asid, descriptor)
        start = time.perf_counter()
        results = controller.execute_pending()
        elapsed = time.perf_counter() - start
        assert results[0].functional and results[0].succeeded
        return elapsed

    seconds = _best_of(repeat, run)
    flops = 2.0 * size ** 3
    return {
        "seconds": seconds,
        "gflops": flops / seconds / 1e9,
        "m": size,
        "n": size,
        "k": size,
        "precision": "fp32",
    }


def bench_serve_throughput(quick: bool, repeat: int) -> Dict[str, object]:
    """Serving event-loop throughput: requests simulated per wall-clock second.

    A seeded Poisson trace (10k requests full, 2k quick) over two LLM tenants
    with fixed rates runs through both execution models on a 4-node fleet.
    Every (workload, precision) service profile is estimated before the timer
    starts, so the measurement is the discrete-event loop itself — the thing
    the continuous-batching refactor made more complex — not the analytic
    timing model.  Raw requests/s are machine-dependent, so
    :func:`check_regression` gates them with a wide slack factor.
    """
    from repro.core.config import maco_default_config
    from repro.serve import ServeSimulator, TenantSpec, poisson_trace

    variant = "llama-7b@layers=2,prompt=128,decode=32,block=8"
    specs = [
        TenantSpec(name="ingest", rate_rps=50.0, mix=((f"{variant},prefill", 1.0),)),
        TenantSpec(name="generate", rate_rps=50.0, mix=((f"{variant},decode", 1.0),)),
    ]
    target = 2_000 if quick else 10_000
    duration = target / in_order_sum(spec.rate_rps for spec in specs)
    trace = poisson_trace(specs, duration_s=duration, seed=2024)
    config = maco_default_config(num_nodes=4)

    def run(batching: str) -> Tuple[float, int]:
        simulator = ServeSimulator(
            config=config, scheduler="fcfs", batching=batching, max_batch=8)
        simulator._prepare_services(trace)  # warm the profile memo off-clock
        start = time.perf_counter()
        report = simulator.run(trace)
        return time.perf_counter() - start, report.total_requests

    request_s, completed = _best_of_with(repeat, lambda: run("request"))
    step_s, step_completed = _best_of_with(repeat, lambda: run("step"))
    assert completed == len(trace.requests) and step_completed == len(trace.requests)
    return {
        "requests": len(trace.requests),
        "request_mode_s": request_s,
        "step_mode_s": step_s,
        "requests_per_s": len(trace.requests) / request_s,
        "step_requests_per_s": len(trace.requests) / step_s,
    }


def _request_runner_vs_oracle(et, repeat: int) -> Dict[str, object]:
    """Time the request runner and the scalar oracle on one lowered trace.

    Both run the whole trace; their completion columns are compared element
    for element, so the speedup doubles as a parity witness.
    """
    from repro.conformance.serve_oracle import oracle_columns
    from repro.serve.engine import simulate_segments

    def run(engine):
        start = time.perf_counter()
        done = engine(et)
        return time.perf_counter() - start, (done.start, done.first, done.finish,
                                             done.accumulators)

    run(simulate_segments)  # first-touch warm-up (page faults, numpy dispatch caches)
    array_s, array_columns = _best_of_with(repeat, lambda: run(simulate_segments))
    scalar_s, scalar_columns = _best_of_with(repeat, lambda: run(oracle_columns))
    return {
        "scalar_s": scalar_s,
        "vectorized_s": array_s,
        "speedup": scalar_s / array_s,
        "parity": all(np.array_equal(a, b) for a, b in zip(array_columns, scalar_columns)),
        "requests_per_s": len(et) / array_s,
    }


def bench_serve_scale(quick: bool, repeat: int) -> Dict[str, object]:
    """Serve-core throughput at scale: the request runner vs the scalar
    oracle on a 100k-request (quick) or million-request (full) trace.

    The scenario pins FCFS on one node with a uniform pipeline interval, the
    regime where the request runner collapses the event loop into its
    max-plus closed form — the configuration the "million-request
    simulation" roadmap item targets.  Trace generation is timed separately
    (the vectorised Poisson sampler is part of the same refactor), the trace
    is lowered to one :class:`~repro.serve.engine.EngineTrace` off-clock, and
    the engine and :mod:`repro.conformance.serve_oracle` run that same
    lowered trace with their completion columns compared element for
    element, so the speedup doubles as a parity witness at scale.
    """
    from repro.conformance.serve_oracle import lower
    from repro.core.config import maco_default_config
    from repro.serve import ServeSimulator, TenantSpec, poisson_trace

    variant = "llama-7b@layers=2,prompt=128,decode=32,block=8"
    rate = 20_000.0
    specs = [
        TenantSpec(name="ingest", rate_rps=rate, mix=((f"{variant},prefill", 1.0),)),
        TenantSpec(name="generate", rate_rps=rate, mix=((f"{variant},decode", 1.0),)),
    ]
    target = 100_000 if quick else 1_000_000
    gen_start = time.perf_counter()
    trace = poisson_trace(specs, duration_s=target / (2 * rate), seed=2025)
    trace_gen_s = time.perf_counter() - gen_start
    et = lower(ServeSimulator(config=maco_default_config(num_nodes=1), scheduler="fcfs"), trace)
    return {"requests": len(trace), "trace_gen_s": trace_gen_s,
            **_request_runner_vs_oracle(et, repeat)}


def bench_serve_dispatch(quick: bool, repeat: int) -> Dict[str, object]:
    """The multi-server dispatch loop vs the scalar oracle at scale.

    The perfbench serve-request shape: three ``default_tenants`` on four
    nodes under sjf at 90% load, a Poisson trace of 100k (quick) or a
    million (full) requests.  Four servers rule out the closed form, so
    this times the request runner's heap loop, whose lone-dispatch and
    window-push paths ``serve_scale`` never reaches.  The trace is lowered
    once off the clock.
    """
    from repro.conformance.serve_oracle import lower
    from repro.core.config import maco_default_config
    from repro.serve import ServeSimulator, default_tenants, poisson_trace

    simulator = ServeSimulator(config=maco_default_config(num_nodes=4), scheduler="sjf")
    tenants = simulator.suggest_rates(default_tenants(3), utilization=0.9)
    target = 100_000 if quick else 1_000_000
    trace = poisson_trace(tenants, target / in_order_sum(spec.rate_rps for spec in tenants), seed=2026)
    return {"requests": len(trace), **_request_runner_vs_oracle(lower(simulator, trace), repeat)}


def bench_serve_autoscale(quick: bool, repeat: int) -> Dict[str, object]:
    """Elastic serving throughput plus the min==max neutrality witness.

    A bursty 110%-overload LLM trace runs through the step-batching loop with
    the fleet autoscaling between one and four groups — the controller wakes
    on every window boundary, so this prices the elasticity bookkeeping the
    fixed-fleet benches never touch.  ``parity`` pins the subsystem's
    neutrality contract: a pinned ``min_groups == max_groups`` policy must
    produce, autoscale section aside, the byte-identical report of a plain
    fixed fleet.  Raw requests/s are host-dependent and gated with the wide
    throughput slack of :func:`check_regression`.
    """
    import dataclasses

    from repro.core.config import maco_default_config
    from repro.serve import AutoscalePolicy, ServeSimulator, bursty_trace, llm_tenants

    variant = "llama-7b@layers=2,prompt=128,decode=32,block=8"
    config = maco_default_config(num_nodes=4)

    def simulator(policy):
        return ServeSimulator(
            config=config, scheduler="fcfs", batching="step", max_batch=4,
            autoscale=policy)

    probe = simulator(None)
    tenants = probe.suggest_rates(llm_tenants(2, variant=variant), utilization=1.1)
    target = 300 if quick else 2_000
    duration = target / in_order_sum(spec.rate_rps for spec in tenants)
    trace = bursty_trace(tenants, duration_s=duration, seed=7, burst_factor=8.0)

    def run():
        elastic = simulator(AutoscalePolicy(min_groups=1, max_groups=4))
        elastic._prepare_services(trace)  # warm the profile memo off-clock
        start = time.perf_counter()
        report = elastic.run(trace)
        return time.perf_counter() - start, report

    elastic_s, elastic_report = _best_of_with(repeat, lambda: run())
    assert elastic_report.total_requests == len(trace.requests)
    groups = len(probe.groups)
    pinned_report = simulator(
        AutoscalePolicy(min_groups=groups, max_groups=groups)).run(trace)
    fixed_report = simulator(None).run(trace)
    parity = (
        dataclasses.replace(pinned_report, autoscale=None).to_json()
        == fixed_report.to_json())
    return {
        "requests": len(trace.requests),
        "elastic_s": elastic_s,
        "scale_events": len(elastic_report.autoscale.events),
        "node_seconds": elastic_report.autoscale.node_seconds,
        "requests_per_s": len(trace.requests) / elastic_s,
        "parity": parity,
    }


def _best_of_with(repeat: int, fn: Callable[[], Tuple[float, int]]) -> Tuple[float, int]:
    """Like :func:`_best_of` for functions returning ``(seconds, payload)``."""
    best = None
    for _ in range(max(1, repeat)):
        result = fn()
        if best is None or result[0] < best[0]:
            best = result
    return best


def run_benchmarks(quick: bool = False, repeat: int = 1) -> Dict[str, object]:
    """Run the full functional fast-path benchmark suite; returns the report.

    Like :mod:`timeit`, the suite runs with the cyclic garbage collector off
    (after one full collection), so a collection over the caller's heap does
    not land inside one side of a speedup ratio.
    """
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        results = {
            "page_enumeration": bench_page_enumeration(quick, repeat),
            "tile_translation": bench_tile_translation(quick, repeat, prediction=True),
            "tile_translation_nopred": bench_tile_translation(quick, repeat, prediction=False),
            "tile_translation_steady": bench_tile_translation_steady(quick, repeat),
            "emulator": bench_emulator(quick, repeat),
            "tile_schedule": bench_tile_schedule(quick, repeat),
            "layer_stream": bench_layer_stream(quick, repeat),
            "functional_gemm": bench_functional_gemm(quick, repeat),
            "serve_throughput": bench_serve_throughput(quick, repeat),
            "serve_scale": bench_serve_scale(quick, repeat),
            "serve_dispatch": bench_serve_dispatch(quick, repeat),
            "serve_autoscale": bench_serve_autoscale(quick, repeat),
        }
    finally:
        if was_enabled:
            gc.enable()
    return {"schema": SCHEMA_VERSION, "quick": quick, "repeat": repeat, "results": results}


def write_report(report: Dict[str, object], path: str) -> None:
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")


def format_report(report: Dict[str, object]) -> str:
    """Human-readable summary of a bench report."""
    lines = ["functional fast-path benchmarks" + (" (quick)" if report.get("quick") else "")]
    for name, result in report["results"].items():
        if "speedup" in result:
            parity = "ok" if result.get("parity") else "MISMATCH"
            lines.append(
                f"  {name:<24} scalar {result['scalar_s'] * 1e3:8.1f} ms   "
                f"vectorized {result['vectorized_s'] * 1e3:8.1f} ms   "
                f"speedup {result['speedup']:6.1f}x   parity {parity}"
            )
        elif "node_seconds" in result:
            parity = "ok" if result.get("parity") else "MISMATCH"
            lines.append(
                f"  {name:<24} {result['requests']} requests   "
                f"elastic {result['requests_per_s']:8.0f} req/s   "
                f"{result['scale_events']} scale events   "
                f"node-seconds {result['node_seconds']:8.1f}   parity {parity}"
            )
        elif "requests_per_s" in result:
            lines.append(
                f"  {name:<24} {result['requests']} requests   "
                f"request-level {result['requests_per_s']:8.0f} req/s   "
                f"step-level {result['step_requests_per_s']:8.0f} req/s"
            )
        else:
            lines.append(
                f"  {name:<24} {result['seconds'] * 1e3:8.1f} ms   "
                f"{result['gflops']:.2f} GFLOP/s "
                f"({result['m']}x{result['n']}x{result['k']} {result['precision']})"
            )
    return "\n".join(lines)


def check_regression(
    report: Dict[str, object],
    baseline: Dict[str, object],
    factor: float = 2.0,
) -> List[str]:
    """Compare a fresh report against a committed baseline.

    Speedups are machine-relative ratios, so they transfer across hosts far
    better than raw seconds; a benchmark regresses when its speedup falls
    below ``baseline_speedup / factor``, and a parity mismatch always fails.
    Raw serving throughputs (``requests_per_s`` keys) depend on the host, so
    they are gated with four times the slack — the gate only catches an
    event-loop collapse (an accidentally quadratic admission scan), not host
    jitter.  Returns a list of human-readable failures (empty = pass).
    """
    failures = []
    for name, base in baseline.get("results", {}).items():
        throughput_keys = [key for key in base if key.endswith("requests_per_s")]
        if "speedup" not in base and not throughput_keys:
            continue
        current = report.get("results", {}).get(name)
        if current is None:
            failures.append(f"{name}: missing from the current report")
            continue
        if not current.get("parity", True):
            failures.append(f"{name}: scalar/vectorized parity mismatch")
        if "speedup" in base:
            floor = base["speedup"] / factor
            if current["speedup"] < floor:
                failures.append(
                    f"{name}: speedup {current['speedup']:.2f}x fell below "
                    f"{floor:.2f}x (baseline {base['speedup']:.2f}x / {factor:g})"
                )
        for key in throughput_keys:
            floor = base[key] / (factor * 4)
            if current.get(key, 0.0) < floor:
                failures.append(
                    f"{name}: {key} {current.get(key, 0.0):.0f} fell below "
                    f"{floor:.0f} (baseline {base[key]:.0f} / {factor * 4:g})"
                )
    return failures


def load_report(path: str) -> Dict[str, object]:
    with open(path) as handle:
        return json.load(handle)
