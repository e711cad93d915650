"""Parity suite for the array-based serve engine (DESIGN.md section 9).

The vectorised serve core is checked against scalar oracles, and this file
is the contract between them: the NumPy trace generators must reproduce the
scalar generators element for element, the request runner's completion
columns must equal the scalar oracle's (:mod:`repro.conformance.serve_oracle`)
on the same lowered trace for every scheduler × seed, and sharded runs must
merge back to the exact single-shard report for any shard count or
worker-pool size.
"""

import json
import math
import random

import numpy as np
import pytest

from repro.analysis import latency_summary, percentile
from repro.core import maco_default_config
from repro.conformance.serve_oracle import bursty_trace_scalar, poisson_trace_scalar
from repro.serve import (
    SCHEDULER_NAMES,
    RequestTrace,
    ServeSimulator,
    TraceColumns,
    bursty_trace,
    llm_tenants,
    poisson_trace,
    replay_trace,
)

# The tenant/trace/simulator factories live in parity_utils.py, shared with
# the other parity suites and mirrored by the conformance fuzz layer's
# samplers.
from parity_utils import (
    assert_matches_oracle,
    make_mixed_tenants as mixed_tenants,
    make_serve_simulator as simulator,
    make_serve_trace as serve_trace,
)


# ----------------------------------------------------------- generator parity
class TestGeneratorParity:
    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_poisson_matches_scalar_element_for_element(self, seed):
        tenants = mixed_tenants()
        fast = poisson_trace(tenants, duration_s=30.0, seed=seed)
        slow = poisson_trace_scalar(tenants, duration_s=30.0, seed=seed)
        assert fast.to_records() == slow.to_records()

    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_bursty_matches_scalar_element_for_element(self, seed):
        tenants = mixed_tenants()
        fast = bursty_trace(tenants, duration_s=30.0, seed=seed)
        slow = bursty_trace_scalar(tenants, duration_s=30.0, seed=seed)
        assert fast.to_records() == slow.to_records()

    def test_bursty_saturating_branch_matches_scalar(self):
        # burst_factor * burst_fraction >= 1 pushes every arrival into the
        # burst window (off rate 0) — the branch with the thinning rejects.
        tenants = mixed_tenants()
        fast = bursty_trace(tenants, 20.0, seed=3, burst_factor=10.0, burst_fraction=0.2)
        slow = bursty_trace_scalar(tenants, 20.0, seed=3, burst_factor=10.0, burst_fraction=0.2)
        assert fast.to_records() == slow.to_records()

    def test_columns_and_requests_views_agree(self):
        trace = serve_trace()
        rebuilt = RequestTrace(name=trace.name, requests=list(trace),
                               duration_s=trace.duration_s)
        assert rebuilt.to_records() == trace.to_records()
        assert isinstance(trace.columns, TraceColumns)
        assert len(trace.columns) == len(trace)

    def test_columnar_storage_is_compact(self):
        trace = poisson_trace(llm_tenants(2, rate_rps=5000.0), duration_s=10.0, seed=1)
        assert len(trace) > 50_000
        # ~50 bytes per request in columns; a dataclass per request costs kB.
        assert trace.columns.nbytes < 64 * len(trace)


# -------------------------------------------------------------- engine parity
class TestEngineParity:
    @pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
    @pytest.mark.parametrize("seed", [7, 23])
    def test_request_runner_matches_oracle(self, scheduler, seed):
        assert_matches_oracle(simulator(scheduler), serve_trace(seed=seed))

    def test_multi_server_closed_form_fallback_matches_oracle(self):
        # One node keeps fcfs on the closed-form prefix scan; several nodes
        # exercise the heap loop. Both must agree with the scalar reference.
        trace = serve_trace(seed=11)
        for nodes in (1, 3):
            config = maco_default_config(num_nodes=nodes)
            assert_matches_oracle(ServeSimulator(config=config), trace)


# -------------------------------------------------------------- shard parity
class TestShardParity:
    @pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
    def test_reports_identical_across_shard_counts(self, scheduler):
        trace = serve_trace(seed=5, duration=30.0)
        reports = {
            shards: simulator(scheduler).run(trace, shards=shards).to_json()
            for shards in (1, 2, 7)
        }
        assert reports[1] == reports[2] == reports[7]

    def test_reports_identical_across_jobs(self):
        trace = serve_trace(seed=5, duration=30.0)
        serial = simulator(jobs=1).run(trace, shards=4).to_json()
        pooled = simulator(jobs=2).run(trace, shards=4).to_json()
        assert serial == pooled

    def test_oracle_agrees_on_shard_segments(self):
        assert_matches_oracle(simulator(), serve_trace(seed=9), shards=3)

    def test_sharding_rejects_bad_counts(self):
        trace = serve_trace()
        with pytest.raises(ValueError, match="shards"):
            simulator().run(trace, shards=0)

    def test_step_mode_reports_identical_across_shard_counts(self):
        # Step batching cuts through the same serial-drain bound, charging
        # each request one KV restore of its peak state on top; the cuts
        # depend on the trace alone and every segment starts cold, so any
        # shards >= 1 agree byte for byte (shards=None stays the continuous
        # semantics).
        trace = serve_trace(seed=5, duration=30.0)
        step = ServeSimulator(config=maco_default_config(num_nodes=4),
                              batching="step", max_batch=8)
        reports = {
            shards: step.run(trace, shards=shards).to_json()
            for shards in (1, 2, 7)
        }
        assert reports[1] == reports[2] == reports[7]


# -------------------------------------------------------- percentile parity
class TestPercentileParity:
    def test_partition_path_matches_scalar_on_random_inputs(self):
        rng = random.Random(42)
        for _ in range(25):
            size = rng.choice([1, 2, 17, 1023, 1024, 4097])
            values = [rng.random() * 1e3 for _ in range(size)]
            for q in (0, 1, 50, 95, 99, 100, rng.random() * 100):
                rank = max(1, math.ceil(q / 100.0 * size))
                reference = sorted(values)[rank - 1]
                assert percentile(values, q) == reference
                assert percentile(np.asarray(values), q) == reference

    def test_latency_summary_accepts_arrays(self):
        values = np.linspace(1.0, 2.0, 5000)
        summary = latency_summary(values)
        assert summary["p50"] == percentile(values, 50)
        assert summary["p95"] == percentile(values, 95)
        assert summary["mean"] == pytest.approx(1.5)


# ------------------------------------------------------------ replay streaming
class TestReplayStreaming:
    def test_streams_file_without_materializing(self, tmp_path):
        trace = serve_trace(seed=13)
        path = tmp_path / "trace.json"
        trace.save(path)
        replayed = replay_trace(path)
        assert replayed.to_records() == trace.to_records()
        report_a = simulator().run(trace).to_json()
        report_b = simulator().run(replayed).to_json()
        # Only the trace name differs between the two reports.
        assert json.loads(report_a)["tenants"] == json.loads(report_b)["tenants"]

    def test_duplicate_request_id_is_an_error(self):
        records = [
            {"request_id": 4, "tenant": "a", "workload": "bert", "arrival_s": 0.1},
            {"request_id": 4, "tenant": "a", "workload": "bert", "arrival_s": 0.2},
        ]
        with pytest.raises(ValueError, match="duplicate"):
            replay_trace(records)

    def test_out_of_order_request_id_is_an_error(self):
        records = [
            {"request_id": 9, "tenant": "a", "workload": "bert", "arrival_s": 0.1},
            {"request_id": 2, "tenant": "a", "workload": "bert", "arrival_s": 0.2},
        ]
        with pytest.raises(ValueError, match="out-of-order"):
            replay_trace(records)

    def test_mixed_id_presence_is_an_error(self):
        records = [
            {"request_id": 1, "tenant": "a", "workload": "bert", "arrival_s": 0.1},
            {"tenant": "a", "workload": "bert", "arrival_s": 0.2},
        ]
        with pytest.raises(ValueError, match="request_id"):
            replay_trace(records)

    def test_malformed_record_reports_its_position(self):
        records = [
            {"tenant": "a", "workload": "bert", "arrival_s": 0.1},
            {"tenant": "a", "workload": "bert"},
        ]
        with pytest.raises(ValueError, match="record 1"):
            replay_trace(records)
