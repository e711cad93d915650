"""Tests of the benchmark's own logic: statistics, tracing and output checks."""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

from perfbench import checks, layers, run, stats, workloads
from perfbench.tracing import Instrumentation, Target, Tracer, profile_passes


# ------------------------------------------------------------ tail percentile
@pytest.mark.parametrize("count, percentile, rank", [
    (11, 9, 1), (20, 50, 10), (50, 80, 40), (57, 82, 47), (100, 90, 90), (1000, 99, 990),
])
def test_tail_percentile_leaves_ten_samples_beyond(count, percentile, rank):
    values = [float(v) for v in range(count, 0, -1)]  # unsorted on purpose
    tail = stats.tail_percentile(values)
    assert tail == stats.Tail(percentile, float(rank), count - rank, count)


def test_tail_percentile_is_the_highest_such_percentile():
    for count in range(11, 400):
        tail = stats.tail_percentile(range(count))
        assert tail.beyond >= 10
        # One percent higher would leave fewer than ten samples beyond.
        assert count - math.ceil((tail.percentile + 1) * count / 100) < 10


def test_tail_percentile_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        stats.tail_percentile([1.0] * 10)


def test_relative_spread_uses_quartiles_over_median():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    first, _, third = [1.5, 3.0, 4.5]
    assert stats.relative_spread(values) == pytest.approx((third - first) / 3.0)


# ------------------------------------------------------------------- tracing
class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _nested_calls(tracer: Tracer, clock: FakeClock):
    def leaf():
        clock.now += 0.5

    def inner():
        clock.now += 2.0
        traced_leaf()

    def outer():
        clock.now += 1.0
        traced_inner()
        clock.now += 3.0
        traced_inner()

    traced_leaf = tracer.wrap(leaf, "leaf")
    traced_inner = tracer.wrap(inner, "inner")
    return tracer.wrap(outer, "outer")


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    outer = _nested_calls(tracer, clock)
    tracer.pass_id = 7
    outer()
    profile = profile_passes(tracer)[7]
    assert profile.total_s == {"leaf": 1.0, "inner": 5.0, "outer": 9.0}
    assert profile.self_s == {"leaf": 1.0, "inner": 4.0, "outer": 4.0}
    assert profile.calls == {"leaf": 2, "inner": 2, "outer": 1}
    assert sum(profile.self_s.values()) == profile.attributed_s == 9.0
    assert list(tracer.parent) == [-1, 0, 1, 0, 3]


def test_profiles_are_kept_per_pass():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    outer = _nested_calls(tracer, clock)
    for pass_id in (0, 1):
        tracer.pass_id = pass_id
        outer()
    profiles = profile_passes(tracer)
    assert sorted(profiles) == [0, 1]
    assert profiles[0].self_s == profiles[1].self_s


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def fails():
        clock.now += 1.0
        raise KeyError("boom")

    with pytest.raises(KeyError):
        tracer.wrap(fails, "fails")()
    assert list(tracer.end) == [1.0] and tracer._stack == []


def test_instrumentation_patches_every_binding_and_restores_them():
    source = types.ModuleType("fakeprog.source")
    exec("def work(x):\n    return x + 1\n"
         "class Layer:\n    def step(self):\n        return work(1)\n", source.__dict__)
    caller = types.ModuleType("fakeprog.caller")
    caller.renamed = source.work  # `from fakeprog.source import work as renamed`
    original_step = source.Layer.step
    saved = {name: sys.modules.get(name) for name in ("fakeprog.source", "fakeprog.caller")}
    sys.modules.update({"fakeprog.source": source, "fakeprog.caller": caller})
    try:
        tracer = Tracer()
        instrumentation = Instrumentation(tracer, [
            Target(source, "work", "work"), Target(source.Layer, "step", "step"),
            Target(source, "missing", "missing")], prefix="fakeprog")
        assert instrumentation.dropped == ["fakeprog.source.missing"]
        with instrumentation:
            assert caller.renamed(1) == 2 and source.Layer().step() == 2
        assert caller.renamed is source.work and source.Layer.step is original_step
        source.Layer().step()  # untraced again
        assert [tracer.names[code] for code in tracer.name_id] == ["work", "step", "work"]
        assert list(tracer.parent) == [-1, -1, 1]
    finally:
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module


def test_every_layer_target_resolves():
    tracer = Tracer()
    instrumentation = Instrumentation(tracer, layers.targets())
    assert instrumentation.dropped == []
    spans = {span for _, span in layers.SPAN_SECONDS} | {span for _, span in layers.SPAN_CALLS}
    assert spans <= set(tracer.names)


# ---------------------------------------------------------- output checks
class SmallServe(workloads.ServeRequest):
    REQUESTS = 300


@pytest.fixture(scope="module")
def serve_output():
    workload = SmallServe()
    workload.setup(3)
    return workload, workload.run_pass(0)


def test_serve_checks_pass_on_a_real_report(serve_output):
    workload, output = serve_output
    result = workload.check(output, 0)
    assert (result.attempted, result.failed, result.messages) == (1, 0, [])


def test_dropped_request_raises_error_rate(serve_output):
    workload, output = serve_output
    serve = workload._serve
    simulator = serve.ServeSimulator(
        config=workload._config.maco_default_config(num_nodes=workload.NODES),
        scheduler="sjf")
    tenants = simulator.suggest_rates(workload.tenants, utilization=0.9)
    trace = serve.poisson_trace(tenants, workload.REQUESTS / sum(t.rate_rps for t in tenants),
                                seed=workloads.variant_seed(3, 0))
    dropped = serve.RequestTrace(name=trace.name, requests=trace.requests[1:],
                                 duration_s=trace.duration_s)
    report = simulator.run(dropped)
    mutated = workloads.ServeOutput(output.tenant_counts, report, report.to_json())
    ledger = run.Ledger(workload)
    ledger.record(output, 0)
    assert ledger.failed == 0
    ledger.record(mutated, 1)
    assert ledger.failed == 1 and ledger.failed / ledger.attempted == 0.5
    assert any("submitted" in message for message in ledger.messages)


@pytest.mark.parametrize("field, value, phrase", [
    ("latency_p99_s", float("nan"), "finite"),
    ("queue_depth_mean", -1.0, "non-negative"),
    ("latency_p50_s", 1e9, "out of order"),
    ("slo_attainment", 1.5, "outside [0, 1]"),
])
def test_serve_checks_catch_malformed_fields(serve_output, field, value, phrase):
    _, output = serve_output
    report = dataclasses.replace(output.report, **{field: value})
    failures = checks.check_serve_report(report, output.tenant_counts)
    assert any(phrase in failure for failure in failures)


def test_repeated_pass_with_different_outputs_counts_as_a_failure(serve_output):
    workload, output = serve_output
    ledger = run.Ledger(workload)
    ledger.record(output, 0)
    ledger.record(dataclasses.replace(output, text=output.text + " "), 0)
    assert ledger.failed == 1


def test_efficiency_and_scaling_checks():
    assert checks.check_efficiency("x", 0.97) == []
    assert checks.check_efficiency("x", 1.0) == []
    assert checks.check_efficiency("x", 0.0) and checks.check_efficiency("x", 1.01)
    assert checks.check_node_scaling("x", [0.99, 0.98, 0.98, 0.9]) == []
    assert checks.check_node_scaling("x", [0.99, 0.98, 0.985])


class SmallFunctional(workloads.FunctionalMpais):
    def setup(self, seed: int) -> None:
        super().setup(seed)
        from repro.gemm import Precision

        self.cases = [(Precision.FP64, 48), (Precision.FP32, 64), (Precision.FP16, 40)]
        self.matrices = [
            [(np.random.default_rng(seed).standard_normal((size, size)),
              np.random.default_rng(seed + 1).standard_normal((size, size)))
             for _, size in self.cases]
            for _ in range(workloads.VARIANTS)]


@pytest.fixture(scope="module")
def functional_output():
    workload = SmallFunctional()
    workload.setup(5)
    return workload, workload.run_pass(0)


def test_functional_checks_pass_on_real_gemms(functional_output):
    workload, output = functional_output
    result = workload.check(output, 0)
    assert (result.attempted, result.failed) == (6, 0), result.messages
    assert workload.counts(output)["mmae.matlb.prewalks"] > 0


@pytest.mark.parametrize("case, delta", [(0, 1e-6), (1, 1e-2), (2, 2.0)])
def test_perturbed_c_element_raises_error_rate(functional_output, case, delta):
    workload, output = functional_output
    index = next(i for i, gemm in enumerate(output.gemms) if gemm.case == case)
    c = output.gemms[index].c.copy()
    c[3, 5] += delta
    gemms = list(output.gemms)
    gemms[index] = dataclasses.replace(gemms[index], c=c)
    result = workload.check(dataclasses.replace(output, gemms=gemms), 0)
    assert result.failed == 1
    assert "C[3, 5]" in result.messages[0]


def test_status_word_exception_is_a_failure(functional_output):
    workload, output = functional_output
    gemms = [dataclasses.replace(output.gemms[0], status_exception=True)] + output.gemms[1:]
    assert workload.check(dataclasses.replace(output, gemms=gemms), 0).failed == 1


# -------------------------------------------------------------- the contract
def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, unit) for name, unit, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.metric_units()
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_run_without_the_program_exits_2_without_a_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-step", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "cannot import repro" in done.stderr or "not from" in done.stderr
    assert '"correct"' not in done.stdout

