"""The pins hold under Python 3.12's ``sum()`` on every interpreter.

From Python 3.12 on, ``sum()`` over floats compensates its rounding
(Neumaier), so its last bit can differ from a left-to-right sum.  Every
float sum that feeds a reported number adds left to right instead
(``repro.core.mapping.in_order_sum``, DESIGN.md section 4.2).  This test
re-runs the last-bit pin files in a fresh interpreter with ``builtins.sum``
swapped for :func:`sum312`, a pure-Python copy of CPython 3.12's algorithm,
so a float ``sum()`` that reaches a pinned number fails on 3.10 and 3.11
too.  On 3.12 and later the pins run with the interpreter's own ``sum()``.
In-process, each routed site must also give the same bits whichever
algorithm ``builtins.sum`` implements, on inputs whose compensated and
left-to-right sums differ.
"""

from __future__ import annotations

import builtins
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
PIN_FILES = (
    "tests/test_cpu_model_pins.py",
    "tests/test_paper_path_pins.py",
    "tests/test_step_runner_pins.py",
)
# The range of a C long on the LP64 platforms CI runs.
_LONG_MIN, _LONG_MAX = -(2**63), 2**63 - 1
# The interpreter's own sum(), bound before any swap.
_BUILTIN_SUM = sum


def _fits_long(value: int) -> bool:
    return _LONG_MIN <= value <= _LONG_MAX


def sum312(iterable, /, start=0):
    """``sum()`` as CPython 3.12 computes it (``builtin_sum_impl``).

    An int fast path first; then Neumaier-compensated addition over exact
    ``float`` items (ints in C-long range are added as doubles without
    compensation), with the compensation added when the floats end; any
    other item (``np.float64`` included) ends the fast paths, and the rest
    adds with ``+``.
    """
    items = iter(iterable)
    result = start
    if type(result) is int and _fits_long(result):
        for item in items:
            if type(item) in (int, bool) and _fits_long(item) and _fits_long(result + item):
                result += item
                continue
            result = result + item
            break
        else:
            return result
    if type(result) is float:
        total, compensation = result, 0.0
        for item in items:
            if type(item) is float:
                step = total + item
                if abs(total) >= abs(item):
                    compensation += (total - step) + item
                else:
                    compensation += (item - step) + total
                total = step
                continue
            if isinstance(item, int) and _fits_long(item):
                total += float(item)
                continue
            if compensation and math.isfinite(compensation):
                total += compensation
            result = total + item
            break
        else:
            if compensation and math.isfinite(compensation):
                total += compensation
            return total
    for item in items:
        result = result + item
    return result


class TestSum312:
    """:func:`sum312` is 3.12's ``sum()``, not 3.11's."""

    def test_floats_are_compensated(self):
        assert sum312([0.1] * 10) == 1.0
        assert sum312([1e100, 1.0, -1e100]) == 1.0
        assert sum312([0.1, 0.2, 0.3], 0.5) == 1.1

    def test_numpy_floats_add_left_to_right(self):
        values = [np.float64(0.1)] * 10
        assert sum312(values) == _BUILTIN_SUM(values) == 0.9999999999999999

    def test_ints_and_other_types_are_exact(self):
        assert sum312(range(10)) == 45
        assert sum312([2**62, 2**62, 2**62]) == 3 * 2**62
        assert sum312([True, 2, 0.5]) == 3.5
        assert sum312([[1], [2]], []) == [1, 2]
        assert sum312([]) == 0

    def test_compensation_keeps_signed_zero_and_infinity(self):
        assert math.copysign(1.0, sum312([-0.0, -0.0], -0.0)) == -1.0
        assert sum312([1e308, 1e308]) == math.inf
        assert math.isnan(sum312([math.inf, -math.inf]))


def left_to_right_sum(iterable, /, start=0):
    """``sum()`` as CPython 3.11 and earlier compute it: ``+`` left to right."""
    result = start
    for item in iterable:
        result = result + item
    return result


# Ten tenths add to 0.9999999999999999 left to right and to 1.0 compensated.
TENTHS = (0.1,) * 10


class TestReferenceSums:
    """The left-to-right reference the site checks below compare against,
    and the reducer the sites go through."""

    def test_left_to_right_sum_is_the_pre_3_12_sum(self):
        assert left_to_right_sum(TENTHS) == 0.9999999999999999 != sum312(TENTHS)
        assert left_to_right_sum([1e100, 1.0, -1e100]) == 0.0
        assert left_to_right_sum(range(10)) == 45
        assert left_to_right_sum([[1], [2]], []) == [1, 2]

    def test_in_order_sum_adds_left_to_right_from_float_zero(self):
        from repro.core.mapping import in_order_sum

        assert in_order_sum(TENTHS) == left_to_right_sum(TENTHS)
        assert in_order_sum(iter([1e100, 1.0, -1e100])) == 0.0
        assert in_order_sum(np.float64(0.1) for _ in range(10)) == 0.9999999999999999
        empty = in_order_sum([])
        assert type(empty) is float and math.copysign(1.0, empty) == 1.0


# --------------------------------------------------------------- routed sites
# Each site returns a reported number (or a record of them) computed through
# one of the float sums that DESIGN.md section 4.2 routes through
# ``in_order_sum``.  The crafted sites feed it the tenths above (or, for the
# explorer, terms that also round differently), so a site that went back to
# ``sum()`` would change bits under :func:`sum312`.

def _average_gap():
    from repro.analysis.efficiency import average_gap
    from repro.core.perf import EfficiencyPoint

    return average_gap(
        EfficiencyPoint(size, 1, enabled, 0.1 if enabled else 0.0, 1.0, 1.0)
        for size in range(64, 704, 64) for enabled in (True, False))


def _summarize_scalability():
    from repro.analysis.efficiency import summarize_scalability
    from repro.core.perf import EfficiencyPoint

    return summarize_scalability(
        EfficiencyPoint(size, 4, True, 0.1, 1.0, 1.0) for size in range(64, 704, 64))


def _per_node_efficiency():
    from repro.core.metrics import NodeResult, SystemResult
    from repro.gemm import GEMMShape

    # Ten nodes at 1 GFLOP/s each against a 10 GFLOP/s per-node peak.
    nodes = [NodeResult(node_id, 1.0, 10**9) for node_id in range(10)]
    return SystemResult(GEMMShape(64, 64, 64), 10, 1.0, 10**10, 100.0,
                        node_results=nodes).per_node_efficiency


def _average_efficiency():
    from repro.core.metrics import SystemResult, average_efficiency
    from repro.gemm import GEMMShape

    return average_efficiency(
        [SystemResult(GEMMShape(64, 64, 64), 1, 1.0, 10**9, 10.0) for _ in range(10)])


def _mean_utilization():
    from repro.serve.report import NodeStats, ServeReport

    nodes = [NodeStats(node_id, 1, 0.1, 0.1, 0, 0.0) for node_id in range(10)]
    return ServeReport("crafted", "fcfs", 10, 10, 1.0, 10.0, 0.1, 0.1, 0.1, 0.1,
                       0.0, 0, 0.0, nodes=nodes).mean_utilization


def _tenths_tenant():
    from repro.serve.trace import TenantSpec

    mix = tuple((("bert", "gpt3")[index % 2], weight) for index, weight in enumerate(TENTHS))
    return TenantSpec("crafted", mix=mix)


def _mean_mix_weights():
    return _tenths_tenant().mean_mix_weights()


def _suggest_rates():
    from repro.core.config import maco_default_config
    from repro.serve import ServeSimulator

    simulator = ServeSimulator(config=maco_default_config(num_nodes=4))
    return simulator.suggest_rates([_tenths_tenant()])


def _explorer_efficiency():
    from repro.core.config import maco_default_config
    from repro.core.explorer import DesignSpaceExplorer
    from repro.gemm import GEMMShape, Precision

    shapes = [GEMMShape(100, 100, 100, precision)
              for precision in (Precision.FP64, Precision.FP32, Precision.FP16)]
    return DesignSpaceExplorer._efficiency(maco_default_config(), shapes, 1.0, 1.0)


def _parallel_plan_totals():
    from repro.parallel.partitioner import ParallelPlan, PhasePlan

    phases = [
        PhasePlan(name=f"phase{step}", kind="gemm", step=step, repeat=1, stage=0, nodes=(0,),
                  unsharded_seconds=0.1, node_compute_seconds=(0.1,), comm_seconds=0.2,
                  comm_bytes=0, collective="none", comm_overlapped_seconds=0.1)
        for step in range(10)
    ]
    plan = ParallelPlan(workload="crafted", strategy="tp", degree=1, group=(0,), phases=phases)
    return (plan.compute_seconds, plan.comm_seconds, plan.comm_overlapped_seconds,
            plan.comm_exposed_seconds, plan.unsharded_seconds, plan.total_seconds)


def _service_profiles():
    from repro.core.config import maco_default_config
    from repro.serve import ServeSimulator

    profiles = []
    for parallelism in (None, "tp:2", "pp:2"):
        simulator = ServeSimulator(config=maco_default_config(num_nodes=4),
                                   parallelism=parallelism)
        for workload in ("bert", "gpt3", "resnet50", "llama-7b@prefill",
                         "llama-7b@decode", "moe-8x"):
            profiles.append(simulator.service_profile(workload))
    return profiles


ROUTED_SITES = {
    "average_gap": _average_gap,
    "summarize_scalability": _summarize_scalability,
    "per_node_efficiency": _per_node_efficiency,
    "average_efficiency": _average_efficiency,
    "mean_utilization": _mean_utilization,
    "mean_mix_weights": _mean_mix_weights,
    "suggest_rates": _suggest_rates,
    "explorer_efficiency": _explorer_efficiency,
    "parallel_plan_totals": _parallel_plan_totals,
    "service_profiles": _service_profiles,
}


@pytest.mark.parametrize("site", sorted(ROUTED_SITES))
def test_site_gives_the_same_bits_under_either_sum(site, monkeypatch):
    """A reported number does not depend on the ``builtins.sum`` algorithm."""
    monkeypatch.setattr(builtins, "sum", left_to_right_sum)
    left_to_right = repr(ROUTED_SITES[site]())
    monkeypatch.setattr(builtins, "sum", sum312)
    assert repr(ROUTED_SITES[site]()) == left_to_right


@pytest.mark.parametrize("pin_file", PIN_FILES)
def test_pins_hold_under_the_3_12_sum(pin_file):
    swap = (
        "import builtins, test_sum_rule; builtins.sum = test_sum_rule.sum312"
        if sys.version_info < (3, 12) else "pass"
    )
    script = (
        f"import sys; sys.path.insert(0, 'tests'); {swap}; import pytest; "
        f"sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', {pin_file!r}]))"
    )
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", script], cwd=REPO_ROOT, env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-4000:]
