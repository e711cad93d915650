"""Shared parity-test factories (imported by conftest.py and test modules).

These are the consolidated versions of what used to be ad-hoc module-level
helpers duplicated across ``test_serve_vectorized.py``, ``test_parallel.py``
and ``test_vectorized_parity.py`` — and the same constructions the
conformance fuzz layer (:mod:`repro.conformance.fuzz`) samples from.  They
live in their own module (not ``conftest.py``) because the benchmarks
directory has a ``conftest.py`` of its own, which makes a bare
``import conftest`` ambiguous in a whole-repo pytest run.
"""

from __future__ import annotations

import numpy as np

from repro.core import maco_default_config


def make_mixed_tenants(count=3, rate=4.0):
    """Tenants exercising every scheduler-relevant field: distinct rates and
    mixes, priority tiers for the priority policy, and TTFT/TPOT deadlines
    for the SLO policy's EDF ordering."""
    from repro.serve import default_tenants

    specs = [spec.with_rate(rate) for spec in default_tenants(count)]
    return [
        spec.with_slo(ttft_slo_s=0.5 + 0.25 * index,
                      tpot_slo_s=0.05,
                      priority=index % 2)
        for index, spec in enumerate(specs)
    ]


def make_serve_trace(seed=7, duration=20.0, count=3, rate=4.0):
    """The canonical mixed-tenant Poisson trace the parity suites replay."""
    from repro.serve import poisson_trace

    return poisson_trace(make_mixed_tenants(count, rate), duration_s=duration, seed=seed)


def make_serve_simulator(scheduler="fcfs", **kwargs):
    """A 4-node request-batching serve simulator."""
    from repro.serve import ServeSimulator

    return ServeSimulator(scheduler=scheduler, **{
        "config": maco_default_config(num_nodes=4), **kwargs})


def assert_matches_oracle(simulator, trace):
    """The request runner's completion columns equal the scalar oracle's on
    the simulator's lowering of ``trace``."""
    from repro.conformance.serve_oracle import check_request_engine

    mismatch = check_request_engine(simulator, trace)
    assert mismatch is None, mismatch


def run_emulator_pair(rows, cols, tr, seed):
    """Run one random block through the oracle's PE-by-PE emulator and the
    vectorized systolic emulator and return ``(scalar_result, vector_result)``
    for bit-identity assertions."""
    from repro.conformance.functional_oracle import SystolicArrayEmulator
    from repro.mmae.systolic_array import VectorizedSystolicArrayEmulator

    gen = np.random.default_rng(seed)
    a_block = gen.standard_normal((tr, rows))
    b_block = gen.standard_normal((rows, cols))
    scalar = SystolicArrayEmulator(rows=rows, cols=cols).run_block(a_block, b_block)
    vector = VectorizedSystolicArrayEmulator(rows=rows, cols=cols).run_block(a_block, b_block)
    return scalar, vector


def record_replays(monkeypatch):
    """Record which structure replays each steady tile (DESIGN.md section 6).

    Wraps ``MATLB.suffix_matches`` and ``TLB.suffix_matches`` and returns
    the list they append to: the class name of the structure, once per
    batch whose pages were its most recently used entries.
    """
    from repro.mem.tlb import TLB
    from repro.mmae.matlb import MATLB

    replays = []
    for cls in (MATLB, TLB):
        def recording(structure, keys, _match=cls.suffix_matches, _name=cls.__name__):
            matched = _match(structure, keys)
            if matched:
                replays.append(_name)
            return matched
        monkeypatch.setattr(cls, "suffix_matches", recording)
    return replays
