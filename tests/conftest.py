"""Shared fixtures for the test-suite.

The parity-test factories consolidated out of ``test_serve_vectorized.py``,
``test_parallel.py`` and ``test_vectorized_parity.py`` live in
``parity_utils.py`` (importable because the flat test layout keeps ``tests/``
on ``sys.path``); the fixtures here re-expose the shared configuration and
timing-cache instances those suites and the parallel-plan consumers use.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MACOSystem, maco_default_config
from repro.core.perf import TimingCache


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator for numerical tests."""
    return np.random.default_rng(seed=1234)


@pytest.fixture
def small_config():
    """A 4-node MACO configuration (fast to build, exercises the multi-node paths)."""
    return maco_default_config(num_nodes=4)


@pytest.fixture
def small_system(small_config) -> MACOSystem:
    """A 4-node MACO system (per-node host memory)."""
    return MACOSystem(small_config)


@pytest.fixture
def single_node_system() -> MACOSystem:
    """A single-node MACO system for functional MPAIS tests."""
    return MACOSystem(maco_default_config(num_nodes=1))


@pytest.fixture(scope="session")
def default_config():
    """The full default MACO configuration, shared across modules."""
    return maco_default_config()


@pytest.fixture(scope="session")
def timing_cache() -> TimingCache:
    """One timing cache for every parallel-plan test (plans are deterministic,
    so sharing the cache across modules only removes redundant GEMM walks)."""
    return TimingCache()
