"""Golden-model conformance harness and property-based scenario fuzzing.

Two complementary layers guard the functional fidelity (DESIGN.md
section 10):

* the **golden corpus** (:mod:`repro.conformance.golden` executed by
  :mod:`repro.conformance.harness`) pins specific kernel outputs — GEMM
  variants across every :class:`~repro.gemm.precision.Precision`, the
  two-level tile schedule, the im2col conv lowering, the systolic wavefront
  emulators and the GEMM+ overlap model — against
  independent NumPy references under per-precision tolerances, with
  fingerprints committed under ``tests/golden/``;
* the **fuzz layer** (:mod:`repro.conformance.fuzz`) samples whole scenarios
  (catalog workloads, parallel plans, serve simulations, trace generators)
  and asserts the repo's exact cross-implementation invariants: conservation,
  degree-1 and sharding bit-identity, scalar/vectorized parity, and JSON
  round-trip losslessness.

Both are exposed as ``python -m repro.cli conformance`` (``run`` / ``fuzz`` /
``replay``).
"""

from repro.conformance.golden import (
    KERNELS,
    PRECISION_TOLERANCES,
    GoldenCase,
    GoldenMismatch,
    KernelDef,
    default_corpus,
    kernel_for,
)
from repro.conformance.harness import (
    DEFAULT_GOLDEN_DIR,
    CaseResult,
    ConformanceReport,
    GoldenFileError,
    RegenRefused,
    case_fingerprint,
    compare_arrays,
    load_golden_file,
    run_case,
    run_corpus,
    write_golden_file,
)
from repro.conformance.fuzz import (
    SCENARIO_KINDS,
    FuzzReport,
    ScenarioFailure,
    ScenarioResult,
    ScenarioSpec,
    fuzz,
    replay,
    run_scenario,
)

__all__ = [
    "KERNELS",
    "PRECISION_TOLERANCES",
    "GoldenCase",
    "GoldenMismatch",
    "KernelDef",
    "default_corpus",
    "kernel_for",
    "DEFAULT_GOLDEN_DIR",
    "CaseResult",
    "ConformanceReport",
    "GoldenFileError",
    "RegenRefused",
    "case_fingerprint",
    "compare_arrays",
    "load_golden_file",
    "run_case",
    "run_corpus",
    "write_golden_file",
    "SCENARIO_KINDS",
    "FuzzReport",
    "ScenarioFailure",
    "ScenarioResult",
    "ScenarioSpec",
    "fuzz",
    "replay",
    "run_scenario",
]
