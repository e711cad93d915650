"""Declarative golden kernels for the functional fidelity.

Each kernel follows the three-callable idiom of declarative golden scripts
(``generate_inputs`` / ``run_functional`` / ``compute_golden``): inputs are
rebuilt deterministically from the case's seed, the functional fidelity under
test produces one array, an independent NumPy (or plain-Python) model produces
the golden array, and the two are compared element-wise under the case's
``rtol``/``atol``.  Tolerances follow the precision policy in
:data:`PRECISION_TOLERANCES` — FP64 kernels must agree to reassociation noise,
FP32/FP16 kernels to their datapath rounding — and every case is pinned in a
committed JSON file under ``tests/golden/`` (see :mod:`repro.conformance.harness`).

The corpus spans the functional surfaces the repo's bit-identical guarantees
rest on:

* ``gemm`` — :meth:`SystolicArray.compute_tile` GEMMs (square and skewed,
  with and without a C accumulator) across all three :class:`Precision` modes;
* ``tiled-gemm`` — the full two-level MACO tile schedule run by the
  :class:`~repro.mmae.controller.AcceleratorController`'s functional mode,
  cross-checked bit-exactly against :func:`blocked_gemm` in FP64;
* ``im2col-conv`` — the conv lowering used by ``resnet50_graph``:
  :func:`im2col_patches` GEMM versus a direct SAME-padded convolution, with
  the patch matrix shape asserted against :func:`conv2d_gemm`;
* ``wavefront`` — the vectorized systolic emulator versus the plain matmul
  golden, with bit-identity to the PE-by-PE emulator of
  :mod:`repro.conformance.functional_oracle` asserted inside the kernel;
* ``gemm-plus`` — :func:`schedule_gemm_plus` overlap timing versus the
  closed-form model documented in DESIGN.md;
* ``summa-pipeline`` — :func:`summa_pipeline_seconds`'s
  ``max(compute, bcast) + min(compute, bcast) / steps`` closed form versus
  the step-by-step pipeline timeline (prologue broadcast, ``S - 1``
  overlapped steps, epilogue compute) summed independently, with the
  ``lcm`` step count cross-checked against a gcd-based derivation;
* ``autoscale`` — the :class:`~repro.serve.autoscale.Autoscaler` hysteresis
  state machine replayed over synthetic per-window pressure observations
  (a bursty scale-out/drain-merge profile and a steady profile that must
  never scale) versus an independently coded replay of the DESIGN.md
  section 11 rules, emitting the committed-fleet timeline, the per-window
  scale delta and the decision reason.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Tuple

import numpy as np

from repro.conformance.reference import (
    blocked_gemm,
    conv2d_reference,
    im2col_patches,
    reference_gemm,
)
from repro.core.mapping import schedule_gemm_plus
from repro.gemm.precision import Precision
from repro.gemm.tiling import TileConfig, TwoLevelTiling
from repro.gemm.workloads import GEMMShape
from repro.conformance.analytic_oracle import check_covers_shape
from repro.conformance.functional_oracle import SystolicArrayEmulator
from repro.isa.instructions import GEMMDescriptor
from repro.mem.hostmem import HostMemory
from repro.mmae.controller import AcceleratorController
from repro.mmae.systolic_array import (
    SystolicArray,
    VectorizedSystolicArrayEmulator,
    datapath_operand,
)
from repro.workloads.layers import conv2d_gemm

__all__ = [
    "PRECISION_TOLERANCES",
    "GoldenCase",
    "KernelDef",
    "KERNELS",
    "default_corpus",
    "kernel_for",
]

#: ``(rtol, atol)`` per datapath precision.  FP64 kernels compute the same
#: IEEE operations as the golden up to reassociation, so they sit at 1e-12;
#: FP32 inputs round at 2^-24 and FP16 at 2^-11 (with FP32 accumulation), and
#: the tolerances allow the K-fold accumulation of that input rounding.
PRECISION_TOLERANCES: Dict[Precision, Tuple[float, float]] = {
    Precision.FP64: (1e-12, 1e-12),
    Precision.FP32: (1e-5, 1e-5),
    Precision.FP16: (2e-2, 5e-2),
}


class GoldenMismatch(AssertionError):
    """An internal cross-check inside a kernel failed (not a tolerance diff)."""


@dataclass(frozen=True)
class GoldenCase:
    """One declarative golden case: kernel name, seed, parameters, tolerances."""

    name: str
    kernel: str
    seed: int
    params: Tuple[Tuple[str, object], ...]
    rtol: float
    atol: float

    def param(self, key: str) -> object:
        for name, value in self.params:
            if name == key:
                return value
        raise KeyError(f"golden case {self.name!r} has no parameter {key!r}")

    @property
    def precision(self) -> Precision:
        return Precision.from_string(str(self.param("precision")))

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kernel": self.kernel,
            "seed": self.seed,
            "params": {key: value for key, value in self.params},
            "rtol": self.rtol,
            "atol": self.atol,
        }

    @classmethod
    def from_dict(cls, record: Mapping) -> "GoldenCase":
        try:
            params = tuple(sorted(dict(record["params"]).items()))
            return cls(
                name=str(record["name"]),
                kernel=str(record["kernel"]),
                seed=int(record["seed"]),
                params=params,
                rtol=float(record["rtol"]),
                atol=float(record["atol"]),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ValueError(f"malformed golden case record: {error}") from error


def _case(
    name: str,
    kernel: str,
    seed: int,
    params: Mapping[str, object],
    rtol: float = None,
    atol: float = None,
) -> GoldenCase:
    """Build a case, defaulting tolerances from the precision policy."""
    precision = Precision.from_string(str(params.get("precision", "fp64")))
    default_rtol, default_atol = PRECISION_TOLERANCES[precision]
    return GoldenCase(
        name=name,
        kernel=kernel,
        seed=seed,
        params=tuple(sorted(params.items())),
        rtol=default_rtol if rtol is None else rtol,
        atol=default_atol if atol is None else atol,
    )


@dataclass(frozen=True)
class KernelDef:
    """One golden kernel: deterministic inputs, functional run, NumPy golden."""

    name: str
    generate_inputs: Callable[[GoldenCase, np.random.Generator], dict]
    run_functional: Callable[[GoldenCase, dict], np.ndarray]
    compute_golden: Callable[[GoldenCase, dict], np.ndarray]


# ------------------------------------------------------------------- gemm
def _gemm_inputs(case: GoldenCase, rng: np.random.Generator) -> dict:
    m, n, k = (int(case.param(key)) for key in ("m", "n", "k"))
    inputs = {
        "a": rng.standard_normal((m, k)),
        "b": rng.standard_normal((k, n)),
    }
    if case.param("accumulate"):
        inputs["c"] = rng.standard_normal((m, n))
    return inputs


def _array_gemm(a: np.ndarray, b: np.ndarray, c, precision: Precision) -> np.ndarray:
    """``C + A @ B`` as one :meth:`SystolicArray.compute_tile` call, leaving the inputs unchanged."""
    # The array accumulates in place, so it gets a C of its own: a copy of
    # the case's C, or zeros.
    acc_dtype = precision.accumulate_dtype
    accumulator = (np.zeros((a.shape[0], b.shape[1]), dtype=acc_dtype) if c is None
                   else c.astype(acc_dtype))
    SystolicArray().compute_tile(
        datapath_operand(a, precision), datapath_operand(b, precision), accumulator, precision)
    return np.asarray(accumulator, dtype=np.float64)


def _gemm_functional(case: GoldenCase, inputs: dict) -> np.ndarray:
    return _array_gemm(inputs["a"], inputs["b"], inputs.get("c"), case.precision)


def _gemm_golden(case: GoldenCase, inputs: dict) -> np.ndarray:
    return reference_gemm(inputs["a"], inputs["b"], inputs.get("c"))


# ------------------------------------------------------------- tiled-gemm
def _tiled_gemm_functional(case: GoldenCase, inputs: dict) -> np.ndarray:
    precision = case.precision
    level1 = TileConfig(int(case.param("l1")), int(case.param("l1")))
    level2 = TileConfig(int(case.param("l2")), int(case.param("l2")))
    a, b = inputs["a"], inputs["b"]
    shape = GEMMShape(a.shape[0], b.shape[1], a.shape[1], precision)
    tiling = TwoLevelTiling(shape, level1, level2)
    if not check_covers_shape(tiling):
        raise GoldenMismatch(
            f"{case.name}: two-level tiling does not cover {shape} exactly"
        )
    # C is kept in the accumulator precision, so the controller's write-back
    # is exact and the array holds the accumulated sums themselves.
    c = np.zeros((shape.m, shape.n), dtype=precision.accumulate_dtype)
    memory = HostMemory()
    addresses = (0x10_0000, 0x20_0000, 0x30_0000)
    for address, matrix in zip(addresses, (a, b, c)):
        memory.register_matrix(address, matrix)
    controller = AcceleratorController(host_memory=memory)
    controller.submit_gemm(0, 0, GEMMDescriptor(
        *addresses, m=shape.m, n=shape.n, k=shape.k, precision=precision,
        tile_rows=level1.rows, tile_cols=level1.cols, ttr=level2.rows, ttc=level2.cols))
    result = controller.execute_pending()[0]
    if not (result.functional and result.succeeded):
        raise GoldenMismatch(f"{case.name}: the controller did not run the GEMM functionally")
    output = memory.matrix_at(addresses[2])
    if precision is Precision.FP64:
        # The FP64 schedule performs the same float64 tile matmuls and
        # additions as the plain-Python blocked reference, in the same
        # order, so the two must agree bit for bit — not just in tolerance.
        reference = blocked_gemm(a, b, level1=level1, level2=level2)
        if not np.array_equal(output, reference):
            raise GoldenMismatch(
                f"{case.name}: the controller is not bit-identical to blocked_gemm"
            )
    return np.asarray(output, dtype=np.float64)


# ------------------------------------------------------------ im2col-conv
def _conv_inputs(case: GoldenCase, rng: np.random.Generator) -> dict:
    batch = int(case.param("batch"))
    in_channels = int(case.param("in_channels"))
    out_channels = int(case.param("out_channels"))
    kernel = int(case.param("kernel"))
    size = int(case.param("input_size"))
    return {
        "images": rng.standard_normal((batch, in_channels, size, size)),
        "weights": rng.standard_normal((out_channels, in_channels, kernel, kernel)),
    }


def _conv_functional(case: GoldenCase, inputs: dict) -> np.ndarray:
    kernel = int(case.param("kernel"))
    stride = int(case.param("stride"))
    images, weights = inputs["images"], inputs["weights"]
    patches = im2col_patches(images, kernel, stride)
    expected = conv2d_gemm(
        images.shape[0], images.shape[1], weights.shape[0], kernel, stride,
        images.shape[2], case.precision,
    )
    if patches.shape != (expected.m, expected.k):
        raise GoldenMismatch(
            f"{case.name}: im2col patches {patches.shape} disagree with "
            f"conv2d_gemm geometry ({expected.m}, {expected.k})"
        )
    w_matrix = weights.reshape(weights.shape[0], -1).T
    return _array_gemm(patches, w_matrix, None, case.precision)


def _conv_golden(case: GoldenCase, inputs: dict) -> np.ndarray:
    return conv2d_reference(inputs["images"], inputs["weights"], int(case.param("stride")))


# -------------------------------------------------------------- wavefront
def _wavefront_inputs(case: GoldenCase, rng: np.random.Generator) -> dict:
    rows = int(case.param("rows"))
    cols = int(case.param("cols"))
    tr = int(case.param("tr"))
    return {
        "a_block": rng.standard_normal((tr, rows)),
        "b_block": rng.standard_normal((rows, cols)),
    }


def _wavefront_functional(case: GoldenCase, inputs: dict) -> np.ndarray:
    rows = int(case.param("rows"))
    cols = int(case.param("cols"))
    vectorized = VectorizedSystolicArrayEmulator(rows=rows, cols=cols)
    result = vectorized.run_block(inputs["a_block"], inputs["b_block"])
    scalar = SystolicArrayEmulator(rows=rows, cols=cols).run_block(
        inputs["a_block"], inputs["b_block"]
    )
    # The two emulators perform the same IEEE operations in the same cycle
    # order; parity is exact, not approximate (DESIGN.md section 6).
    if not np.array_equal(result.output, scalar.output):
        raise GoldenMismatch(
            f"{case.name}: vectorized emulator diverged from the scalar emulator"
        )
    if result.cycles != scalar.cycles or result.macs != scalar.macs:
        raise GoldenMismatch(
            f"{case.name}: emulator cycle/MAC counters diverged "
            f"({result.cycles}/{result.macs} vs {scalar.cycles}/{scalar.macs})"
        )
    return np.asarray(result.output, dtype=np.float64)


def _wavefront_golden(case: GoldenCase, inputs: dict) -> np.ndarray:
    return reference_gemm(inputs["a_block"], inputs["b_block"])


# -------------------------------------------------------------- gemm-plus
def _gemm_plus_inputs(case: GoldenCase, rng: np.random.Generator) -> dict:
    count = int(case.param("count"))
    return {
        "mmae": rng.uniform(0.01, 2.0, count),
        "cpu": rng.uniform(0.0, 1.0, count),
        "stash": rng.uniform(0.0, 0.5, count),
    }


def _gemm_plus_functional(case: GoldenCase, inputs: dict) -> np.ndarray:
    rows = []
    for mmae, cpu, stash in zip(inputs["mmae"], inputs["cpu"], inputs["stash"]):
        mapped = schedule_gemm_plus(float(mmae), float(cpu), float(stash), True)
        unmapped = schedule_gemm_plus(float(mmae), float(cpu), float(stash), False)
        rows.append([mapped.total_seconds, unmapped.total_seconds])
    return np.asarray(rows, dtype=np.float64)


def _gemm_plus_golden(case: GoldenCase, inputs: dict) -> np.ndarray:
    # The closed-form overlap model of DESIGN.md: with the mapping scheme the
    # hidden CPU tail overlaps the MMAE, the exposed tail and the dependent
    # stash traffic serialise; without it the tail serialises at halved
    # streaming bandwidth and nothing is stashed.
    exposed_fraction = 0.08
    slowdown = 2.0
    mmae, cpu, stash = inputs["mmae"], inputs["cpu"], inputs["stash"]
    hidden = cpu * (1.0 - exposed_fraction)
    exposed = cpu * exposed_fraction
    exposed_stash = np.minimum(stash, 0.10 * mmae + 1e-9)
    mapped = np.maximum(mmae, hidden) + exposed + exposed_stash
    unmapped = mmae + cpu * slowdown
    return np.stack([mapped, unmapped], axis=1)


# ---------------------------------------------------------- summa-pipeline
def _summa_inputs(case: GoldenCase, rng: np.random.Generator) -> dict:
    count = int(case.param("count"))
    compute = rng.uniform(0.01, 2.0, count)
    broadcast = rng.uniform(0.0, 2.0, count)
    # Pin the degenerate edges the closed form must honour exactly: a phase
    # with nothing to broadcast, and the comm-dominated regime.
    broadcast[0] = 0.0
    compute[1] = 0.01
    broadcast[1] = 2.0
    return {"compute": compute, "broadcast": broadcast}


def _summa_functional(case: GoldenCase, inputs: dict) -> np.ndarray:
    import math

    from repro.parallel.summa import summa_pipeline_seconds, summa_steps

    rows = int(case.param("rows"))
    cols = int(case.param("cols"))
    steps = summa_steps(rows, cols)
    # Independent step count: lcm via gcd, not math.lcm.
    if steps != rows * cols // math.gcd(rows, cols):
        raise GoldenMismatch(
            f"{case.name}: summa_steps({rows}, {cols}) = {steps} disagrees with "
            "the gcd-based lcm"
        )
    return np.asarray(
        [
            summa_pipeline_seconds(float(compute), float(broadcast), steps)
            for compute, broadcast in zip(inputs["compute"], inputs["broadcast"])
        ],
        dtype=np.float64,
    )


def _summa_golden(case: GoldenCase, inputs: dict) -> np.ndarray:
    # The pipeline timeline summed term by term: the first broadcast is
    # exposed, steps 2..S overlap the previous step's compute, the last
    # compute step runs with nothing behind it.  Algebraically equal to the
    # closed form max(compute, bcast) + min(compute, bcast) / S.
    import math

    rows = int(case.param("rows"))
    cols = int(case.param("cols"))
    steps = rows * cols // math.gcd(rows, cols)
    compute, broadcast = inputs["compute"], inputs["broadcast"]
    step_compute = compute / steps
    step_broadcast = broadcast / steps
    timeline = (
        step_broadcast
        + (steps - 1) * np.maximum(step_compute, step_broadcast)
        + step_compute
    )
    return np.where(broadcast == 0.0, compute, timeline)


# --------------------------------------------------------------- autoscale
def _autoscale_inputs(case: GoldenCase, rng: np.random.Generator) -> dict:
    windows = int(case.param("windows"))
    profile = str(case.param("profile"))
    quiet = windows // 4
    if profile == "bursty":
        # Quiet warmup, a long overload burst (deep queues plus SLO misses),
        # then an idle tail that forces the controller to drain back down.
        depth = np.concatenate([
            rng.integers(0, 2, quiet),
            rng.integers(10, 40, windows - 2 * quiet),
            np.zeros(quiet, dtype=np.int64),
        ])
        served = rng.integers(1, 5, windows)
        misses = np.zeros(windows, dtype=np.int64)
        burst = slice(quiet, windows - quiet)
        misses[burst] = np.minimum(
            served[burst], rng.integers(0, 5, windows - 2 * quiet))
    elif profile == "steady":
        # Depth pinned inside the hysteresis band for the minimum fleet and
        # perfect attainment: neither streak may ever reach the sustain gate.
        depth = rng.integers(2, 4, windows)
        served = rng.integers(2, 6, windows)
        misses = np.zeros(windows, dtype=np.int64)
    else:
        raise ValueError(f"unknown autoscale profile {profile!r}")
    return {
        "depth": depth.astype(np.int64),
        "served": served.astype(np.int64),
        "misses": misses.astype(np.int64),
    }


#: Reason codes for the autoscale kernel's third output column.
_AUTOSCALE_REASONS = {"queue-pressure": 1.0, "slo-pressure": 2.0, "idle": 3.0}


def _autoscale_functional(case: GoldenCase, inputs: dict) -> np.ndarray:
    from repro.serve.autoscale import AutoscalePolicy, Autoscaler

    policy = AutoscalePolicy(
        min_groups=int(case.param("min_groups")),
        max_groups=int(case.param("max_groups")),
        window_s=1.0,
        sustain_windows=int(case.param("sustain")),
        scale_out_queue_depth=float(case.param("out_depth")),
        scale_out_attainment=float(case.param("attainment")),
        scale_in_queue_depth=float(case.param("in_depth")),
        cooldown_s=float(case.param("cooldown_w")),
        provision_delay_s=0.5,
    )
    scaler = Autoscaler(policy)
    committed = policy.min_groups
    rows = []
    for window, (depth, served, misses) in enumerate(
            zip(inputs["depth"], inputs["served"], inputs["misses"])):
        decision = scaler.evaluate(
            float(window + 1), int(depth), int(served), int(misses), committed, 0)
        delta, code = 0, 0.0
        if decision is not None:
            direction, reason = decision
            delta = 1 if direction == "out" else -1
            code = _AUTOSCALE_REASONS[reason]
            committed += delta
        if not policy.min_groups <= committed <= policy.max_groups:
            raise GoldenMismatch(
                f"{case.name}: committed fleet {committed} escaped "
                f"[{policy.min_groups}, {policy.max_groups}] at window {window}"
            )
        rows.append([float(committed), float(delta), code])
    deltas = [row[1] for row in rows]
    profile = str(case.param("profile"))
    if profile == "steady" and any(deltas):
        raise GoldenMismatch(f"{case.name}: steady profile produced scale events")
    if profile == "bursty" and (1.0 not in deltas or -1.0 not in deltas):
        raise GoldenMismatch(
            f"{case.name}: bursty profile must both scale out and drain back in"
        )
    return np.asarray(rows, dtype=np.float64)


def _autoscale_golden(case: GoldenCase, inputs: dict) -> np.ndarray:
    # An independently coded replay of the DESIGN.md section 11 rules: streaks
    # advance on every window, decisions gate on the sustain count, capacity
    # bounds and the cooldown clock, and any decision resets both.
    min_groups = int(case.param("min_groups"))
    max_groups = int(case.param("max_groups"))
    sustain = int(case.param("sustain"))
    cooldown = float(case.param("cooldown_w"))
    out_depth = float(case.param("out_depth"))
    in_depth = float(case.param("in_depth"))
    target = float(case.param("attainment"))
    committed = min_groups
    out_streak = slo_streak = in_streak = 0
    cooldown_until = -np.inf
    rows = []
    for window, (depth, served, misses) in enumerate(
            zip(inputs["depth"], inputs["served"], inputs["misses"])):
        now = float(window + 1)
        pressured = depth > out_depth * committed
        degraded = served > 0 and (served - misses) / served < target
        if pressured or degraded:
            out_streak += 1
            slo_streak = slo_streak + 1 if degraded else 0
            in_streak = 0
        elif depth <= in_depth * committed:
            in_streak += 1
            out_streak = slo_streak = 0
        else:
            out_streak = slo_streak = in_streak = 0
        delta, code = 0, 0.0
        if now >= cooldown_until:
            if out_streak >= sustain:
                if committed < max_groups:
                    delta = 1
                    code = 2.0 if slo_streak >= sustain else 1.0
            elif in_streak >= sustain and committed > min_groups:
                delta = -1
                code = 3.0
            if delta:
                committed += delta
                out_streak = slo_streak = in_streak = 0
                cooldown_until = now + cooldown
        rows.append([float(committed), float(delta), code])
    return np.asarray(rows, dtype=np.float64)


KERNELS: Dict[str, KernelDef] = {
    kernel.name: kernel
    for kernel in (
        KernelDef("gemm", _gemm_inputs, _gemm_functional, _gemm_golden),
        KernelDef("tiled-gemm", _gemm_inputs, _tiled_gemm_functional, _gemm_golden),
        KernelDef("im2col-conv", _conv_inputs, _conv_functional, _conv_golden),
        KernelDef("wavefront", _wavefront_inputs, _wavefront_functional, _wavefront_golden),
        KernelDef("gemm-plus", _gemm_plus_inputs, _gemm_plus_functional, _gemm_plus_golden),
        KernelDef("summa-pipeline", _summa_inputs, _summa_functional, _summa_golden),
        KernelDef("autoscale", _autoscale_inputs, _autoscale_functional, _autoscale_golden),
    )
}


def kernel_for(case: GoldenCase) -> KernelDef:
    """The kernel definition a case executes under, or raise with options."""
    try:
        return KERNELS[case.kernel]
    except KeyError:
        raise ValueError(
            f"golden case {case.name!r} names unknown kernel {case.kernel!r}; "
            f"options: {sorted(KERNELS)}"
        ) from None


def default_corpus() -> List[GoldenCase]:
    """The committed golden corpus: ≥ 12 cases spanning every precision."""
    cases: List[GoldenCase] = []
    for precision in Precision:
        tag = precision.value
        cases.append(_case(
            f"gemm-square-{tag}", "gemm", 101,
            {"m": 96, "n": 96, "k": 96, "precision": tag, "accumulate": False},
        ))
        cases.append(_case(
            f"gemm-skewed-{tag}", "gemm", 211,
            {"m": 160, "n": 24, "k": 72, "precision": tag, "accumulate": True},
        ))
        cases.append(_case(
            f"tiled-gemm-{tag}", "tiled-gemm", 307,
            {"m": 72, "n": 68, "k": 80, "l1": 32, "l2": 8,
             "precision": tag, "accumulate": False},
        ))
        cases.append(_case(
            f"im2col-conv-{tag}", "im2col-conv", 401,
            {"batch": 2, "in_channels": 5, "out_channels": 8, "kernel": 3,
             "stride": 2, "input_size": 13, "precision": tag},
        ))
    cases.append(_case(
        "wavefront-4x4", "wavefront", 601,
        {"rows": 4, "cols": 4, "tr": 24, "precision": "fp64"},
    ))
    cases.append(_case(
        "wavefront-6x3", "wavefront", 607,
        {"rows": 6, "cols": 3, "tr": 17, "precision": "fp64"},
    ))
    cases.append(_case(
        "gemm-plus-overlap", "gemm-plus", 701,
        {"count": 64, "precision": "fp64"},
    ))
    cases.append(_case(
        "summa-pipeline-2x4", "summa-pipeline", 809,
        {"rows": 2, "cols": 4, "count": 64, "precision": "fp64"},
    ))
    cases.append(_case(
        "summa-pipeline-3x3", "summa-pipeline", 811,
        {"rows": 3, "cols": 3, "count": 48, "precision": "fp64"},
    ))
    cases.append(_case(
        "autoscale-bursty", "autoscale", 907,
        {"windows": 48, "min_groups": 1, "max_groups": 4, "sustain": 2,
         "cooldown_w": 3.0, "out_depth": 4.0, "in_depth": 0.5,
         "attainment": 0.9, "profile": "bursty", "precision": "fp64"},
    ))
    cases.append(_case(
        "autoscale-steady", "autoscale", 911,
        {"windows": 48, "min_groups": 2, "max_groups": 4, "sustain": 2,
         "cooldown_w": 2.0, "out_depth": 4.0, "in_depth": 0.5,
         "attainment": 0.9, "profile": "steady", "precision": "fp64"},
    ))
    return cases
