"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve-step --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20      # every workload

With ``--trace 0`` the run measures the end-to-end metrics of untraced passes;
with ``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics, the tracing overhead and the unattributed share, and
writes every span to ``perfbench/out/``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
run exits 1 when an output check fails and 2 when the program cannot be
imported from ``src/``.  See README.md for what each workload and metric is.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Thread-count variables of the BLAS builds NumPy may link.  One thread keeps
#: the load on a single core and the timings steady.
BLAS_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                         "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                         "NUMEXPR_NUM_THREADS")

if __name__ == "__main__":
    # Run as a script: pin BLAS threads before NumPy loads, and make the
    # `perfbench` package importable.
    os.environ.update({name: "1" for name in BLAS_THREAD_VARIABLES})
    sys.path.insert(0, str(ROOT))

from perfbench import layers  # noqa: E402
from perfbench.stats import Tail, tail_percentile  # noqa: E402
from perfbench.tracing import (  # noqa: E402
    Instrumentation,
    Tracer,
    count_parents_with_child,
    profile_passes,
)
from perfbench.workloads import VARIANTS, WORKLOADS  # noqa: E402

#: Fresh interpreters whose setup time is measured per run, and per traced run.
SETUP_SAMPLES = 7
TRACED_SETUP_SAMPLES = 3
#: A run keeps going past ``--seconds`` until it has this many passes, so the
#: tail percentile has ten passes beyond it; it stops at the hard cap anyway.
MIN_PASSES = 20
HARD_CAP_FACTOR = 5
PROBE_TIMEOUT_S = 120

#: ``(name, unit, meaning)`` of every end-to-end metric, in report order.
#: Pass times are summarised by their 10th percentile (and rates by the 90th
#: percentile of per-pass rates): on a shared host, interference from other
#: tenants only ever adds time, in episodes that can cover most of a run, and
#: the low percentile tracks the program's own cost far more steadily than
#: the median.  The median and the tail are printed beside it.
END_TO_END = (
    ("setup_s", "s", "fresh interpreter through imports and input construction (median)"),
    ("pass_s_p10", "s", "10th percentile of host seconds per cold pass"),
    ("work_per_s", "1/s", "90th percentile of work units per host second of a pass"),
    ("peak_rss_mb", "MB", "peak resident memory of the benchmark process"),
)


class ProgramMissing(RuntimeError):
    """The program under test cannot be imported from this checkout's ``src/``."""


def _environment() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in BLAS_THREAD_VARIABLES})
    env["PYTHONPATH"] = str(SRC)
    return env


def _import_program() -> float:
    """Import ``repro.cli`` from this checkout's ``src/``; returns seconds taken."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    try:
        import repro.cli  # noqa: F401
    except ImportError as error:
        raise ProgramMissing(f"cannot import repro from {SRC}: {error}") from None
    elapsed = time.perf_counter() - start
    import repro

    if SRC not in Path(repro.__file__).resolve().parents:
        raise ProgramMissing(f"repro imported from {repro.__file__}, not from {SRC}")
    return elapsed


def setup_probe(args: argparse.Namespace) -> int:
    """Child mode: import the program and build the inputs, then report timings."""
    import_s = _import_program()
    start = time.perf_counter()
    WORKLOADS[args.workload]().setup(args.seed)
    print(json.dumps({"import_s": import_s, "inputs_s": time.perf_counter() - start}))
    return 0


def measure_setup(args: argparse.Namespace, samples: int):
    """Wall seconds of ``samples`` fresh interpreters running :func:`setup_probe`,
    and the ``import repro.cli`` seconds each reported."""
    walls, imports = [], []
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(samples):
        start = time.perf_counter()
        done = subprocess.run(command, cwd=ROOT, env=_environment(), capture_output=True,
                              text=True, timeout=PROBE_TIMEOUT_S)
        walls.append(time.perf_counter() - start)
        if done.returncode:
            raise RuntimeError(f"setup probe exited {done.returncode}: {done.stderr.strip()}")
        imports.append(json.loads(done.stdout.strip().splitlines()[-1])["import_s"])
    return walls, imports


class Ledger:
    """Outcome bookkeeping over a run: checks, digests and simulated counts."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.digests = {}
        self.first_outputs = {}
        self.counts = {}

    def record(self, output, variant: int) -> None:
        """Check one pass's output; the first pass of a variant also sets its
        digest and adds its simulated counts, later ones must match it."""
        result = self.workload.check(output, variant)
        self.attempted += result.attempted
        self.failed += result.failed
        self.messages += result.messages
        digest = self.workload.digest(output)
        if variant not in self.digests:
            self.digests[variant] = digest
            self.first_outputs[variant] = output
            for key, value in self.workload.counts(output).items():
                self.counts[key] = self.counts.get(key, 0) + value
        elif digest != self.digests[variant]:
            self.attempted += 1
            self.failed += 1
            self.messages.append(f"variant {variant}: a repeated pass gave different "
                                 "simulated outputs")

    def digest(self) -> str:
        joined = "".join(self.digests[variant] for variant in sorted(self.digests))
        return hashlib.sha256(joined.encode()).hexdigest()[:16]


def _passes(args, workload, ledger, traced=None):
    """Run passes until ``--seconds`` elapsed (and ``MIN_PASSES`` ran).

    Returns the untraced pass times, the work each of them completed and,
    when ``traced`` is a ``(tracer, instrumentation)`` pair, the traced pass
    times: each iteration then runs one untraced and one traced pass on the
    same input, and the traced pass's id is the iteration index.
    """
    plain, work, with_trace = [], [], []
    start = time.perf_counter()
    index = 0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_CAP_FACTOR * args.seconds:
            break
        if elapsed >= args.seconds and index >= MIN_PASSES:
            break
        variant = index % VARIANTS
        began = time.perf_counter()
        output = workload.run_pass(variant)
        plain.append(time.perf_counter() - began)
        work.append(workload.work(output))
        ledger.record(output, variant)
        if traced is not None:
            tracer, instrumentation = traced
            tracer.pass_id = index
            with instrumentation:
                began = time.perf_counter()
                output = workload.run_pass(variant)
                with_trace.append(time.perf_counter() - began)
            ledger.record(output, variant)
        index += 1
    return plain, work, with_trace


def _tail(values) -> Tail:
    if len(values) > 10:
        return tail_percentile(values)
    return Tail(100, max(values), 0, len(values))


def end_to_end(args, workload, ledger) -> dict:
    """Untraced run: setup probes, then cold passes for ``--seconds``."""
    setup, _ = measure_setup(args, SETUP_SAMPLES)
    times, work, _ = _passes(args, workload, ledger)
    tail = _tail(times)
    rates = [units / seconds for units, seconds in zip(work, times)]
    values = {
        "setup_s": statistics.median(setup),
        "pass_s_p10": statistics.quantiles(times, n=10)[0],
        "work_per_s": statistics.quantiles(rates, n=10)[-1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    rows = [
        ("setup_s", values["setup_s"], "s", f"median of {len(setup)} fresh interpreters"),
        ("pass_s_p10", values["pass_s_p10"], "s", f"10th percentile of {len(times)} cold passes"),
        ("pass_s", statistics.median(times), "s", "median pass (not gated)"),
        ("pass_s_tail", tail.value, "s",
         f"p{tail.percentile} of {tail.count} passes, {tail.beyond} beyond (not gated)"),
        (workload.rate_name, values["work_per_s"], f"{workload.work_unit}/s",
         f"90th percentile over passes of {statistics.median(work):.6g} "
         f"{workload.work_unit}; reported as work_per_s"),
        ("error_rate", ledger.failed / max(ledger.attempted, 1), "ratio",
         f"{ledger.failed} of {ledger.attempted} checked outputs failed"),
        ("peak_rss_mb", values["peak_rss_mb"], "MB", "ru_maxrss"),
    ]
    rows += workload.summary([ledger.first_outputs[v] for v in sorted(ledger.first_outputs)])
    for name, value, unit, note in rows:
        print(f"  {name:<20} {value:>14.6g} {unit:<9} {note}")
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}


def per_layer(args, workload, ledger) -> dict:
    """Traced run: per-layer metrics from alternating untraced/traced passes."""
    _, imports = measure_setup(args, TRACED_SETUP_SAMPLES)
    tracer = Tracer()
    instrumentation = Instrumentation(tracer, layers.targets())
    plain, _, traced = _passes(args, workload, ledger, (tracer, instrumentation))
    profiles = profile_passes(tracer)
    passes = sorted(profiles)

    def median_of(read) -> float:
        return statistics.median([read(profiles[p]) for p in passes]) if passes else 0.0

    values = {}
    for metric, span in layers.SPAN_SECONDS:
        values[metric] = median_of(lambda profile: profile.self_s.get(span, 0.0))
    for metric, span in layers.SPAN_CALLS:
        values[metric] = median_of(lambda profile: profile.calls.get(span, 0))
    for metric in layers.SIM_COUNTS:
        values[metric] = ledger.counts.get(metric, 0)
    lookups = sum(profiles[p].calls.get("core.timing_cache", 0) for p in passes)
    misses = count_parents_with_child(tracer, "core.timing_cache", "mmae.dataflow")
    matlb_lookups = ledger.counts.get("mmae.matlb.lookups", 0)
    values.update({
        "cli.import_s": statistics.median(imports),
        "core.timing_cache.hit_ratio": (lookups - misses) / lookups if lookups else 0.0,
        "mmae.matlb.hit_ratio": (ledger.counts.get("mmae.matlb.hits", 0) / matlb_lookups
                                 if matlb_lookups else 0.0),
        "trace.overhead_s": statistics.median(t - p for t, p in zip(traced, plain)),
        "trace.unattributed_share": statistics.median(
            (traced[p] - profiles[p].attributed_s) / traced[p] for p in passes),
    })
    _print_layer_table(tracer, profiles, passes, traced, plain, values)
    if instrumentation.dropped:
        print(f"  layers not found (read as 0): {', '.join(instrumentation.dropped)}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
    tracer.dump(path)
    print(f"  {len(tracer)} spans written to {path.relative_to(ROOT)}")
    return {metric: {"value": values[metric], "unit": unit}
            for metric, unit in layers.metric_units()}


def _print_layer_table(tracer, profiles, passes, traced, plain, values) -> None:
    pass_s = statistics.median(traced)
    print(f"  per-layer medians over {len(passes)} traced passes "
          f"(traced pass {pass_s:.4f} s, untraced {statistics.median(plain):.4f} s)")
    print(f"  {'layer':<26} {'self ms':>10} {'total ms':>10} {'calls':>9} {'share':>7}")
    rows = []
    for name in tracer.names:
        rows.append((statistics.median(profiles[p].self_s[name] for p in passes),
                     statistics.median(profiles[p].total_s[name] for p in passes),
                     statistics.median(profiles[p].calls[name] for p in passes), name))
    for self_s, total_s, calls, name in sorted(rows, reverse=True):
        if calls:
            print(f"  {name:<26} {self_s * 1e3:>10.3f} {total_s * 1e3:>10.3f} {calls:>9.0f} "
                  f"{self_s / pass_s:>7.1%}")
    print(f"  {'(unattributed)':<26} share {values['trace.unattributed_share']:.1%}; "
          f"tracing overhead {values['trace.overhead_s'] * 1e3:.3f} ms per pass")


def run_one(args: argparse.Namespace) -> int:
    try:
        _import_program()
    except ProgramMissing as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    workload.setup(args.seed)
    ledger = Ledger(workload)
    mode = "traced" if args.trace else "untraced"
    print(f"perfbench {args.workload} seed {args.seed}: {mode} run of {args.seconds} s, "
          f"{VARIANTS} input variants")
    if args.trace:
        metrics = per_layer(args, workload, ledger)
    else:
        metrics = end_to_end(args, workload, ledger)
    print(f"  digest {ledger.digest()} (simulated outputs of the {VARIANTS} variants)")
    for message in ledger.messages[:20]:
        print(f"  CHECK FAILED {message}")
    correct = ledger.failed == 0
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Run every workload in its own interpreter; one summary line at the end."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        done = subprocess.run(command, cwd=ROOT, env=_environment(), capture_output=True,
                              text=True)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(done.stderr)
        if done.returncode == 2 or not lines:
            return 2
        status = max(status, done.returncode)
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(summary))
    return status


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1, help="input seed")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting the per-layer metrics")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
