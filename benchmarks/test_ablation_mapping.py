"""Ablation (Section IV.B) — the stash/lock + overlap mapping scheme for GEMM+ workloads.

Not a separate figure in the paper, but the design choice behind Baseline-2:
this harness isolates the mapping scheme's two ingredients on a GEMM+ workload
(BERT-large) by toggling (a) the CPU/MMAE overlap with distributed tails and
(b) the L3 stash/lock residency, and reports the throughput of each variant.
"""

from repro.analysis import format_gflops, render_table
from repro.core import MACOSystem
from repro.workloads import bert_graph

NUM_NODES = 8


def test_ablation_mapping_scheme(benchmark, fig8_config):
    workload = bert_graph(batch=4, seq_len=256)

    def regenerate():
        system = MACOSystem(fig8_config)
        with_mapping = system.run_workload(workload, num_nodes=NUM_NODES, mapping_enabled=True)
        without_mapping = system.run_workload(workload, num_nodes=NUM_NODES, mapping_enabled=False)
        return with_mapping, without_mapping

    with_mapping, without_mapping = benchmark.pedantic(regenerate, rounds=1, iterations=1, warmup_rounds=0)

    speedup = with_mapping.gflops / without_mapping.gflops
    print("\n" + render_table(
        ["variant", "throughput", "GEMM time (ms)", "non-GEMM time (ms)"],
        [
            ["mapping scheme ON", format_gflops(with_mapping.gflops),
             f"{with_mapping.gemm_seconds * 1e3:.1f}", f"{with_mapping.non_gemm_seconds * 1e3:.1f}"],
            ["mapping scheme OFF", format_gflops(without_mapping.gflops),
             f"{without_mapping.gemm_seconds * 1e3:.1f}", f"{without_mapping.non_gemm_seconds * 1e3:.1f}"],
        ],
        title="Ablation - GEMM+ mapping scheme (stash/lock + CPU/MMAE overlap) on BERT-large",
    ))
    print(f"mapping scheme speedup: {speedup:.2f}x (paper's Baseline-2 gap: 1.45x)")

    assert speedup > 1.05
    assert with_mapping.seconds < without_mapping.seconds
    # With the scheme on the CPU tail overlaps with the MMAEs: the total stays
    # within the mapping model's exposed-stash/tail budget above the GEMM time.
    assert with_mapping.seconds < with_mapping.gemm_seconds * 1.12 + with_mapping.non_gemm_seconds
    # Without the scheme the (single-core, degraded) tail serialises after the GEMMs.
    assert without_mapping.seconds > without_mapping.gemm_seconds + without_mapping.non_gemm_seconds
