"""Table I — architectural parameters of a CPU core.

Regenerates the parameter table from the configuration dataclass, derives
the published cache geometry from it, and checks that the modelled CPU core's
TLBs honour the published sizes.
"""

from repro.analysis import render_table
from repro.core.config import CPUConfig
from repro.cpu.core import CPUCore
from repro.mem.address import DEFAULT_LINE_SIZE


def build_table1(config: CPUConfig) -> str:
    rows = [
        ["instruction width", f"{config.instruction_width_bits}-bit"],
        ["data bus width", f"{config.data_bus_width_bits}-bit, CHI protocol"],
        ["instruction fetch width", f"{config.instruction_fetch_width_bits}-bit"],
        ["pipeline stages", f"{config.pipeline_stages}+"],
        ["instruction execution order", "out-of-order" if config.out_of_order else "in-order"],
        ["multi-issue ability", f"{config.issue_width}-issue"],
        ["L1 Instruction Cache (ICache)", f"{config.l1i_size_bytes // 1024}KB, {config.l1i_associativity}-way set associative"],
        ["L1 Data Cache (DCache)", f"{config.l1d_size_bytes // 1024}KB, {config.l1d_associativity}-way set associative"],
        ["L2 Cache", f"{config.l2_size_bytes // 1024}KB, private"],
        ["L1 ITLB/DTLB", f"{config.itlb_entries} entries, fully associative"],
        ["L2 TLB", f"{config.l2_tlb_entries} entries, fully associative"],
    ]
    return render_table(["Architectural Parameters", "Value"], rows,
                        title="Table I - architectural parameters of a CPU core")


def test_table1_cpu_parameters(benchmark):
    config = CPUConfig()

    def regenerate() -> str:
        # 48 KB over 4 ways of 64-byte lines is 192 sets; the L2 is 512 KB.
        assert config.l1d_size_bytes // (config.l1d_associativity * DEFAULT_LINE_SIZE) == 192
        assert config.l2_size_bytes == 512 * 1024
        # Building the core verifies the TLB sizes are realisable in the model.
        core = CPUCore(config)
        assert core.mmu.dtlb.l1.capacity == 48
        assert core.mmu.dtlb.l2.capacity == 1024
        return build_table1(config)

    table = benchmark(regenerate)
    print("\n" + table)
    assert "4-issue" in table
    assert "48KB" in table
    assert "1024 entries" in table
