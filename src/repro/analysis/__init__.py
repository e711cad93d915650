"""Analysis helpers: area/power model (Table IV), efficiency summaries, reporting."""

from repro.analysis.area_power import (
    ComponentBudget,
    AreaPowerComparison,
    cpu_budget,
    mmae_budget,
    compare_cpu_mmae,
    mmae_area_breakdown,
)
from repro.analysis.efficiency import (
    efficiency_gap,
    efficiency_by_size,
    average_gap,
    summarize_scalability,
)
from repro.analysis.reporting import (
    render_table,
    render_series,
    render_csv,
    format_gflops,
    format_percent,
)
from repro.analysis.roofline import Roofline, RooflinePoint, node_roofline, place_gemm, roofline_sweep
from repro.analysis.energy import EnergyBreakdown, EnergyModel, PowerParameters

__all__ = [
    "Roofline",
    "RooflinePoint",
    "node_roofline",
    "place_gemm",
    "roofline_sweep",
    "EnergyBreakdown",
    "EnergyModel",
    "PowerParameters",
    "ComponentBudget",
    "AreaPowerComparison",
    "cpu_budget",
    "mmae_budget",
    "compare_cpu_mmae",
    "mmae_area_breakdown",
    "efficiency_gap",
    "efficiency_by_size",
    "average_gap",
    "summarize_scalability",
    "render_table",
    "render_series",
    "render_csv",
    "format_gflops",
    "format_percent",
]
