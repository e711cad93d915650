"""Helpers for summarising the efficiency sweeps of Figs. 6 and 7."""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.core.mapping import in_order_sum
from repro.core.perf import EfficiencyPoint


def efficiency_by_size(
    points: Iterable[EfficiencyPoint],
    prediction_enabled: bool | None = None,
    active_nodes: int | None = None,
) -> Dict[int, float]:
    """Map matrix size -> efficiency for a filtered subset of sweep points."""
    selected: Dict[int, float] = {}
    for point in points:
        if prediction_enabled is not None and point.prediction_enabled != prediction_enabled:
            continue
        if active_nodes is not None and point.active_nodes != active_nodes:
            continue
        selected[point.matrix_size] = point.efficiency
    return selected


def efficiency_gap(points: Iterable[EfficiencyPoint]) -> Dict[int, float]:
    """Per-size efficiency gap between prediction-on and prediction-off (Fig. 6)."""
    points = list(points)
    with_prediction = efficiency_by_size(points, prediction_enabled=True)
    without_prediction = efficiency_by_size(points, prediction_enabled=False)
    gaps = {}
    for size, value in with_prediction.items():
        if size in without_prediction:
            gaps[size] = value - without_prediction[size]
    return gaps


def average_gap(points: Iterable[EfficiencyPoint]) -> float:
    """Average Fig. 6 gap across matrix sizes."""
    gaps = efficiency_gap(points)
    if not gaps:
        raise ValueError("no overlapping sizes between the two sweeps")
    return in_order_sum(gaps.values()) / len(gaps)


def summarize_scalability(points: Iterable[EfficiencyPoint]) -> Dict[int, Dict[str, float]]:
    """Per-node-count summary of the Fig. 7 sweep: min/mean/max per-node efficiency."""
    buckets: Dict[int, List[float]] = {}
    for point in points:
        buckets.setdefault(point.active_nodes, []).append(point.efficiency)
    summary = {}
    for nodes, values in sorted(buckets.items()):
        summary[nodes] = {
            "min": min(values),
            "mean": in_order_sum(values) / len(values),
            "max": max(values),
        }
    return summary
