"""Output checks behind the benchmark's error count.

Each function returns a list of failure messages (empty means the output is
correct).  They add to, and never replace, the checks the program makes on
itself: a run that raises fails the benchmark outright.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: Fields whose nearest-rank percentiles must be ordered p50 <= p95 <= p99.
PERCENTILE_FAMILIES = ("latency", "ttft", "tpot")


def _numeric_leaves(value, path: str = ""):
    """Every ``(path, number)`` in a nested dict/list document (bools excluded)."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _numeric_leaves(item, f"{path}.{key}" if path else str(key))
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            yield from _numeric_leaves(item, f"{path}[{index}]")
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield path, value


def _percentile_order(record: dict, label: str) -> List[str]:
    failures = []
    for family in PERCENTILE_FAMILIES:
        p50, p95, p99 = (record.get(f"{family}_p{q}_s") for q in (50, 95, 99))
        if p50 is None:
            continue
        if not p50 <= p95 <= p99:
            failures.append(f"{label}: {family} p50/p95/p99 out of order "
                            f"({p50!r}, {p95!r}, {p99!r})")
    return failures


def check_serve_report(report, tenant_counts: Dict[str, int]) -> List[str]:
    """A serve report accounts for every request once and is well formed.

    ``tenant_counts`` is the number of requests each tenant submitted in the
    trace.  The report must complete exactly that many per tenant, the same
    total fleet-wide and across its nodes; every number in it must be finite
    and non-negative; percentiles must be ordered; SLO attainment must lie in
    ``[0, 1]``.
    """
    failures: List[str] = []
    document = report.to_dict()
    submitted = sum(tenant_counts.values())
    if document["total_requests"] != submitted:
        failures.append(f"report completes {document['total_requests']} requests, "
                        f"the trace submitted {submitted}")
    reported = {tenant["name"]: tenant["requests"] for tenant in document["tenants"]}
    expected = {name: count for name, count in tenant_counts.items() if count}
    if reported != expected:
        failures.append(f"per-tenant completions {reported} differ from submissions {expected}")
    served = sum(node["completed"] for node in document["nodes"])
    if served != submitted:
        failures.append(f"nodes complete {served} requests, the trace submitted {submitted}")
    for path, number in _numeric_leaves(document):
        if not math.isfinite(number) or number < 0:
            failures.append(f"{path} = {number!r} is not a finite non-negative number")
    failures += _percentile_order(document, "fleet")
    for tenant in document["tenants"]:
        failures += _percentile_order(tenant, f"tenant {tenant['name']}")
    for label, record in [("fleet", document)] + [
            (f"tenant {tenant['name']}", tenant) for tenant in document["tenants"]]:
        if not 0.0 <= record["slo_attainment"] <= 1.0:
            failures.append(f"{label}: SLO attainment {record['slo_attainment']!r} "
                            "outside [0, 1]")
    return failures


def check_efficiency(label: str, efficiency: float) -> List[str]:
    """An efficiency is a fraction of peak: in ``(0, 1]``."""
    if not 0.0 < efficiency <= 1.0:
        return [f"{label}: efficiency {efficiency!r} outside (0, 1]"]
    return []


#: Rounding slack of the node-scaling check, as in the Fig. 7 benchmark test.
SCALING_SLACK = 1e-9


def check_node_scaling(label: str, efficiencies: Sequence[float]) -> List[str]:
    """Per-node efficiency over ascending node counts never rises."""
    for fewer, more in zip(efficiencies, efficiencies[1:]):
        if more > fewer + SCALING_SLACK:
            return [f"{label}: efficiency rises with node count {list(efficiencies)}"]
    return []


def gemm_reference(a: np.ndarray, b: np.ndarray, rtol: float, atol: float,
                   unit_roundoff: float) -> Tuple[np.ndarray, np.ndarray]:
    """The float64 product ``a @ b`` and the allowed deviation per element.

    The allowance is ``atol + rtol * |a @ b|`` (the conformance policy for
    the datapath precision) plus ``gamma_k * (|a| @ |b|)``, the classical
    bound on the rounding error of a length-``k`` dot product accumulated
    with unit roundoff ``u``, where ``gamma_k = k u / (1 - k u)`` (Higham,
    *Accuracy and Stability of Numerical Algorithms*, eq. 3.5).
    """
    golden = a @ b
    k = a.shape[1]
    gamma = k * unit_roundoff / (1.0 - k * unit_roundoff)
    return golden, atol + rtol * np.abs(golden) + gamma * (np.abs(a) @ np.abs(b))


def check_gemm(label: str, c: np.ndarray, golden: np.ndarray,
               allowance: np.ndarray) -> List[str]:
    """``c`` is finite and within ``allowance`` of ``golden`` everywhere."""
    if c.shape != golden.shape:
        return [f"{label}: C has shape {c.shape}, expected {golden.shape}"]
    result = c.astype(np.float64)
    if not np.isfinite(result).all():
        return [f"{label}: C has non-finite elements"]
    excess = np.abs(result - golden) - allowance
    worst = int(np.argmax(excess))
    if excess.flat[worst] > 0:
        row, col = np.unravel_index(worst, excess.shape)
        return [f"{label}: C[{row}, {col}] = {result[row, col]!r} differs from the "
                f"float64 product {golden[row, col]!r} by more than the allowance"]
    return []
