"""Figure 8: per-benchmark comparison of the six leakage schemes.

OPT-Drowsy, Sleep(10K) (cache decay), OPT-Sleep(10K), OPT-Hybrid,
Prefetch-A and Prefetch-B, for the instruction and data caches, plus the
benchmark average the paper quotes in its prose (96.4% / 99.1% hybrid
limits).
"""

from __future__ import annotations

import math
from typing import Dict, List

import numpy as np

from ..core.energy import ModeEnergyModel
from ..core.policy import standard_policies
from ..core.savings import evaluate_policy
from ..power.technology import paper_nodes
from ..prefetch.schemes import PrefetchGuidedPolicy
from . import paper_values
from .reporting import ExperimentResult, Table, fmt_pct
from .suite import SuiteRunner

#: Figure 8 bar order.
SCHEMES = [
    "OPT-Drowsy",
    "Sleep(10K)",
    "OPT-Sleep(10K)",
    "OPT-Hybrid",
    "Prefetch-A",
    "Prefetch-B",
]


def compute(
    suite: SuiteRunner, feature_nm: int = 70
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Savings per cache, benchmark and scheme (plus the average row)."""
    node = paper_nodes()[feature_nm]
    model = ModeEnergyModel(node)
    policies = standard_policies(model) + [
        PrefetchGuidedPolicy(model, math.inf),  # Prefetch-A
        PrefetchGuidedPolicy(model, model.drowsy_min_length),  # Prefetch-B
    ]
    results: Dict[str, Dict[str, Dict[str, float]]] = {}
    for cache in ("icache", "dcache"):
        per_benchmark: Dict[str, Dict[str, float]] = {
            name: {
                policy.name: evaluate_policy(policy, population).saving_fraction
                for policy in policies
            }
            for name, population in suite.intervals_by_benchmark(cache).items()
        }
        per_benchmark["average"] = {
            scheme: float(np.mean([row[scheme] for row in per_benchmark.values()]))
            for scheme in SCHEMES
        }
        results[cache] = per_benchmark
    return results


def run(suite: SuiteRunner | None = None) -> ExperimentResult:
    """Regenerate both Figure 8 panels."""
    suite = suite if suite is not None else SuiteRunner()
    measured = compute(suite)
    tables = []
    for cache in ("icache", "dcache"):
        rows: List[List[str]] = []
        for name, row in measured[cache].items():
            rows.append([name] + [fmt_pct(row[scheme]) for scheme in SCHEMES])
        paper_row = ["paper avg"]
        for scheme in SCHEMES:
            expected = paper_values.FIGURE8_AVERAGES[cache].get(scheme)
            paper_row.append(fmt_pct(expected) if expected is not None else "-")
        rows.append(paper_row)
        tables.append(
            Table(
                title=f"Figure 8 — {cache} leakage savings (%)",
                headers=["benchmark"] + SCHEMES,
                rows=rows,
            )
        )
    avg = {cache: measured[cache]["average"] for cache in measured}
    notes = [
        "headline limits: paper 96.4% (I) / 99.1% (D); measured "
        f"{fmt_pct(avg['icache']['OPT-Hybrid'])}% / {fmt_pct(avg['dcache']['OPT-Hybrid'])}%",
        "Prefetch-B approaches OPT-Hybrid within "
        f"{fmt_pct(avg['icache']['OPT-Hybrid'] - avg['icache']['Prefetch-B'])}% (I) / "
        f"{fmt_pct(avg['dcache']['OPT-Hybrid'] - avg['dcache']['Prefetch-B'])}% (D); "
        "paper: 5.3% / 6.7%",
    ]
    return ExperimentResult(
        name="figure8",
        description="Per-benchmark comparison of leakage power saving schemes",
        tables=tables,
        notes=notes,
    )
