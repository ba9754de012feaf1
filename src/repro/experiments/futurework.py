"""§5.2's future work: the Prefetch-A-to-B power/performance frontier.

The paper closes its prefetch study with: "the best design trade-off of
power and performance is somewhere in between of the Prefetch-A and
Prefetch-B methods, which will be studied in our future work."  This
experiment performs that study: sweep the threshold above which
non-prefetchable intervals are drowsied, from B-like (drowsy everything
feasible) to A-like (never drowsy), and report savings against the
wake-up stall overhead at each point.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..core.energy import ModeEnergyModel
from ..power.technology import paper_nodes
from ..prefetch.schemes import PrefetchGuidedPolicy
from .reporting import ExperimentResult, Table, fmt_pct
from .suite import SuiteRunner

#: Threshold sweep: B (= a), through the interval spectrum, to A (= inf).
DEFAULT_THRESHOLDS: Tuple[float, ...] = (6, 100, 1057, 10_000, 100_000, math.inf)


def compute(
    suite: SuiteRunner,
    thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
    feature_nm: int = 70,
) -> Dict[str, Dict[str, List[float]]]:
    """Suite-average savings and stall overhead per cache and threshold."""
    model = ModeEnergyModel(paper_nodes()[feature_nm])
    policies = [PrefetchGuidedPolicy(model, threshold) for threshold in thresholds]
    out: Dict[str, Dict[str, List[float]]] = {}
    for cache in ("icache", "dcache"):
        per_benchmark = [
            [policy.price(population) for policy in policies]
            for population in suite.intervals_by_benchmark(cache).values()
        ]
        by_threshold = list(zip(*per_benchmark))
        out[cache] = {
            "savings": [
                float(np.mean([r.savings.saving_fraction for r in reports]))
                for reports in by_threshold
            ],
            "stall_overhead": [
                float(np.mean([r.stall_overhead for r in reports]))
                for reports in by_threshold
            ],
        }
    return out


def run(suite: SuiteRunner | None = None) -> ExperimentResult:
    """Regenerate the A-to-B frontier for both caches."""
    suite = suite if suite is not None else SuiteRunner()
    measured = compute(suite)
    a = ModeEnergyModel(paper_nodes()[70]).drowsy_min_length
    tables = []
    for cache in ("icache", "dcache"):
        rows = []
        series = measured[cache]
        for threshold, saving, stalls in zip(
            DEFAULT_THRESHOLDS, series["savings"], series["stall_overhead"]
        ):
            label = (
                "inf (Prefetch-A)"
                if math.isinf(threshold)
                else f"{threshold:g}" + (" (Prefetch-B)" if threshold == a else "")
            )
            rows.append([label, fmt_pct(saving), f"{1e6 * stalls:.1f}"])
        tables.append(
            Table(
                title=f"Prefetch trade-off — {cache}",
                headers=["NP drowsy threshold (cycles)", "savings (%)", "stalls (ppm of cycles)"],
                rows=rows,
            )
        )
    return ExperimentResult(
        name="futurework_tradeoff",
        description="The Prefetch-A..B power/performance frontier (§5.2 future work)",
        tables=tables,
        notes=[
            "raising the threshold trades savings for fewer wake-up stalls",
            "both endpoints reproduce Prefetch-B (threshold=a) and Prefetch-A (inf)",
        ],
    )
