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
from ..prefetch.schemes import TradeoffPoint, prefetch_tradeoff_curve
from .reporting import ExperimentResult, Table, fmt_pct
from .suite import SuiteRunner

#: Threshold sweep: B (= a), through the interval spectrum, to A (= inf).
DEFAULT_THRESHOLDS: Tuple[float, ...] = (6, 100, 1057, 10_000, 100_000, math.inf)


def compute(
    suite: SuiteRunner,
    thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
    feature_nm: int = 70,
) -> Dict[str, List[TradeoffPoint]]:
    """Suite-average frontier per cache."""
    model = ModeEnergyModel(paper_nodes()[feature_nm])
    out: Dict[str, List[TradeoffPoint]] = {}
    for cache in ("icache", "dcache"):
        curves = [
            prefetch_tradeoff_curve(population, model, list(thresholds))
            for population in suite.intervals_by_benchmark(cache).values()
        ]
        out[cache] = [
            TradeoffPoint(
                np_threshold=float(thresholds[i]),
                saving_fraction=float(
                    np.mean([curve[i].saving_fraction for curve in curves])
                ),
                stall_overhead=float(
                    np.mean([curve[i].stall_overhead for curve in curves])
                ),
            )
            for i in range(len(thresholds))
        ]
    return out


def run(suite: SuiteRunner | None = None) -> ExperimentResult:
    """Regenerate the A-to-B frontier for both caches."""
    suite = suite if suite is not None else SuiteRunner()
    measured = compute(suite)
    tables = []
    for cache in ("icache", "dcache"):
        rows = []
        for point in measured[cache]:
            label = (
                "inf (Prefetch-A)"
                if math.isinf(point.np_threshold)
                else f"{point.np_threshold:g}"
                + (" (Prefetch-B)" if point.np_threshold == 6 else "")
            )
            rows.append(
                [
                    label,
                    fmt_pct(point.saving_fraction),
                    f"{1e6 * point.stall_overhead:.1f}",
                ]
            )
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
