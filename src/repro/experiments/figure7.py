"""Figure 7: hybrid (sleep+drowsy) vs pure sleep over the sleep threshold.

The sweep raises the minimum interval length eligible for sleep from the
sleep-drowsy inflection point (1057 cycles at 70 nm) to 10 000 cycles.
The pure-sleep method keeps shorter intervals fully active; the hybrid
additionally puts everything in ``(a, θ]`` into drowsy mode.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ..core.energy import ModeEnergyModel
from ..core.inflection import inflection_points
from ..core.policy import OptHybrid, OptSleep
from ..core.savings import evaluate_policy
from ..power.technology import paper_nodes
from .reporting import ExperimentResult, Table, fmt_pct
from .suite import SuiteRunner

#: The paper's sweep grid (its x-axis ticks).
DEFAULT_THRESHOLDS = [1057, 1200, 1500, 2000, 3000, 4000, 5000, 6000, 7000, 8000, 9000, 10000]


def compute(
    suite: SuiteRunner,
    thresholds: Sequence[int] = DEFAULT_THRESHOLDS,
    feature_nm: int = 70,
) -> Dict[str, Dict[str, List[float]]]:
    """Average savings series per cache: ``{'sleep': [...], 'hybrid': [...]}``."""
    node = paper_nodes()[feature_nm]
    model = ModeEnergyModel(node)
    floor = inflection_points(model).drowsy_sleep
    series: Dict[str, Dict[str, List[float]]] = {}
    for cache in ("icache", "dcache"):
        populations = list(suite.intervals_by_benchmark(cache).values())
        sleep_series, hybrid_series = [], []
        for threshold in thresholds:
            threshold = max(float(threshold), floor)
            sleep_vals = [
                evaluate_policy(OptSleep(model, threshold), p).saving_fraction
                for p in populations
            ]
            hybrid_vals = [
                evaluate_policy(
                    OptHybrid(model, sleep_threshold=threshold), p
                ).saving_fraction
                for p in populations
            ]
            sleep_series.append(float(np.mean(sleep_vals)))
            hybrid_series.append(float(np.mean(hybrid_vals)))
        series[cache] = {"sleep": sleep_series, "hybrid": hybrid_series}
    return series


def run(
    suite: SuiteRunner | None = None,
    thresholds: Sequence[int] = DEFAULT_THRESHOLDS,
) -> ExperimentResult:
    """Regenerate both Figure 7 panels."""
    suite = suite if suite is not None else SuiteRunner()
    series = compute(suite, thresholds)
    tables = []
    for cache in ("icache", "dcache"):
        rows = [
            [
                str(threshold),
                fmt_pct(series[cache]["sleep"][i]),
                fmt_pct(series[cache]["hybrid"][i]),
                fmt_pct(series[cache]["hybrid"][i] - series[cache]["sleep"][i]),
            ]
            for i, threshold in enumerate(thresholds)
        ]
        tables.append(
            Table(
                title=f"Figure 7 — {cache}: sleep vs sleep+drowsy savings (%)",
                headers=["min sleep interval", "Sleep", "Sleep+Drowsy", "gap"],
                rows=rows,
            )
        )
    return ExperimentResult(
        name="figure7",
        description="Hybrid vs pure sleep across the minimum sleep interval",
        tables=tables,
        notes=[
            "hybrid >= sleep everywhere; the gap shrinks as the threshold "
            "approaches the sleep-drowsy inflection point",
            "the gap is smaller for the data cache than the instruction cache",
        ],
    )
