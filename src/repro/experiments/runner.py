"""Experiment registry and runner.

Every table/figure reproduction and ablation is registered by name so
the CLI (``python -m repro`` / ``repro-leakage``), the sweep driver and
the tests can run them uniformly.  Experiments that consume the benchmark
suite accept a shared :class:`~repro.experiments.suite.SuiteRunner`, so
one session simulates the six benchmarks exactly once.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..errors import ExperimentError
from . import (
    ablations,
    distributions,
    figure1,
    figure7,
    figure8,
    figure9,
    figure10,
    futurework,
    table1,
    table2,
)
from .reporting import ExperimentResult
from .suite import SuiteRunner

#: Experiments that do not need any simulation.
_STATIC: Dict[str, Callable[[], ExperimentResult]] = {
    "table1": table1.run,
    "figure1": figure1.run,
    "figure10": figure10.run,
}

#: Experiments that consume the benchmark suite.
_SUITE: Dict[str, Callable[[Optional[SuiteRunner]], ExperimentResult]] = {
    "table2": table2.run,
    "figure7": figure7.run,
    "figure8": figure8.run,
    "figure9": figure9.run,
    "ablation_dead_intervals": ablations.run_dead_intervals,
    "ablation_ramps": ablations.run_ramp_shape,
    "ablation_decay_counter": ablations.run_decay_counter,
    "ablation_inflection": ablations.run_inflection_perturbation,
    "futurework_tradeoff": futurework.run,
    "distributions": distributions.run,
}


def experiment_names() -> List[str]:
    """All registered experiment names, static first."""
    return list(_STATIC) + list(_SUITE)


def run_experiment(
    name: str, suite: Optional[SuiteRunner] = None
) -> ExperimentResult:
    """Run one experiment by name.

    ``suite`` is reused when given; otherwise suite-consuming experiments
    build their own at the default scale.
    """
    if name in _STATIC:
        return _STATIC[name]()
    if name in _SUITE:
        return _SUITE[name](suite)
    raise ExperimentError(
        f"unknown experiment {name!r}; known: {experiment_names()}"
    )


def run_all(
    suite: Optional[SuiteRunner] = None, names: Optional[List[str]] = None
) -> List[ExperimentResult]:
    """Run several (default: all) experiments with one shared suite.

    ``names`` is validated up front so a typo surfaces before any
    simulation runs, not after earlier experiments have already spent
    minutes simulating; the error lists *every* unknown name at once.
    """
    if names is None:
        names = experiment_names()
    else:
        unknown = [n for n in names if n not in _STATIC and n not in _SUITE]
        if unknown:
            raise ExperimentError(
                f"unknown experiments {unknown}; known: {experiment_names()}"
            )
    if suite is None and any(name in _SUITE for name in names):
        suite = SuiteRunner()
    return [run_experiment(name, suite) for name in names]
