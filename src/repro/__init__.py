"""repro — a reproduction of *On the Limits of Leakage Power Reduction in
Caches* (Meng, Sherwood, Kastner — HPCA 2005).

The library answers the paper's question — *given perfect knowledge of
the future address trace, how much cache leakage power can sleep
(Gated-Vdd) and drowsy modes save?* — and rebuilds every substrate that
the answer rests on:

* :mod:`repro.core` — the oracle limit analysis itself: access intervals,
  the per-mode energy equations, inflection points, the optimal policies
  (OPT-Drowsy / OPT-Sleep / OPT-Hybrid / cache-decay Sleep(θ)) and the
  generalized state-machine model that cross-checks their energies.
* :mod:`repro.power` — HotLeakage-style leakage and CACTI-style dynamic
  energy models, the four paper technology nodes (calibrated so the
  Table 1 inflection points reproduce exactly), and the ITRS projection.
* :mod:`repro.cache` / :mod:`repro.cpu` — the Alpha-21264-like simulation
  substrate: a 64 KB/64 KB/2 MB hierarchy, the batched simulation
  kernel and a base-CPI timing model with miss stalls.
* :mod:`repro.workloads` — six SPEC2000-like synthetic benchmarks.
* :mod:`repro.prefetch` — the trace simulator (timing, interval
  populations and their next-line and stride prefetchability in one
  pass) and the Prefetch-A/B oracle approximations.
* :mod:`repro.experiments` — one harness per paper table/figure.
* :mod:`repro.engine` — the execution substrate: parallel simulation
  with on-disk result caching, fault tolerance and run telemetry.
* :mod:`repro.sweep` — the suite experiments (Table 2 by default) over
  a grid of benchmarks, scales and pipelines, in one engine run.
* :mod:`repro.traces` — the ``.rtr`` recorded-trace format and the
  ``trace:<path>`` workload refs.

Quickstart::

    from repro import quick_limits
    print(quick_limits())          # the headline 70nm limits

or, for the full pipeline::

    from repro.workloads import make_gzip
    from repro.prefetch import annotate_workload_trace
    from repro.power import paper_nodes
    from repro.core import ModeEnergyModel, OptHybrid, evaluate_policy

    annotated = annotate_workload_trace(make_gzip(scale=0.2).chunks())
    model = ModeEnergyModel(paper_nodes()[70])
    intervals = annotated.result.l1i_intervals
    report = evaluate_policy(OptHybrid(model), intervals.as_normal())
    print(report.describe())
"""

from importlib import import_module

from .errors import (
    ConfigurationError,
    EngineError,
    ExperimentError,
    IntervalError,
    PolicyError,
    PowerModelError,
    ReproError,
    SimulationError,
    TraceError,
)

__version__ = "1.0.0"

#: Subpackages, imported on first attribute access: a command loads only
#: what it runs.
_SUBPACKAGES = (
    "cache",
    "core",
    "cpu",
    "engine",
    "experiments",
    "power",
    "prefetch",
    "sweep",
    "traces",
    "workloads",
)


def __getattr__(name: str):
    if name not in _SUBPACKAGES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return import_module(f".{name}", __name__)


__all__ = [
    "ConfigurationError",
    "EngineError",
    "ExperimentError",
    "IntervalError",
    "PolicyError",
    "PowerModelError",
    "ReproError",
    "SimulationError",
    "TraceError",
    "cache",
    "core",
    "cpu",
    "engine",
    "experiments",
    "power",
    "prefetch",
    "quick_limits",
    "sweep",
    "traces",
    "workloads",
]


def quick_limits(scale: float = 0.2, feature_nm: int = 70) -> str:
    """One-call demo: the OPT-Hybrid limits on a reduced-scale suite.

    Runs the gzip benchmark at the requested scale and reports the
    instruction- and data-cache hybrid limits at one technology node —
    a fast taste of the full Figure 8 experiment.
    """
    from .core import ModeEnergyModel, OptHybrid, evaluate_policy
    from .power import paper_nodes
    from .prefetch import annotate_workload_trace
    from .workloads import make_gzip

    result = annotate_workload_trace(make_gzip(scale=scale).chunks()).result
    model = ModeEnergyModel(paper_nodes()[feature_nm])
    lines = [f"gzip @ {feature_nm}nm (scale {scale:g}):"]
    for cache_name, intervals in (
        ("I-cache", result.l1i_intervals),
        ("D-cache", result.l1d_intervals),
    ):
        report = evaluate_policy(OptHybrid(model), intervals.as_normal())
        lines.append(
            f"  {cache_name} OPT-Hybrid saves {100 * report.saving_fraction:.1f}% "
            "of leakage energy"
        )
    return "\n".join(lines)
