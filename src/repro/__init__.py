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

The paper's numbers come from one command, ``repro-leakage run all``.
To price one benchmark by hand::

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
    "sweep",
    "traces",
    "workloads",
]

