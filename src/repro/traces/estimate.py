"""SimPoint-backed whole-trace estimation through the execution engine.

Simulating a huge recorded trace in full defeats the point of recording
it.  This module is the reproduction's one SimPoint pipeline: it fans
:mod:`repro.simpoint` windows out as window refs so one clustering pass
buys estimates for every downstream analysis:

1. **Plan** — profile the trace's basic-block vectors in one streaming
   pass, cluster them, and keep the representative windows plus their
   cluster weights as a :class:`SimPointPlan`.
2. **Fan out** — each representative window becomes an ordinary
   ``trace:<path>#<window>:<n>`` :class:`~repro.engine.SimulationJob`,
   so window simulations run through the engine with caching, worker
   fan-out and the validation gate like any other job.  The window reader
   (:meth:`~repro.traces.format.TraceRecording.window_chunks`) seeks
   past non-overlapping chunks, so each job touches O(window) disk bytes.
3. **Reconstruct** — per-window leakage savings (the paper's
   OPT-Drowsy / OPT-Sleep / OPT-Hybrid trio, per technology node) are
   combined as a weight-averaged estimate of the whole-trace savings.

:func:`exact_savings` runs the same metric over the full trace, which is
what the error-bound test compares against on a trace small enough to
afford both.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.energy import ModeEnergyModel
from ..core.policy import TRIO_SCHEMES
from ..core.savings import trio_savings
from ..cpu.pipeline import PipelineConfig
from ..engine import ExecutionEngine, SimulationJob
from ..errors import ConfigurationError
from ..power.technology import paper_nodes
from ..simpoint.bbv import profile_trace
from ..simpoint.simpoint import select_simpoints
from .format import TraceRecording
from .registry import format_trace_ref, trace_info

#: Caches simulated by every estimate, in reporting order.
CACHES = ("icache", "dcache")

#: Default SimPoint profiling-window size for recorded traces.
DEFAULT_WINDOW_INSTRUCTIONS = 100_000

#: Default technology nodes (nm) an estimate covers.
DEFAULT_NODES = (70, 100, 130, 180)


@dataclass(frozen=True)
class SimPointPlan:
    """Representative windows + weights for one recorded trace."""

    trace_path: str
    trace_digest: str
    window_instructions: int
    windows: Tuple[int, ...]
    weights: Tuple[float, ...]
    n_windows: int  #: Total complete profiling windows in the trace.

    def __post_init__(self) -> None:
        if len(self.windows) != len(self.weights):
            raise ConfigurationError(
                f"simpoint plan has {len(self.windows)} windows but "
                f"{len(self.weights)} weights"
            )
        if not self.windows:
            raise ConfigurationError("simpoint plan selects no windows")
        total = float(sum(self.weights))
        if abs(total - 1.0) > 1e-9:
            raise ConfigurationError(
                f"simpoint plan weights sum to {total!r}, expected 1.0"
            )

    def to_dict(self) -> Dict:
        return {
            "trace_path": self.trace_path,
            "trace_digest": self.trace_digest,
            "window_instructions": self.window_instructions,
            "windows": list(self.windows),
            "weights": list(self.weights),
            "n_windows": self.n_windows,
        }

    def window_jobs(
        self, pipeline: Optional[PipelineConfig] = None
    ) -> List[SimulationJob]:
        """One engine job per representative window."""
        return [
            SimulationJob(
                format_trace_ref(self.trace_path, window, self.window_instructions),
                scale=1.0,
                pipeline=pipeline,
            )
            for window in self.windows
        ]


def plan_simpoints(
    path: Path | str,
    *,
    window_instructions: int = DEFAULT_WINDOW_INSTRUCTIONS,
    max_k: int = 10,
    seed: int = 0,
) -> SimPointPlan:
    """Profile + cluster one recorded trace into a :class:`SimPointPlan`.

    Streams the trace once (bounded memory); determinism is inherited
    from the seeded k-means in :mod:`repro.simpoint`.
    """
    info = trace_info(path)
    profile = profile_trace(TraceRecording(path).chunks(), window_instructions)
    windows, weights = select_simpoints(profile, max_k=max_k, seed=seed)
    return SimPointPlan(
        trace_path=str(Path(path)),
        trace_digest=info.digest,
        window_instructions=window_instructions,
        windows=windows,
        weights=weights,
        n_windows=profile.n_windows,
    )


@dataclass(frozen=True)
class SavingsEstimate:
    """Stacked-trio savings per cache × scheme × technology node.

    ``grids[cache]`` is a ``(len(TRIO_SCHEMES), len(nodes))`` array of
    saving fractions, the same quantity the sweep aggregation reports.
    """

    nodes: Tuple[int, ...]
    grids: Dict[str, np.ndarray]

    def saving(self, cache: str, scheme: str, node: int) -> float:
        row = TRIO_SCHEMES.index(scheme)
        column = self.nodes.index(node)
        return float(self.grids[cache][row, column])

    def max_abs_error(self, other: "SavingsEstimate") -> float:
        """Largest absolute savings difference across all cells."""
        if self.nodes != other.nodes or set(self.grids) != set(other.grids):
            raise ConfigurationError(
                "cannot compare savings estimates over different nodes/caches"
            )
        return max(
            float(np.max(np.abs(self.grids[cache] - other.grids[cache])))
            for cache in self.grids
        )

    def to_dict(self) -> Dict:
        return {
            "nodes": list(self.nodes),
            "schemes": list(TRIO_SCHEMES),
            "savings": {
                cache: [[float(v) for v in row] for row in grid]
                for cache, grid in sorted(self.grids.items())
            },
        }


def _models_for(nodes: Sequence[int]) -> List[ModeEnergyModel]:
    catalogue = paper_nodes()
    unknown = [nm for nm in nodes if nm not in catalogue]
    if unknown:
        raise ConfigurationError(
            f"unknown technology nodes {unknown}; known: {sorted(catalogue)}"
        )
    return [ModeEnergyModel(catalogue[nm]) for nm in nodes]


def _trio_grid(annotated, models: Sequence[ModeEnergyModel]) -> Dict[str, np.ndarray]:
    return {
        cache: trio_savings(models, annotated.annotated_for(cache).as_normal())
        for cache in CACHES
    }


def _run_jobs(
    jobs: Iterable[SimulationJob], engine: Optional[ExecutionEngine]
) -> Dict[SimulationJob, object]:
    engine = engine if engine is not None else ExecutionEngine()
    return engine.run(list(jobs))


def estimate_savings(
    plan: SimPointPlan,
    *,
    nodes: Sequence[int] = DEFAULT_NODES,
    engine: Optional[ExecutionEngine] = None,
    pipeline: Optional[PipelineConfig] = None,
) -> SavingsEstimate:
    """Weight-averaged whole-trace savings from the plan's windows.

    Each representative window is one engine job; the per-window
    savings grids are combined with the plan's cluster weights — the
    SimPoint estimator applied cell-wise to the savings metric.
    """
    nodes = tuple(int(nm) for nm in nodes)
    models = _models_for(nodes)
    jobs = plan.window_jobs(pipeline)
    outcomes = _run_jobs(jobs, engine)
    combined = {
        cache: np.zeros((len(TRIO_SCHEMES), len(nodes))) for cache in CACHES
    }
    for job, weight in zip(jobs, plan.weights):
        grids = _trio_grid(outcomes[job].annotated, models)
        for cache in CACHES:
            combined[cache] += weight * grids[cache]
    return SavingsEstimate(nodes=nodes, grids=combined)


def exact_savings(
    path: Path | str,
    *,
    nodes: Sequence[int] = DEFAULT_NODES,
    engine: Optional[ExecutionEngine] = None,
    pipeline: Optional[PipelineConfig] = None,
) -> SavingsEstimate:
    """Full-trace savings: the ground truth the estimate approximates."""
    nodes = tuple(int(nm) for nm in nodes)
    models = _models_for(nodes)
    job = SimulationJob(format_trace_ref(path), scale=1.0, pipeline=pipeline)
    outcomes = _run_jobs([job], engine)
    return SavingsEstimate(nodes=nodes, grids=_trio_grid(outcomes[job].annotated, models))
