"""SimPoint-backed whole-trace estimation through the execution engine.

Simulating a huge recorded trace in full defeats the point of recording
it.  This module wires :mod:`repro.simpoint` into the workload registry
so one clustering pass buys estimates for every downstream analysis:

1. **Plan** — stream the trace once through a
   :class:`~repro.simpoint.bbv.BBVProfiler`, cluster the basic-block
   vectors, and keep the representative windows plus their cluster
   weights as a :class:`SimPointPlan` (JSON, persisted next to the trace
   under ``<cache>/traces/`` by default).
2. **Fan out** — each representative window becomes an ordinary
   ``trace:<path>#<window>:<n>`` :class:`~repro.engine.SimulationJob`,
   so window simulations run through the engine with caching, worker
   fan-out and the validation gate like any other job.  The window reader
   seeks past non-overlapping chunks, so each job touches O(window)
   disk bytes.
3. **Reconstruct** — per-window leakage savings (the paper's
   OPT-Drowsy / OPT-Sleep / OPT-Hybrid trio, per technology node) are
   combined as a weight-averaged estimate of the whole-trace savings.

:func:`exact_savings` runs the same metric over the full trace, which is
what the error-bound test compares against on a trace small enough to
afford both.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.energy import ModeEnergyModel
from ..core.policy import TRIO_SCHEMES
from ..core.savings import trio_savings
from ..cpu.pipeline import PipelineConfig
from ..engine import ExecutionEngine, SimulationJob, atomic_write_bytes
from ..errors import ConfigurationError, TraceError
from ..power.technology import paper_nodes
from ..simpoint.bbv import BBVProfiler
from ..simpoint.simpoint import select_simpoints
from .format import TraceRecording
from .registry import format_trace_ref, trace_info, trace_store_dir

#: Caches simulated by every estimate, in reporting order.
CACHES = ("icache", "dcache")

#: Default SimPoint profiling-window size for recorded traces.
DEFAULT_WINDOW_INSTRUCTIONS = 100_000

#: Default technology nodes (nm) an estimate covers.
DEFAULT_NODES = (70, 100, 130, 180)

PLAN_VERSION = 1


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
            "version": PLAN_VERSION,
            "trace_path": self.trace_path,
            "trace_digest": self.trace_digest,
            "window_instructions": self.window_instructions,
            "windows": list(self.windows),
            "weights": list(self.weights),
            "n_windows": self.n_windows,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "SimPointPlan":
        if payload.get("version") != PLAN_VERSION:
            raise ConfigurationError(
                f"unsupported simpoint plan version {payload.get('version')!r} "
                f"(expected {PLAN_VERSION})"
            )
        return cls(
            trace_path=str(payload["trace_path"]),
            trace_digest=str(payload["trace_digest"]),
            window_instructions=int(payload["window_instructions"]),
            windows=tuple(int(w) for w in payload["windows"]),
            weights=tuple(float(w) for w in payload["weights"]),
            n_windows=int(payload["n_windows"]),
        )

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
    k: Optional[int] = None,
    seed: int = 0,
) -> SimPointPlan:
    """Profile + cluster one recorded trace into a :class:`SimPointPlan`.

    Streams the trace once (bounded memory); determinism is inherited
    from the seeded k-means in :mod:`repro.simpoint`.
    """
    info = trace_info(path)
    profiler = BBVProfiler(window_instructions=window_instructions)
    for chunk in TraceRecording(path).chunks():
        profiler.observe(chunk)
    profile = profiler.profile()
    selection = select_simpoints(profile, max_k=max_k, k=k, seed=seed)
    return SimPointPlan(
        trace_path=str(Path(path)),
        trace_digest=info.digest,
        window_instructions=window_instructions,
        windows=tuple(int(w) for w in selection.windows),
        weights=tuple(float(w) for w in selection.weights),
        n_windows=profile.n_windows,
    )


def default_plan_path(plan: SimPointPlan, directory: Optional[Path] = None) -> Path:
    """Canonical location of a plan file under the cache's trace store."""
    base = trace_store_dir(directory)
    return base / (
        f"simpoints-{plan.trace_digest[:16]}-w{plan.window_instructions}.json"
    )


def save_plan(plan: SimPointPlan, path: Optional[Path] = None) -> Path:
    """Persist a plan as JSON (atomic write); returns its path."""
    dest = Path(path) if path is not None else default_plan_path(plan)
    payload = json.dumps(plan.to_dict(), sort_keys=True, indent=2) + "\n"
    atomic_write_bytes(dest, payload.encode("utf-8"))
    return dest


def load_plan(path: Path | str) -> SimPointPlan:
    """Load a persisted plan, verifying its schema."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except OSError as error:
        raise TraceError(f"cannot read simpoint plan {path}: {error}") from None
    except json.JSONDecodeError as error:
        raise TraceError(f"simpoint plan {path} is not valid JSON: {error}") from None
    try:
        return SimPointPlan.from_dict(payload)
    except (KeyError, TypeError, ValueError) as error:
        raise TraceError(f"simpoint plan {path} is malformed: {error}") from None


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
