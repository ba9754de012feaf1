"""Declarative sweep specifications.

A :class:`SweepSpec` names one design-space grid — benchmarks × workload
scales × pipeline configurations × technology nodes — the way the
paper's scaling study does (Figures 7-9 evaluate every benchmark at
every node from 180 down to 70 nm).  Specs are plain frozen dataclasses
with a JSON/dict round-trip, so the same file drives every shard of a
multi-host sweep, and validation happens *up front*: an unknown
benchmark or node fails when the spec is built, not hours into a run.

Only the (benchmark, scale, pipeline) axes cost simulation time; the
technology-node axis is pure analysis over simulated interval
populations, so adding nodes to a sweep is nearly free (see
:mod:`repro.sweep.grid`).

The JSON form mirrors the dataclass::

    {
      "name": "scaling",
      "benchmarks": ["gzip", "ammp"],
      "scales": [0.25],
      "nodes": [70, 100, 130, 180],
      "pipelines": [null, {"width": 2, "base_cpi": 0.65}]
    }

``pipelines`` entries are ``null`` for the default
:class:`~repro.cpu.pipeline.PipelineConfig` or an object of keyword
overrides; every omitted spec field takes its default.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Dict, Optional, Tuple

from ..cpu.pipeline import PipelineConfig
from ..errors import ConfigurationError
from ..power.technology import PAPER_INFLECTION_POINTS
from ..workloads.benchmarks import BENCHMARK_NAMES

#: The paper's four technology nodes, the default sweep node axis.
DEFAULT_NODES: Tuple[int, ...] = (70, 100, 130, 180)

#: Valid sweep names: filesystem-safe path components.
_NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


def _pipeline_to_dict(pipeline: Optional[PipelineConfig]) -> Optional[Dict]:
    return None if pipeline is None else asdict(pipeline)


def _pipeline_from_dict(value) -> Optional[PipelineConfig]:
    if value is None:
        return None
    if isinstance(value, PipelineConfig):
        return value
    if not isinstance(value, dict):
        raise ConfigurationError(
            f"sweep pipeline entry must be null or an object of "
            f"PipelineConfig fields, got {value!r}"
        )
    known = {f.name for f in fields(PipelineConfig)}
    unknown = sorted(set(value) - known)
    if unknown:
        raise ConfigurationError(
            f"sweep pipeline entry has unknown fields {unknown}; "
            f"known: {sorted(known)}"
        )
    return PipelineConfig(**value)


@dataclass(frozen=True)
class SweepSpec:
    """One declarative sweep grid, validated on construction.

    Attributes
    ----------
    name:
        Sweep identifier — names the shared sweep directory
        (``<cache>/sweeps/<name>/``), so it must be a filesystem-safe
        path component; every shard of one sweep must use the same name.
    benchmarks:
        Benchmark axis; defaults to the paper's full §4.1 suite.
    scales:
        Workload scale axis (positive floats), default ``(1.0,)``.
    nodes:
        Technology-node axis in nanometres; every entry must be one of
        the paper's calibrated nodes (70/100/130/180).
    pipelines:
        Pipeline-configuration axis; ``None`` entries mean the default
        Alpha-21264-like timing model.
    """

    name: str
    benchmarks: Tuple[str, ...] = field(
        default_factory=lambda: tuple(BENCHMARK_NAMES)
    )
    scales: Tuple[float, ...] = (1.0,)
    nodes: Tuple[int, ...] = DEFAULT_NODES
    pipelines: Tuple[Optional[PipelineConfig], ...] = (None,)

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not _NAME_PATTERN.match(
            self.name
        ):
            raise ConfigurationError(
                f"sweep name {self.name!r} must be letters, digits, '.', "
                "'_' or '-' (and start with a letter or digit)"
            )
        object.__setattr__(self, "benchmarks", tuple(self.benchmarks))
        object.__setattr__(
            self, "scales", tuple(float(s) for s in self.scales)
        )
        object.__setattr__(self, "nodes", tuple(int(n) for n in self.nodes))
        object.__setattr__(self, "pipelines", tuple(self.pipelines))
        for axis, values in (
            ("benchmarks", self.benchmarks),
            ("scales", self.scales),
            ("nodes", self.nodes),
            ("pipelines", self.pipelines),
        ):
            if not values:
                raise ConfigurationError(
                    f"sweep {self.name!r}: the {axis} axis is empty"
                )
            if len(set(values)) != len(values):
                raise ConfigurationError(
                    f"sweep {self.name!r}: duplicate entries on the "
                    f"{axis} axis: {list(values)}"
                )
        # Benchmarks outside the paper suite resolve through the workload
        # registry: registered synthetics and trace: refs sweep like any
        # other benchmark.  Lazy import — repro.traces layers above sweep.
        other = [b for b in self.benchmarks if b not in BENCHMARK_NAMES]
        if other:
            from ..errors import ReproError
            from ..traces.registry import DEFAULT_REGISTRY, is_trace_ref

            for ref in other:
                try:
                    DEFAULT_REGISTRY.validate(ref)
                except ReproError as error:
                    raise ConfigurationError(
                        f"sweep {self.name!r}: {error}"
                    ) from None
                if is_trace_ref(ref):
                    bad = [s for s in self.scales if float(s) != 1.0]
                    if bad:
                        raise ConfigurationError(
                            f"sweep {self.name!r}: {ref!r} is a recorded trace "
                            f"and carries its own scale; a sweep mixing trace "
                            f"refs must use scales (1.0,), got {list(self.scales)}"
                        )
        bad_scales = [s for s in self.scales if not s > 0]
        if bad_scales:
            raise ConfigurationError(
                f"sweep {self.name!r}: scales must be positive, got "
                f"{bad_scales}"
            )
        known_nodes = sorted(PAPER_INFLECTION_POINTS)
        bad_nodes = [n for n in self.nodes if n not in PAPER_INFLECTION_POINTS]
        if bad_nodes:
            raise ConfigurationError(
                f"sweep {self.name!r}: unknown technology nodes {bad_nodes} "
                f"nm; calibrated paper nodes: {known_nodes}"
            )
        for pipeline in self.pipelines:
            if pipeline is not None and not isinstance(
                pipeline, PipelineConfig
            ):
                raise ConfigurationError(
                    f"sweep {self.name!r}: pipeline entries must be None or "
                    f"PipelineConfig, got {pipeline!r}"
                )

    # ------------------------------------------------------------------
    # Round-trip
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """JSON-ready dict; ``from_dict`` inverts it exactly."""
        return {
            "name": self.name,
            "benchmarks": list(self.benchmarks),
            "scales": list(self.scales),
            "nodes": list(self.nodes),
            "pipelines": [_pipeline_to_dict(p) for p in self.pipelines],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "SweepSpec":
        """Build a spec from its dict form (omitted fields default)."""
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"sweep spec must be a JSON object, got {type(data).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(
                f"sweep spec has unknown fields {unknown}; "
                f"known: {sorted(known)}"
            )
        if "name" not in data:
            raise ConfigurationError("sweep spec needs a 'name' field")
        kwargs: Dict = {"name": data["name"]}
        for axis in ("benchmarks", "scales", "nodes"):
            if axis in data:
                kwargs[axis] = tuple(data[axis])
        if "pipelines" in data:
            kwargs["pipelines"] = tuple(
                _pipeline_from_dict(p) for p in data["pipelines"]
            )
        return cls(**kwargs)

    def to_json(self) -> str:
        """Canonical JSON text (sorted keys, trailing newline)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        try:
            data = json.loads(text)
        except ValueError as error:
            raise ConfigurationError(
                f"sweep spec is not valid JSON: {error}"
            ) from None
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: os.PathLike) -> "SweepSpec":
        """Read a spec from a JSON file."""
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as error:
            raise ConfigurationError(
                f"cannot read sweep spec {str(path)!r}: {error}"
            ) from None
        return cls.from_json(text)

    def save(self, path: os.PathLike) -> str:
        """Write the spec as JSON; returns the path written."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json(), encoding="utf-8")
        return str(path)

    # ------------------------------------------------------------------
    # Identity and size
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """SHA-256 over the canonical spec — the sweep's identity.

        Shards of one sweep must agree on this; the coordinator refuses
        to mix shards run under differing specs under one name.
        """
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    @property
    def simulation_points(self) -> int:
        """Simulation grid size: benchmarks × scales × pipelines."""
        return len(self.benchmarks) * len(self.scales) * len(self.pipelines)

    @property
    def analysis_points(self) -> int:
        """Analysis grid size: simulation points × nodes × 2 caches."""
        return self.simulation_points * len(self.nodes) * 2

    def describe(self) -> str:
        """One-line human summary for ``sweep plan`` and logs."""
        return (
            f"sweep {self.name!r}: {len(self.benchmarks)} benchmark(s) x "
            f"{len(self.scales)} scale(s) x {len(self.pipelines)} "
            f"pipeline(s) = {self.simulation_points} simulation job(s); "
            f"{len(self.nodes)} node(s) -> {self.analysis_points} "
            f"analysis point(s)"
        )
