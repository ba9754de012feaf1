"""Declarative sweep specifications.

A :class:`SweepSpec` names one design-space grid — benchmarks × workload
scales × pipeline configurations — plus the registered suite
experiments to run in every (scale, pipeline) context, the way the
paper's scaling study runs Table 2 over the suite.  Specs are plain
frozen dataclasses with a JSON/dict round-trip, so ``sweep plan --save``
writes the file ``sweep run --spec`` reads, and validation happens *up
front*: an unknown benchmark or experiment fails when the spec is built,
not hours into a run.

Only the (benchmark, scale, pipeline) axes cost simulation time; the
experiments price the simulated interval populations, and Table 2
covers all four calibrated technology nodes from prefix sums.

The JSON form mirrors the dataclass::

    {
      "name": "scaling",
      "benchmarks": ["gzip", "ammp"],
      "scales": [0.25],
      "pipelines": [null, {"base_cpi": 0.8}],
      "experiments": ["table2", "figure8"]
    }

``pipelines`` entries are ``null`` for the default
:class:`~repro.cpu.pipeline.PipelineConfig` or an object of keyword
overrides; every omitted spec field takes its default.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Dict, Optional, Tuple

from ..cpu.pipeline import PipelineConfig
from ..errors import ConfigurationError, ReproError
from ..experiments.runner import _SUITE
from ..traces.registry import check_workload
from ..workloads.benchmarks import BENCHMARK_NAMES

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
        Sweep identifier: titles the report header and the telemetry
        context, so any non-empty single-line string.
    benchmarks:
        Benchmark axis; defaults to the paper's full §4.1 suite.
    scales:
        Workload scale axis (positive floats), default ``(1.0,)``.
    pipelines:
        Pipeline-configuration axis; ``None`` entries (and all-default
        configs, which are stored as ``None``) mean the default
        Alpha-21264-like timing model.
    experiments:
        Suite-consuming experiments (``run`` names such as ``table2`` or
        ``figure8``) rendered in every (scale, pipeline) context.
    """

    name: str
    benchmarks: Tuple[str, ...] = field(
        default_factory=lambda: tuple(BENCHMARK_NAMES)
    )
    scales: Tuple[float, ...] = (1.0,)
    pipelines: Tuple[Optional[PipelineConfig], ...] = (None,)
    experiments: Tuple[str, ...] = ("table2",)

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name or "\n" in self.name:
            raise ConfigurationError(
                f"sweep name {self.name!r} must be a non-empty single-line string"
            )
        object.__setattr__(self, "benchmarks", tuple(self.benchmarks))
        object.__setattr__(
            self, "scales", tuple(float(s) for s in self.scales)
        )
        object.__setattr__(
            self,
            "pipelines",
            tuple(None if p == PipelineConfig() else p for p in self.pipelines),
        )
        object.__setattr__(self, "experiments", tuple(self.experiments))
        for axis, values in (
            ("benchmarks", self.benchmarks),
            ("scales", self.scales),
            ("pipelines", self.pipelines),
            ("experiments", self.experiments),
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
        for ref in self.benchmarks:
            for scale in self.scales:
                try:
                    check_workload(ref, scale)
                except ReproError as error:
                    raise ConfigurationError(
                        f"sweep {self.name!r}: {error}"
                    ) from None
        bad_scales = [s for s in self.scales if not s > 0]
        if bad_scales:
            raise ConfigurationError(
                f"sweep {self.name!r}: scales must be positive, got "
                f"{bad_scales}"
            )
        bad_experiments = [e for e in self.experiments if e not in _SUITE]
        if bad_experiments:
            raise ConfigurationError(
                f"sweep {self.name!r}: {bad_experiments} are not suite "
                f"experiments; known: {list(_SUITE)}"
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
            "pipelines": [p if p is None else asdict(p) for p in self.pipelines],
            "experiments": list(self.experiments),
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
        for axis in ("benchmarks", "scales", "experiments"):
            if axis in data:
                kwargs[axis] = tuple(data[axis])
        if "pipelines" in data:
            kwargs["pipelines"] = tuple(
                _pipeline_from_dict(p) for p in data["pipelines"]
            )
        return cls(**kwargs)

    @classmethod
    def load(cls, path: os.PathLike) -> "SweepSpec":
        """Read a spec from a JSON file."""
        path = Path(path)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except OSError as error:
            raise ConfigurationError(
                f"cannot read sweep spec {str(path)!r}: {error}"
            ) from None
        except ValueError as error:
            raise ConfigurationError(
                f"sweep spec {str(path)!r} is not valid JSON: {error}"
            ) from None
        return cls.from_dict(data)

    def save(self, path: os.PathLike) -> str:
        """Write the spec as canonical JSON; returns the path written."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        text = json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        path.write_text(text, encoding="utf-8")
        return str(path)

    # ------------------------------------------------------------------
    # Identity and size
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """SHA-256 over the canonical spec — the sweep's identity.

        Printed in the report header, so a report names the exact grid
        it was computed from.
        """
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    @property
    def simulation_points(self) -> int:
        """Simulation grid size: benchmarks × scales × pipelines."""
        return len(self.benchmarks) * len(self.scales) * len(self.pipelines)

    def describe(self) -> str:
        """One-line human summary for ``sweep plan`` and logs."""
        return (
            f"sweep {self.name!r}: {len(self.benchmarks)} benchmark(s) x "
            f"{len(self.scales)} scale(s) x {len(self.pipelines)} "
            f"pipeline(s) = {self.simulation_points} simulation job(s); "
            f"experiments: {' '.join(self.experiments)}"
        )
