"""Run telemetry: where the time and the simulated cycles went.

The engine records one :class:`JobRecord` per job outcome plus run-level
wall time, and :class:`RunTelemetry` turns them into

* a JSON *manifest* (``--manifest PATH``) for tooling, and
* a one-paragraph *summary footer* for humans.

Timers are monotonic and deliberately lightweight (one ``perf_counter``
pair per job); they add nothing measurable to multi-second simulations.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .jobs import SOURCE_CACHED, SOURCE_FALLBACK, JobOutcome
from .store import atomic_write_bytes

#: Version of the manifest JSON layout, independent of the result cache's
#: payload schema version; bump it whenever a section or field changes.
MANIFEST_VERSION = 18


class Stopwatch:
    """Context-manager wall timer: ``with Stopwatch() as sw: ...``."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self._start: Optional[float] = None

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.seconds = time.perf_counter() - self._start
        self._start = None


@dataclass(frozen=True)
class JobRecord:
    """One job's telemetry row."""

    benchmark: str
    scale: float
    key: str
    source: str
    wall_seconds: float
    instructions: int
    cycles: int
    attempts: int = 1
    #: Simulation-kernel profile ("batched"/"scalar"; empty for results
    #: cached before profiles existed).
    kernel_mode: str = ""
    #: Residual-loop implementation ("python"/"compiled"/"scalar"; empty
    #: for results cached before manifest v8).
    residual_impl: str = ""
    fast_path_accesses: int = 0
    slow_path_accesses: int = 0
    stage_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def instructions_per_second(self) -> float:
        """Simulation throughput of this job (0 for instant cache hits)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.instructions / self.wall_seconds

    @property
    def fast_path_share(self) -> float:
        """Fraction of this job's L1 accesses resolved on the fast path."""
        total = self.fast_path_accesses + self.slow_path_accesses
        return self.fast_path_accesses / total if total else 0.0


@dataclass
class RunTelemetry:
    """Accumulates job records and run wall time across engine runs."""

    records: List[JobRecord] = field(default_factory=list)
    failures: List[Dict] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    quarantines: List[Dict] = field(default_factory=list)
    wall_seconds: float = 0.0
    context: Dict = field(default_factory=dict)
    store_stats: Dict = field(default_factory=dict)
    #: The run's simulation substrate (manifest v8): resolved kernel
    #: mode, residual implementation, trace transport mode and
    #: published-arena totals.
    substrate: Dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_outcome(self, outcome: JobOutcome) -> None:
        """Add one job outcome's telemetry row."""
        result = outcome.annotated.result
        # getattr: results cached before profiles existed lack the field.
        profile = getattr(result, "profile", None)
        record = JobRecord(
            benchmark=outcome.job.benchmark,
            scale=float(outcome.job.scale),
            key=outcome.job.key(),
            source=outcome.source,
            wall_seconds=outcome.wall_seconds,
            instructions=int(result.instructions),
            cycles=int(result.cycles),
            attempts=outcome.attempts,
            kernel_mode=profile.mode if profile else "",
            residual_impl=(
                getattr(profile, "residual_impl", "") if profile else ""
            ),
            fast_path_accesses=(
                int(profile.fast_path_accesses) if profile else 0
            ),
            slow_path_accesses=(
                int(profile.slow_path_accesses) if profile else 0
            ),
            stage_seconds=(
                {k: float(v) for k, v in profile.stage_seconds.items()}
                if profile
                else {}
            ),
        )
        self.records.append(record)

    def record_failure(self, job, error: BaseException) -> None:
        """Add one permanently-failed job."""
        entry = {
            "benchmark": job.benchmark,
            "scale": float(job.scale),
            "key": job.key(),
            "error": f"{type(error).__name__}: {error}",
        }
        self.failures.append(entry)

    def record_quarantine(self, job, violations, where: str) -> None:
        """Add one invalid-result quarantine (the validation gate fired)."""
        entry = {
            "benchmark": job.benchmark,
            "scale": float(job.scale),
            "key": job.key(),
            "where": where,
            "violations": [str(v) for v in violations],
        }
        self.quarantines.append(entry)

    def record_substrate(self, profile: Dict) -> None:
        """Merge substrate facts (kernel + transport) into the manifest.

        The engine records its resolved kernel/transport selection at
        construction and updates the published-arena totals as
        dispatches publish traces, so the call merges rather than
        replaces.
        """
        self.substrate.update(profile)

    def note(self, message: str) -> None:
        """Attach a free-form robustness note (fallbacks, evictions)."""
        self.notes.append(message)

    def record_store(self, store) -> None:
        """Snapshot the result store's counters (idempotent, cumulative)."""
        self.store_stats = {
            "hits": int(getattr(store, "hits", 0)),
            "misses": int(getattr(store, "misses", 0)),
            "evictions": int(getattr(store, "evictions", 0)),
            "write_errors": int(getattr(store, "write_errors", 0)),
            "quarantined": int(getattr(store, "quarantined", 0)),
            "corruption_events": [
                dict(e) for e in getattr(store, "corruption_events", [])
            ],
        }

    def add_wall(self, seconds: float) -> None:
        """Accumulate run-level wall time (one engine.run call)."""
        self.wall_seconds += seconds

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def jobs(self) -> int:
        return len(self.records) + len(self.failures)

    @property
    def cached(self) -> int:
        return sum(1 for r in self.records if r.source == SOURCE_CACHED)

    @property
    def simulated(self) -> int:
        return sum(1 for r in self.records if r.source != SOURCE_CACHED)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def fallbacks(self) -> int:
        """Jobs the workers did not finish, completed in-process."""
        return sum(1 for r in self.records if r.source == SOURCE_FALLBACK)

    @property
    def instructions(self) -> int:
        """Instructions delivered across all jobs, cached ones included."""
        return sum(r.instructions for r in self.records)

    @property
    def simulated_instructions(self) -> int:
        return sum(r.instructions for r in self.records if r.source != SOURCE_CACHED)

    @property
    def throughput(self) -> float:
        """Simulated instructions per wall second of engine runtime."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.simulated_instructions / self.wall_seconds

    @property
    def fast_path_accesses(self) -> int:
        return sum(r.fast_path_accesses for r in self.records)

    @property
    def slow_path_accesses(self) -> int:
        return sum(r.slow_path_accesses for r in self.records)

    @property
    def fast_path_share(self) -> float:
        """Run-wide fraction of L1 accesses the kernel fast path resolved."""
        total = self.fast_path_accesses + self.slow_path_accesses
        return self.fast_path_accesses / total if total else 0.0

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def manifest(self) -> Dict:
        """The full run manifest as a JSON-ready dict."""
        return {
            "manifest_version": MANIFEST_VERSION,
            "engine": dict(self.context),
            "totals": {
                "jobs": self.jobs,
                "cached": self.cached,
                "simulated": self.simulated,
                "failed": self.failed,
                "fallbacks": self.fallbacks,
                "quarantined_results": len(self.quarantines),
                "cache_quarantined": self.store_stats.get("quarantined", 0),
                "wall_seconds": self.wall_seconds,
                "instructions": self.instructions,
                "simulated_instructions": self.simulated_instructions,
                "instructions_per_second": self.throughput,
                "fast_path_accesses": self.fast_path_accesses,
                "slow_path_accesses": self.slow_path_accesses,
                "fast_path_share": self.fast_path_share,
            },
            "jobs": [
                {
                    "benchmark": r.benchmark,
                    "scale": r.scale,
                    "key": r.key,
                    "source": r.source,
                    "wall_seconds": r.wall_seconds,
                    "instructions": r.instructions,
                    "cycles": r.cycles,
                    "attempts": r.attempts,
                    "instructions_per_second": r.instructions_per_second,
                    "kernel_mode": r.kernel_mode,
                    "residual_impl": r.residual_impl,
                    "fast_path_accesses": r.fast_path_accesses,
                    "slow_path_accesses": r.slow_path_accesses,
                    "fast_path_share": r.fast_path_share,
                    "stage_seconds": dict(r.stage_seconds),
                }
                for r in self.records
            ],
            "failures": list(self.failures),
            "notes": list(self.notes),
            "quarantine": [dict(q) for q in self.quarantines],
            "store": dict(self.store_stats),
            "substrate": dict(self.substrate),
        }

    def write_manifest(self, path) -> str:
        """Atomically write the manifest as indented JSON; returns the path.

        Raises ``OSError`` when the filesystem refuses.
        """
        text = json.dumps(self.manifest(), indent=2, sort_keys=True) + "\n"
        atomic_write_bytes(path, text.encode("utf-8"))
        return str(path)

    def summary(self) -> str:
        """Human-readable run footer."""
        if self.jobs == 0:
            return "engine: no simulation jobs (static experiments only)"
        parts = [
            f"engine: {self.jobs} job{'s' if self.jobs != 1 else ''}",
            f"({self.simulated} simulated, {self.cached} cached"
            + (f", {self.failed} failed" if self.failed else "")
            + ")",
            f"in {self.wall_seconds:.2f}s",
        ]
        if self.simulated:
            mi = self.simulated_instructions / 1e6
            parts.append(f"| {mi:.2f}M instructions at {self.throughput:,.0f} inst/s")
        if self.fast_path_accesses:
            parts.append(f"| {100.0 * self.fast_path_share:.1f}% fast-path")
        if self.fallbacks:
            parts.append(f"| {self.fallbacks} fallback(s)")
        quarantined = len(self.quarantines) + self.store_stats.get(
            "quarantined", 0
        )
        if quarantined:
            parts.append(f"| {quarantined} quarantine(s)")
        cache_dir = self.context.get("cache_dir")
        if cache_dir:
            parts.append(f"| cache: {cache_dir}")
        return " ".join(parts)
