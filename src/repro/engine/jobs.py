"""Deterministic simulation jobs: the engine's unit of work.

A :class:`SimulationJob` names one (benchmark, scale, pipeline) point of
the experiment space.  Jobs are frozen, hashable and picklable, so they
can be fanned out to worker processes, deduplicated, and used as cache
keys.  :func:`execute_job` is the *only* way the engine simulates — it is
a pure function of the job parameters (workload generators are seeded),
which is what makes parallel execution bit-identical to serial execution
and on-disk caching sound.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Dict, Optional

from ..cpu.pipeline import PipelineConfig
from ..errors import EngineError, ReproError
from ..prefetch.analysis import AnnotatedSimulationResult, AnnotatingSimulator
from ..traces.registry import (
    check_workload,
    describe_workload,
    is_trace_ref,
    parse_trace_ref,
    workload_chunks,
    workload_identity,
)
from .validate import InvalidResultError, check_raw

#: Version of the pickled result payload *and* of the simulation
#: substrate's observable behaviour.  Bump it whenever a change to the
#: simulator, workload generators or annotation logic alters results:
#: every existing cache entry is then version-mismatched, evicted on
#: first read, and transparently recomputed.
#:
#: Version 2: the batched simulation kernel (fixed-point issue clock,
#: ``SimulationResult.profile``) — results carry new fields and the
#: clock's CPI quantization is at the 2**-20 level.
#:
#: Version 3: a result holds each cache's
#: :class:`~repro.core.intervals.IntervalPopulation` — (length, class,
#: count) rows — instead of the raw interval and flag arrays.
SCHEMA_VERSION = 3

#: ``JobOutcome.source`` values: a cache hit, a worker completion per
#: backend (``pool`` → parallel), or the serial rung — planned, or a
#: fallback after workers engaged.
SOURCE_CACHED = "cached"
SOURCE_PARALLEL = "parallel"
SOURCE_SERIAL = "serial"
SOURCE_FALLBACK = "serial-fallback"
SOURCE_SUBPROCESS = "subprocess"


@dataclass(frozen=True)
class SimulationJob:
    """One workload simulation point: workload ref x scale x pipeline config.

    ``benchmark`` is a workload ref (:mod:`repro.traces.registry`): a
    paper benchmark name (``"gzip"``) or a recorded trace ref
    (``"trace:/path/file.rtr"``, optionally with a
    ``#window:window_instructions`` suffix).  Recorded traces run at
    scale 1.0 — they carry their own length.
    """

    benchmark: str
    scale: float = 1.0
    pipeline: Optional[PipelineConfig] = None

    def __post_init__(self) -> None:
        try:
            check_workload(self.benchmark, self.scale)
        except ReproError as error:
            raise EngineError(str(error)) from None
        if not self.scale > 0:
            raise EngineError(f"scale must be positive, got {self.scale!r}")

    def fingerprint(self) -> Dict:
        """Canonical, JSON-stable parameter record this job is keyed by.

        A trace recorded from a paper benchmark fingerprints
        *identically* to the synthetic original (same content address →
        same cache entry), and a foreign trace is keyed by its
        chunking/codec-independent content digest.
        """
        try:
            identity = workload_identity(self.benchmark, self.scale)
        except ReproError as error:
            raise EngineError(str(error)) from None
        identity["pipeline"] = None if self.pipeline is None else asdict(self.pipeline)
        return identity

    def key(self) -> str:
        """Content address: SHA-256 over the canonical parameters.

        The payload schema version is deliberately *not* part of the key;
        it lives in the cache entry's header so a version bump is detected
        as a mismatch and evicts the stale entry (see ``store.py``).
        """
        canonical = json.dumps(self.fingerprint(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def canonical_workload(self) -> tuple:
        """``(benchmark, scale)`` as the content address sees them.

        A trace recorded from a paper-suite benchmark resolves to the
        *synthetic* name and scale it was recorded at, so every document
        derived from it (result payloads, reports) serializes
        byte-identically to the inline synthetic run sharing its key.
        Foreign traces and window refs keep the job's own fields.
        """
        identity = self.fingerprint()
        if set(identity) == {"benchmark", "scale", "pipeline"}:
            return identity["benchmark"], float(identity["scale"])
        return self.benchmark, float(self.scale)

    def describe(self) -> str:
        """Short human-readable label for logs and telemetry."""
        return f"{describe_workload(self.benchmark)}@{self.scale:g}"


@dataclass(frozen=True)
class JobOutcome:
    """One job's result plus how, how fast, and in how many tries."""

    job: SimulationJob
    annotated: AnnotatedSimulationResult
    source: str
    wall_seconds: float
    #: Execution attempts: 1, or 2 when a worker attempt failed and the
    #: job reran in-process.
    attempts: int = 1

    @property
    def simulated(self) -> bool:
        """Whether this outcome ran a simulation (vs. a cache hit)."""
        return self.source != SOURCE_CACHED

    @property
    def retried(self) -> bool:
        """Whether this result came from the in-process rerun."""
        return self.attempts > 1


def execute_job(job: SimulationJob) -> AnnotatedSimulationResult:
    """Simulate one job; deterministic in the job parameters.

    The result is :meth:`~repro.prefetch.analysis.AnnotatedSimulationResult.reduced`:
    each cache's annotated intervals collapse to their per-class length
    spectrum, after :func:`~repro.engine.validate.check_raw` has checked
    the raw arrays, which never leave this function.

    Recorded traces are *streamed*: :func:`workload_chunks` hands back a
    chunk iterator backed by the on-disk reader, which decodes one chunk ahead
    of the simulation, so peak memory stays bounded by two chunks
    however large the trace file is.  When the dispatching parent
    published the trace into an opt-in zero-copy arena
    (:mod:`repro.engine.transport`), the worker attaches to it instead
    of re-reading the file — the chunks carry identical content either
    way, so results are bit-identical across transports.
    """
    chunks = None
    if is_trace_ref(job.benchmark):
        from .transport import overlay_chunks

        ref = parse_trace_ref(job.benchmark)
        chunks = overlay_chunks(ref.path, ref.window, ref.window_instructions)
    if chunks is None:
        chunks = workload_chunks(job.benchmark, job.scale)
    annotated = AnnotatingSimulator(pipeline=job.pipeline).run(chunks)
    violations = check_raw(annotated)
    if violations:
        raise InvalidResultError(
            f"raw intervals of {job.describe()} failed the validation "
            f"gate: {violations[0]}"
        )
    return annotated.reduced()


def job_result_payload(job: SimulationJob, annotated) -> Dict:
    """The deterministic JSON result document for one finished job.

    A pure function of the job's content address: every field comes from
    the simulated result, none from the execution path, so serial,
    worker and cached answers serialize identically — and a trace
    recorded from a synthetic benchmark serializes like the original.
    """
    result = annotated.result
    levels = {
        name: {
            "accesses": int(stats.accesses),
            "hits": int(stats.hits),
            "misses": int(stats.misses),
            "evictions": int(stats.evictions),
        }
        for name, stats in sorted(result.stats.levels.items())
    }
    benchmark, scale = job.canonical_workload()
    return {
        "benchmark": benchmark,
        "scale": float(scale),
        "key": job.key(),
        "instructions": int(result.instructions),
        "cycles": int(result.cycles),
        "stall_cycles": int(result.stall_cycles),
        "l1i_intervals": len(result.l1i_intervals),
        "l1d_intervals": len(result.l1d_intervals),
        "levels": levels,
    }
