"""Workload refs: paper benchmarks and recorded traces behind four functions.

Every place the system names a workload — `SimulationJob.benchmark`,
`SweepSpec.benchmarks`, the CLI's ``--benchmarks`` — accepts a *workload
ref*:

``"gzip"``
    A paper-suite benchmark, generated at any scale.

``"trace:/path/to/file.rtr"``
    A recorded trace file in the native format (see
    :mod:`repro.traces.format`), streamed chunk-by-chunk.  A trace
    carries its own length, so it runs at scale 1.0 only.

``"trace:/path/to/file.rtr#3:100000"``
    One SimPoint window of a recorded trace: window index 3 of
    100 000-instruction windows.  Used by SimPoint estimation to fan
    representative regions out through the engine as ordinary jobs.

:func:`check_workload` says whether a ref runs at a scale,
:func:`workload_identity` gives its part of the content address,
:func:`workload_chunks` streams it and :func:`describe_workload` labels
it.  A paper benchmark's identity is its ``{benchmark, scale}`` pair,
and a trace recorded from one (provenance in the header) gets the
*identical* identity — so the recorded file produces the same
`SimulationJob.key()`, hits the same cache entries, and coalesces with
inline submissions of the original benchmark.  A foreign trace (e.g.
converted from a gem5 dump) is identified by its content digest, which
is independent of chunking and codec: re-compressing or re-chunking a
trace does not change its content address.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Iterator, Optional, Tuple

from ..cpu.trace import TraceChunk
from ..errors import ReproError, WorkloadRefError
from ..workloads.benchmarks import BENCHMARK_NAMES, make_benchmark

if TYPE_CHECKING:
    from .format import TraceInfo

TRACE_SCHEME = "trace:"

_WINDOW_RE = re.compile(r"#(\d+):(\d+)$")


def is_trace_ref(ref: str) -> bool:
    """True when ``ref`` names a recorded trace rather than a generator."""

    return isinstance(ref, str) and ref.startswith(TRACE_SCHEME)


@dataclass(frozen=True)
class TraceRef:
    """Parsed form of a ``trace:`` workload ref."""

    path: str
    window: Optional[int] = None
    window_instructions: Optional[int] = None

    @property
    def ref(self) -> str:
        base = f"{TRACE_SCHEME}{self.path}"
        if self.window is None:
            return base
        return f"{base}#{self.window}:{self.window_instructions}"


def format_trace_ref(
    path: Path | str, window: Optional[int] = None, window_instructions: Optional[int] = None
) -> str:
    """Build the canonical string form of a trace ref."""

    return TraceRef(str(path), window, window_instructions).ref


def parse_trace_ref(ref: str) -> TraceRef:
    """Parse ``trace:<path>[#<window>:<window_instructions>]``."""

    if not is_trace_ref(ref):
        raise WorkloadRefError(f"{ref!r} is not a trace ref (expected '{TRACE_SCHEME}<path>')")
    body = ref[len(TRACE_SCHEME):]
    window: Optional[int] = None
    window_instructions: Optional[int] = None
    match = _WINDOW_RE.search(body)
    if match:
        window = int(match.group(1))
        window_instructions = int(match.group(2))
        if window_instructions <= 0:
            raise WorkloadRefError(
                f"{ref!r}: window instruction count must be positive"
            )
        body = body[: match.start()]
    if not body:
        raise WorkloadRefError(
            f"{ref!r}: a trace ref needs a file path "
            f"('{TRACE_SCHEME}<path>[#<window>:<instructions>]')"
        )
    return TraceRef(path=body, window=window, window_instructions=window_instructions)


# Trace header info memoized by (path, size, mtime_ns) so repeated
# identity/fingerprint calls — grid expansion touches every job — do not
# reopen the file.  A rewritten file invalidates its entry automatically.
_INFO_CACHE: Dict[str, Tuple[Tuple[int, int], TraceInfo]] = {}


def trace_info(path: Path | str) -> TraceInfo:
    """Read (memoized) summary info for a recorded trace file."""

    p = Path(path)
    try:
        stat = p.stat()
    except OSError:
        raise WorkloadRefError(f"trace file {p} does not exist") from None
    key = str(p)
    signature = (stat.st_size, stat.st_mtime_ns)
    cached = _INFO_CACHE.get(key)
    if cached is not None and cached[0] == signature:
        return cached[1]
    from .format import TraceRecording

    info = TraceRecording(p).info()
    _INFO_CACHE[key] = (signature, info)
    return info


def _require_unit_scale(ref: str, scale: float) -> TraceRef:
    """Parse a trace ref, refusing any scale but 1.0."""

    trace = parse_trace_ref(ref)
    if float(scale) != 1.0:
        raise WorkloadRefError(
            f"{ref!r}: a recorded trace carries its own scale; "
            f"use scale 1.0 (got {scale!r})"
        )
    return trace


def check_workload(ref: str, scale: float) -> None:
    """Raise :class:`WorkloadRefError` unless ``ref`` runs at ``scale``.

    A paper benchmark runs at any scale; a trace ref must name a
    readable trace file and run at scale 1.0.
    """

    if not is_trace_ref(ref):
        if ref not in BENCHMARK_NAMES:
            raise WorkloadRefError(
                f"unknown benchmark {ref!r}; known: {BENCHMARK_NAMES} "
                f"(or a '{TRACE_SCHEME}<path>' ref to a recorded trace)"
            )
        return
    trace = _require_unit_scale(ref, scale)
    try:
        trace_info(trace.path)
    except ReproError as error:
        raise WorkloadRefError(str(error)) from None


def workload_identity(ref: str, scale: float) -> Dict[str, Any]:
    """The workload part of a job's content address.

    A trace recorded from a paper benchmark (provenance in its header)
    gets that benchmark's ``{benchmark, scale}`` identity; any other
    trace is identified by its content digest.
    """

    if not is_trace_ref(ref):
        return {"benchmark": ref, "scale": repr(float(scale))}
    trace = _require_unit_scale(ref, scale)
    info = trace_info(trace.path)
    provenance = info.provenance or {}
    if provenance.get("benchmark") in BENCHMARK_NAMES and "scale" in provenance:
        identity: Dict[str, Any] = {
            "benchmark": provenance["benchmark"],
            "scale": repr(float(provenance["scale"])),
        }
    else:
        identity = {"trace": info.digest}
    if trace.window is not None:
        identity["window"] = trace.window
        identity["window_instructions"] = trace.window_instructions
    return identity


def workload_chunks(ref: str, scale: float) -> Iterator[TraceChunk]:
    """Stream the workload's chunks: generated, or read from the trace file."""

    if not is_trace_ref(ref):
        return make_benchmark(ref, scale=scale).chunks()
    from .format import TraceRecording

    trace = _require_unit_scale(ref, scale)
    recording = TraceRecording(trace.path)
    if trace.window is None:
        return recording.chunks()
    return recording.window_chunks(trace.window, trace.window_instructions)


def describe_workload(ref: str) -> str:
    """Short label for logs: a benchmark's name, or a trace's file name."""

    if not is_trace_ref(ref):
        return ref
    trace = parse_trace_ref(ref)
    return format_trace_ref(
        Path(trace.path).name, trace.window, trace.window_instructions
    )


def trace_store_dir(directory: Optional[Path | str] = None) -> Path:
    """The trace-artifact directory under the result cache.

    Recorded traces and SimPoint plans stored here are counted by
    ``repro-leakage cache info`` and by the cache's size accounting.
    """

    from ..engine.store import TRACES_SUBDIR, resolve_cache_dir

    path = resolve_cache_dir(directory) / TRACES_SUBDIR
    path.mkdir(parents=True, exist_ok=True)
    return path
