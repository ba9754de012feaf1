"""Workload refs: paper benchmarks and recorded traces behind four functions.

Every place the system names a workload — `SimulationJob.benchmark`,
`SweepSpec.benchmarks`, the CLI's ``--benchmarks`` — accepts a *workload
ref*:

``"gzip"``
    A paper-suite benchmark, generated at any scale.

``"trace:/path/to/file.rtr"``
    A recorded trace file in the native format (see
    :mod:`repro.traces.format`), streamed chunk-by-chunk from start to
    end.  Everything after the scheme is the path.  A trace carries its
    own length, so it runs at scale 1.0 only.

:func:`check_workload` says whether a ref runs at a scale,
:func:`workload_identity` gives its part of the content address,
:func:`workload_chunks` streams it and :func:`describe_workload` labels
it.  A paper benchmark's identity is its ``{benchmark, scale}`` pair,
and a trace recorded from one (provenance in the header) gets the
*identical* identity — so the recorded file produces the same
`SimulationJob.key()`, hits the same cache entries, and coalesces with
inline submissions of the original benchmark.  A foreign trace (e.g.
converted from a gem5 dump) is identified by its content digest, which
is independent of chunking and compression level: re-recording a trace
with other chunks does not change its content address.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Iterator, Optional, Tuple

from ..cpu.trace import TraceChunk
from ..errors import ReproError, WorkloadRefError
from ..workloads.benchmarks import BENCHMARK_NAMES, make_benchmark

if TYPE_CHECKING:
    from .format import TraceInfo

TRACE_SCHEME = "trace:"


def is_trace_ref(ref: str) -> bool:
    """True when ``ref`` names a recorded trace rather than a generator."""

    return isinstance(ref, str) and ref.startswith(TRACE_SCHEME)


def format_trace_ref(path: Path | str) -> str:
    """Build the canonical string form of a trace ref."""

    return f"{TRACE_SCHEME}{path}"


def parse_trace_ref(ref: str) -> str:
    """The file path of a ``trace:<path>`` ref."""

    if not is_trace_ref(ref):
        raise WorkloadRefError(f"{ref!r} is not a trace ref (expected '{TRACE_SCHEME}<path>')")
    path = ref[len(TRACE_SCHEME):]
    if not path:
        raise WorkloadRefError(
            f"{ref!r}: a trace ref needs a file path ('{TRACE_SCHEME}<path>')"
        )
    return path


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


def _require_unit_scale(ref: str, scale: float) -> str:
    """Parse a trace ref to its path, refusing any scale but 1.0."""

    path = parse_trace_ref(ref)
    if float(scale) != 1.0:
        raise WorkloadRefError(
            f"{ref!r}: a recorded trace carries its own scale; "
            f"use scale 1.0 (got {scale!r})"
        )
    return path


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
    path = _require_unit_scale(ref, scale)
    try:
        trace_info(path)
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
    info = trace_info(_require_unit_scale(ref, scale))
    provenance = info.provenance or {}
    if provenance.get("benchmark") in BENCHMARK_NAMES and "scale" in provenance:
        return {
            "benchmark": provenance["benchmark"],
            "scale": repr(float(provenance["scale"])),
        }
    return {"trace": info.digest}


def workload_chunks(ref: str, scale: float) -> Iterator[TraceChunk]:
    """Stream the workload's chunks: generated, or read from the trace file."""

    if not is_trace_ref(ref):
        return make_benchmark(ref, scale=scale).chunks()
    from .format import TraceRecording

    return TraceRecording(_require_unit_scale(ref, scale)).chunks()


def describe_workload(ref: str) -> str:
    """Short label for logs: a benchmark's name, or a trace's file name."""

    if not is_trace_ref(ref):
        return ref
    return format_trace_ref(Path(parse_trace_ref(ref)).name)


def trace_store_dir(directory: Optional[Path | str] = None) -> Path:
    """The trace-artifact directory under the result cache.

    Recorded traces stored here are counted by ``repro-leakage cache
    info``; nothing evicts them.
    """

    from ..engine.store import TRACES_SUBDIR, resolve_cache_dir

    path = resolve_cache_dir(directory) / TRACES_SUBDIR
    path.mkdir(parents=True, exist_ok=True)
    return path
