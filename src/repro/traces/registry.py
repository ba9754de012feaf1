"""Unified workload registry: synthetic generators and recorded traces.

Every place the system names a workload — `SimulationJob.benchmark`,
`SweepSpec.benchmarks`, the CLI's ``--benchmarks`` — accepts a *workload
ref* resolved through this module:

``"gzip"``
    A registered synthetic generator (the paper suite by default;
    more can be added with :meth:`WorkloadRegistry.register`).

``"trace:/path/to/file.rtr"``
    A recorded trace file in the native format (see
    :mod:`repro.traces.format`), streamed chunk-by-chunk.

``"trace:/path/to/file.rtr#3:100000"``
    One SimPoint window of a recorded trace: window index 3 of
    100 000-instruction windows.  Used by SimPoint estimation to fan
    representative regions out through the engine as ordinary jobs.

Content addressing flows through :meth:`WorkloadSource.identity`: a
synthetic workload's identity is its ``{benchmark, scale}`` pair, and a
trace recorded from a synthetic benchmark (provenance in the header)
gets the *identical* identity — so the recorded file produces the same
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
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

from ..cpu.trace import TraceChunk
from ..errors import ReproError, WorkloadRefError
from .format import TraceInfo, TraceRecording

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
    info = TraceRecording(p).info()
    _INFO_CACHE[key] = (signature, info)
    return info


class WorkloadSource:
    """One resolvable workload: identity for content addressing + chunks."""

    kind = "abstract"

    def identity(self, scale: float) -> Dict[str, Any]:
        raise NotImplementedError

    def chunks(self, scale: float) -> Iterator[TraceChunk]:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class SyntheticSource(WorkloadSource):
    """A registered synthetic workload generator."""

    name: str
    factory: Callable[..., Any]

    kind = "synthetic"

    def identity(self, scale: float) -> Dict[str, Any]:
        return {"benchmark": self.name, "scale": repr(float(scale))}

    def chunks(self, scale: float) -> Iterator[TraceChunk]:
        return self.factory(scale=scale).chunks()

    def describe(self) -> str:
        return self.name


@dataclass(frozen=True)
class RecordedTraceSource(WorkloadSource):
    """A recorded trace file (optionally one SimPoint window of it)."""

    trace: TraceRef

    kind = "trace"

    def _require_unit_scale(self, scale: float) -> None:
        if float(scale) != 1.0:
            raise WorkloadRefError(
                f"{self.trace.ref!r}: a recorded trace carries its own scale; "
                f"use scale 1.0 (got {scale!r})"
            )

    def info(self) -> TraceInfo:
        return trace_info(self.trace.path)

    def identity(self, scale: float) -> Dict[str, Any]:
        self._require_unit_scale(scale)
        info = self.info()
        provenance = info.provenance or {}
        benchmark = provenance.get("benchmark")
        if benchmark in _paper_benchmark_names() and "scale" in provenance:
            # Recorded from a known synthetic workload: identical content
            # address, so the trace caches/coalesces like the original.
            base: Dict[str, Any] = {
                "benchmark": benchmark,
                "scale": repr(float(provenance["scale"])),
            }
        else:
            base = {"trace": info.digest}
        if self.trace.window is not None:
            base["window"] = self.trace.window
            base["window_instructions"] = self.trace.window_instructions
        return base

    def chunks(self, scale: float) -> Iterator[TraceChunk]:
        self._require_unit_scale(scale)
        recording = TraceRecording(self.trace.path)
        if self.trace.window is None:
            return recording.chunks()
        assert self.trace.window_instructions is not None
        return recording.window_chunks(self.trace.window, self.trace.window_instructions)

    def describe(self) -> str:
        label = f"{TRACE_SCHEME}{Path(self.trace.path).name}"
        if self.trace.window is not None:
            label += f"#{self.trace.window}:{self.trace.window_instructions}"
        return label


def _paper_benchmark_names() -> Tuple[str, ...]:
    from ..workloads.benchmarks import BENCHMARK_NAMES

    return tuple(BENCHMARK_NAMES)


class WorkloadRegistry:
    """Resolve workload refs to :class:`WorkloadSource` objects."""

    def __init__(self) -> None:
        from ..workloads.benchmarks import BENCHMARK_FACTORIES

        self._synthetic: Dict[str, Callable[..., Any]] = dict(BENCHMARK_FACTORIES)

    @property
    def synthetic_names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._synthetic))

    def register(self, name: str, factory: Callable[..., Any]) -> None:
        """Register a synthetic generator under ``name``.

        ``factory`` must accept a ``scale`` keyword and return an object
        with a ``chunks()`` iterator (the :class:`Workload` contract).
        """

        if not name or not isinstance(name, str):
            raise WorkloadRefError(f"workload name must be a non-empty string, got {name!r}")
        if is_trace_ref(name):
            raise WorkloadRefError(
                f"cannot register {name!r}: the '{TRACE_SCHEME}' prefix is reserved "
                "for recorded trace refs"
            )
        self._synthetic[name] = factory

    def resolve(self, ref: str) -> WorkloadSource:
        """Resolve a ref without touching the filesystem."""

        if not isinstance(ref, str) or not ref:
            raise WorkloadRefError(f"workload ref must be a non-empty string, got {ref!r}")
        if is_trace_ref(ref):
            return RecordedTraceSource(parse_trace_ref(ref))
        factory = self._synthetic.get(ref)
        if factory is None:
            raise WorkloadRefError(
                f"unknown benchmark {ref!r}; known: {list(self.synthetic_names)} "
                f"(or a '{TRACE_SCHEME}<path>' ref to a recorded trace)"
            )
        return SyntheticSource(ref, factory)

    def validate(self, ref: str) -> WorkloadSource:
        """Resolve a ref and, for trace refs, verify the file is readable."""

        source = self.resolve(ref)
        if isinstance(source, RecordedTraceSource):
            try:
                source.info()
            except WorkloadRefError:
                raise
            except ReproError as error:
                raise WorkloadRefError(str(error)) from None
        return source

    def is_known(self, ref: str) -> bool:
        try:
            self.resolve(ref)
        except ReproError:
            return False
        return True


#: Process-wide default registry used by jobs, sweeps and the CLI.
DEFAULT_REGISTRY = WorkloadRegistry()


def resolve_workload(ref: str) -> WorkloadSource:
    return DEFAULT_REGISTRY.resolve(ref)


def validate_workload_ref(ref: str) -> WorkloadSource:
    return DEFAULT_REGISTRY.validate(ref)


def trace_store_dir(directory: Optional[Path | str] = None) -> Path:
    """The trace-artifact directory under the result cache.

    Recorded traces and SimPoint plans stored here are counted by
    ``repro-leakage cache info`` and by the cache's size accounting.
    """

    from ..engine.store import TRACES_SUBDIR, resolve_cache_dir

    path = resolve_cache_dir(directory) / TRACES_SUBDIR
    path.mkdir(parents=True, exist_ok=True)
    return path
