"""Opt-in zero-copy trace arenas between the engine and its workers.

By default (``auto`` = ``pickle``) every worker that simulates a
recorded-trace job streams the ``.rtr`` file itself: the reader decodes
one chunk ahead on a helper thread, so the decode overlaps simulation,
and the parent publishes nothing.  Measured end to end, publishing an
arena put the whole decode on the parent's critical path before the
first worker started and doubled peak RSS, so the arenas stay only as
explicit opt-ins, pending their deletion:

``shm``
    columns live in a ``multiprocessing.shared_memory`` segment; local
    workers attach and build numpy views straight into
    the segment — zero copies, dispatch cost independent of trace size.
``disk``
    columns are spooled to a ``.npy``-style arena file; workers
    memory-map it (``np.memmap``) for the same zero-copy views, without
    needing a shared-memory filesystem.
``pickle``
    no arena: workers stream from the ``.rtr`` file themselves.

The mode comes from ``REPRO_TRANSPORT``.  Publication is *advisory*
and keyed through a process-wide refcounted registry: the parent writes
one JSON handle per trace into a manifest directory pointed at by
``REPRO_TRANSPORT_DIR`` (inherited by local workers), and
:func:`execute_job` consults :func:`overlay_chunks` — a worker that
finds no handle, or fails to attach, falls back to the on-disk reader
and produces bit-identical results.  The parent owns every segment: it
unlinks them when the dispatch that published them completes, so a
worker killed mid-chunk can never leak a segment, and it removes the
manifest directory once the last arena is released.

Arenas preserve the on-disk chunk boundaries, so chunked simulation
behaves identically to the streaming reader.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import shutil
import tempfile
import threading
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import EngineError
from .config import resolve_transport_mode

logger = logging.getLogger(__name__)

#: Environment variable pointing workers at the handle-manifest
#: directory (set by the publishing parent, inherited by workers).
ENV_TRANSPORT_DIR = "REPRO_TRANSPORT_DIR"

#: Schema version of the JSON handle files.
HANDLE_VERSION = 1

_COLUMN_DTYPES: Tuple[Tuple[str, np.dtype], ...] = (
    ("pcs", np.dtype(np.int64)),
    ("data_addresses", np.dtype(np.int64)),
    ("data_kinds", np.dtype(np.uint8)),
)


def _shared_memory_module():
    try:
        from multiprocessing import shared_memory
    except ImportError:  # pragma: no cover — always present on CPython 3.8+
        return None
    return shared_memory


def handle_name(trace_path: str) -> str:
    """Stable handle filename for one trace path."""
    digest = hashlib.sha256(
        os.path.abspath(str(trace_path)).encode("utf-8")
    ).hexdigest()[:24]
    return f"trace-{digest}.json"


def _attach_shared_memory(name: str):
    """Attach to an existing segment without adopting its lifetime.

    The parent that created the segment owns unlinking it.  Attaching
    must therefore not register the segment with this process's
    ``resource_tracker`` — otherwise a finishing worker would tear the
    segment down under every sibling.  Python 3.13 exposes
    ``track=False``; older versions need the unregister workaround.
    """
    shared_memory = _shared_memory_module()
    if shared_memory is None:  # pragma: no cover — guarded by the mode
        raise EngineError("multiprocessing.shared_memory is unavailable")
    try:
        return shared_memory.SharedMemory(name=name, create=False, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        segment = shared_memory.SharedMemory(name=name, create=False)
        # When this very process published the segment (serial in-process
        # execution), the attach's duplicate tracker registration deduped
        # into the creator's entry — unregistering here would strip it and
        # make the eventual unlink() complain.  Only scrub the tracker in
        # genuinely foreign (worker) processes.
        if not REGISTRY.owns_segment(name):
            try:
                from multiprocessing import resource_tracker

                resource_tracker.unregister(segment._name, "shared_memory")
            except Exception:  # pragma: no cover — tracker layout changed
                pass
        return segment


@dataclass
class TraceArena:
    """One published trace: columns in a segment plus chunk boundaries."""

    mode: str  #: ``"shm"`` or ``"disk"``.
    trace_path: str  #: Absolute path of the source ``.rtr`` file.
    segment: str  #: shm segment name, or the arena file path for disk.
    instructions: int
    chunk_offsets: List[int]  #: Start offset of each on-disk chunk.
    handle_path: Path  #: The JSON handle file advertised to workers.
    _shm: Optional[object] = None  #: Parent-side SharedMemory keepalive.

    def nbytes(self) -> int:
        n = self.instructions
        return sum(n * dtype.itemsize for _, dtype in _COLUMN_DTYPES)

    def to_handle(self) -> Dict:
        return {
            "version": HANDLE_VERSION,
            "mode": self.mode,
            "trace_path": self.trace_path,
            "segment": self.segment,
            "instructions": self.instructions,
            "chunk_offsets": list(self.chunk_offsets),
        }

    def unlink(self) -> None:
        """Remove the handle file and the backing segment (parent only)."""
        try:
            self.handle_path.unlink()
        except OSError:
            pass
        if self.mode == "shm":
            shm = self._shm
            self._shm = None
            if shm is not None:
                try:
                    shm.close()
                except OSError:  # pragma: no cover — double close
                    pass
                try:
                    shm.unlink()
                except (OSError, FileNotFoundError):
                    pass
        else:
            try:
                os.unlink(self.segment)
            except OSError:
                pass


def _column_layout(n: int) -> List[Tuple[str, np.dtype, int, int]]:
    """``(name, dtype, byte offset, byte length)`` per column for n rows."""
    layout = []
    offset = 0
    for name, dtype in _COLUMN_DTYPES:
        length = n * dtype.itemsize
        layout.append((name, dtype, offset, length))
        offset += length
    return layout


def _load_columns(trace_path: str):
    """Decode a trace once: concatenated columns + chunk offsets."""
    from ..traces.format import TraceRecording

    recording = TraceRecording(trace_path)
    pcs: List[np.ndarray] = []
    addrs: List[np.ndarray] = []
    kinds: List[np.ndarray] = []
    offsets: List[int] = []
    total = 0
    for chunk in recording.chunks():
        offsets.append(total)
        total += len(chunk)
        pcs.append(chunk.pcs)
        addrs.append(chunk.data_addresses)
        kinds.append(chunk.data_kinds)
    columns = {
        "pcs": np.concatenate(pcs) if pcs else np.zeros(0, dtype=np.int64),
        "data_addresses": (
            np.concatenate(addrs) if addrs else np.zeros(0, dtype=np.int64)
        ),
        "data_kinds": (
            np.concatenate(kinds) if kinds else np.zeros(0, dtype=np.uint8)
        ),
    }
    return columns, offsets, total


def _publish(trace_path: str, mode: str, directory: Path) -> TraceArena:
    """Materialize one trace into an arena and write its handle file."""
    columns, offsets, total = _load_columns(trace_path)
    layout = _column_layout(total)
    handle_path = directory / handle_name(trace_path)
    shm_keepalive = None
    if mode == "shm":
        shared_memory = _shared_memory_module()
        if shared_memory is None:
            raise EngineError(
                "REPRO_TRANSPORT=shm but multiprocessing.shared_memory "
                "is unavailable on this host"
            )
        nbytes = max(1, sum(length for _, _, _, length in layout))
        shm_keepalive = shared_memory.SharedMemory(create=True, size=nbytes)
        for name, dtype, offset, length in layout:
            view = np.ndarray(
                (total,), dtype=dtype, buffer=shm_keepalive.buf, offset=offset
            )
            view[:] = columns[name]
        segment = shm_keepalive.name
    else:
        fd, arena_file = tempfile.mkstemp(
            dir=str(directory), prefix="arena-", suffix=".bin"
        )
        with os.fdopen(fd, "wb") as fh:
            for name, _, _, _ in layout:
                fh.write(np.ascontiguousarray(columns[name]).tobytes())
            fh.flush()
            os.fsync(fh.fileno())
        segment = arena_file
    arena = TraceArena(
        mode=mode,
        trace_path=os.path.abspath(str(trace_path)),
        segment=segment,
        instructions=total,
        chunk_offsets=offsets,
        handle_path=handle_path,
        _shm=shm_keepalive,
    )
    tmp = handle_path.with_name(handle_path.name + ".tmp")
    tmp.write_text(json.dumps(arena.to_handle(), sort_keys=True))
    os.replace(tmp, handle_path)
    return arena


class ArenaRegistry:
    """Process-wide refcounted publisher, safe for concurrent engines.

    Several engines (in threads of one process) may dispatch jobs over
    the same trace at once; the registry
    publishes each trace exactly once, hands every publisher the same
    arena, and unlinks only when the last one releases it.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._arenas: Dict[str, TraceArena] = {}
        self._refs: Dict[str, int] = {}
        self._dir: Optional[Path] = None

    def _manifest_dir_locked(self) -> Path:
        """The handle directory, created lazily and exported via env."""
        if self._dir is None:
            self._dir = Path(
                tempfile.mkdtemp(prefix=f"repro-transport-{os.getpid()}-")
            )
            os.environ[ENV_TRANSPORT_DIR] = str(self._dir)
        return self._dir

    def acquire(self, trace_path: str, mode: str) -> Optional[TraceArena]:
        """Publish (or re-reference) one trace; ``None`` if it fails."""
        key = os.path.abspath(str(trace_path))
        with self._lock:
            arena = self._arenas.get(key)
            if arena is not None:
                self._refs[key] += 1
                return arena
            directory = self._manifest_dir_locked()
            try:
                arena = _publish(key, mode, directory)
            except Exception as error:  # noqa: BLE001 — advisory layer
                logger.warning(
                    "trace transport: publishing %s via %s failed (%s); "
                    "workers will stream from disk",
                    key, mode, error,
                )
                if not self._arenas:
                    self._drop_manifest_dir_locked()
                return None
            self._arenas[key] = arena
            self._refs[key] = 1
            return arena

    def release(self, trace_path: str) -> None:
        """Drop one reference; the last one unlinks the arena.

        Releasing the last arena also removes the handle directory and
        unsets ``REPRO_TRANSPORT_DIR``, so a run leaves nothing behind.
        """
        key = os.path.abspath(str(trace_path))
        with self._lock:
            if key not in self._refs:
                return
            self._refs[key] -= 1
            if self._refs[key] > 0:
                return
            arena = self._arenas.pop(key)
            del self._refs[key]
            arena.unlink()
            if not self._arenas:
                self._drop_manifest_dir_locked()

    def _drop_manifest_dir_locked(self) -> None:
        if self._dir is None:
            return
        shutil.rmtree(self._dir, ignore_errors=True)
        if os.environ.get(ENV_TRANSPORT_DIR) == str(self._dir):
            del os.environ[ENV_TRANSPORT_DIR]
        self._dir = None

    def active_segments(self) -> List[str]:
        with self._lock:
            return [arena.segment for arena in self._arenas.values()]

    def owns_segment(self, name: str) -> bool:
        """Whether this process published the named shm segment."""
        with self._lock:
            return any(
                arena.mode == "shm" and arena.segment == name
                for arena in self._arenas.values()
            )

    def reset(self) -> None:
        """Unlink everything and remove the handle directory (tests)."""
        with self._lock:
            for arena in self._arenas.values():
                arena.unlink()
            self._arenas.clear()
            self._refs.clear()
            self._drop_manifest_dir_locked()


#: The process-wide registry engines publish through.
REGISTRY = ArenaRegistry()


def trace_paths_for_jobs(jobs: Sequence[object]) -> List[str]:
    """Distinct trace file paths referenced by a batch of jobs."""
    from ..traces.registry import is_trace_ref, parse_trace_ref

    seen: Dict[str, None] = {}
    for job in jobs:
        benchmark = getattr(job, "benchmark", None)
        if isinstance(benchmark, str) and is_trace_ref(benchmark):
            try:
                path = parse_trace_ref(benchmark)
            except Exception:  # noqa: BLE001 — job validation owns errors
                continue
            seen.setdefault(os.path.abspath(path))
    return list(seen)


def publish_for_jobs(
    jobs: Sequence[object], mode: Optional[str] = None
) -> List[str]:
    """Publish arenas for every trace a job batch references.

    Returns the published paths (pass them to :func:`release_paths`
    when the dispatch completes).  ``pickle`` mode publishes nothing.
    """
    resolved = resolve_transport_mode(mode)
    if resolved == "pickle":
        return []
    published = []
    for path in trace_paths_for_jobs(jobs):
        if REGISTRY.acquire(path, resolved) is not None:
            published.append(path)
    return published


def release_paths(paths: Sequence[str]) -> None:
    for path in paths:
        REGISTRY.release(path)


# ----------------------------------------------------------------------
# Worker side: the overlay
# ----------------------------------------------------------------------

def _read_handle(trace_path: str) -> Optional[Dict]:
    directory = os.environ.get(ENV_TRANSPORT_DIR)
    if not directory:
        return None
    handle_path = Path(directory) / handle_name(trace_path)
    try:
        handle = json.loads(handle_path.read_text())
    except (OSError, ValueError):
        return None
    if (
        not isinstance(handle, dict)
        or handle.get("version") != HANDLE_VERSION
        or handle.get("mode") not in ("shm", "disk")
    ):
        return None
    return handle


class _SegmentKeeper:
    """Closes an attached shm segment once every column view is gone.

    numpy does *not* hold a buffer export on the underlying mmap — a
    view built over ``SharedMemory.buf`` keeps the raw ``mmap.mmap`` in
    its ``base`` chain, yet ``SharedMemory.close()`` still unmaps the
    pages under it (verified: reading the view afterwards segfaults).
    Closing is therefore driven by garbage collection: each column array
    carries a ``weakref.finalize`` that decrements this keeper, and the
    segment is closed only when the last array dies.  Chunk slices keep
    their column array alive through ``.base``, so views handed to the
    simulator can never outlive the mapping.
    """

    def __init__(self, segment, count: int) -> None:
        self._lock = threading.Lock()
        self._segment = segment
        self._count = count

    def done(self) -> None:
        with self._lock:
            self._count -= 1
            if self._count > 0 or self._segment is None:
                return
            segment, self._segment = self._segment, None
        try:
            segment.close()
        except (OSError, BufferError):  # pragma: no cover — double close
            pass


def _attach_columns(handle: Dict):
    """Zero-copy column views for a handle.

    Mapping lifetime is GC-driven in both modes: shm columns keep the
    segment open through :class:`_SegmentKeeper`; disk columns keep the
    ``np.memmap`` alive through their ``base`` chain (numpy closes the
    file mapping when the last view is collected).
    """
    total = int(handle["instructions"])
    layout = _column_layout(total)
    if handle["mode"] == "shm":
        segment = _attach_shared_memory(str(handle["segment"]))
        buf = segment.buf
        columns = {
            name: np.ndarray((total,), dtype=dtype, buffer=buf, offset=offset)
            for name, dtype, offset, _ in layout
        }
        keeper = _SegmentKeeper(segment, len(columns))
        for array in columns.values():
            weakref.finalize(array, keeper.done)
        return columns
    arena = np.memmap(str(handle["segment"]), dtype=np.uint8, mode="r")
    expected = sum(length for _, _, _, length in layout)
    if arena.size < expected:
        raise EngineError(
            f"trace arena {handle['segment']} holds {arena.size} bytes, "
            f"expected {expected}"
        )
    return {
        name: np.frombuffer(arena, dtype=dtype, count=total, offset=offset)
        for name, dtype, offset, _ in layout
    }


def overlay_chunks(trace_path: str) -> Optional[Iterator["object"]]:
    """Chunk iterator over a published arena, or ``None`` to fall back.

    Yields :class:`~repro.cpu.trace.TraceChunk` views straight into the
    arena, honouring the original on-disk chunk boundaries.
    """
    handle = _read_handle(trace_path)
    if handle is None:
        return None
    try:
        columns = _attach_columns(handle)
    except Exception as error:  # noqa: BLE001 — advisory layer
        logger.warning(
            "trace transport: attaching to arena for %s failed (%s); "
            "streaming from disk instead",
            trace_path, error,
        )
        return None
    offsets = [int(o) for o in handle["chunk_offsets"]]
    return _arena_chunks(columns, offsets, int(handle["instructions"]))


def _arena_chunks(columns, offsets, total) -> Iterator["object"]:
    from ..cpu.trace import TraceChunk

    bounds = offsets + [total]
    for lo, hi in zip(bounds, bounds[1:]):
        if hi > lo:
            yield TraceChunk(
                columns["pcs"][lo:hi],
                columns["data_addresses"][lo:hi],
                columns["data_kinds"][lo:hi],
            )
