"""Content-addressed on-disk result cache.

Entries are stored one file per job key under a cache directory
(``~/.cache/repro-leakage`` by default, overridable via the
``REPRO_CACHE_DIR`` environment variable or an explicit path).  Each
file is a one-line JSON header followed by the pickled payload::

    {"schema_version": 1, "checksum": "<sha256 of payload bytes>"}\\n
    <pickle bytes>

Reads validate both fields before unpickling.  A schema-version mismatch
with an intact checksum is a lifecycle event — the substrate changed and
:data:`~repro.engine.jobs.SCHEMA_VERSION` was bumped — so the stale
entry is simply evicted.  A checksum mismatch, unparseable header, or
unpicklable payload is *corruption*: the damaged file is moved into a
``quarantine/`` subdirectory (preserving the evidence instead of
silently deleting it), counted, and reported as a miss so the engine
transparently recomputes.  Quarantine counts surface in the run manifest
and ``repro-leakage cache info``.  Writes
go through a temporary file and an atomic rename, so a crashed or
interrupted run never leaves a half-written entry behind; write failures
(read-only or full disk) degrade to running uncached rather than raising.
The ``repro-leakage cache {info,clear}`` subcommands inspect and empty
the cache.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Optional

from .jobs import SCHEMA_VERSION

#: Environment variable overriding the cache directory.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"

#: Default cache location when neither argument nor environment is set.
DEFAULT_CACHE_DIR = Path.home() / ".cache" / "repro-leakage"

#: Subdirectory (under the cache) holding recorded traces — durable
#: *inputs*, unlike the recomputable result entries.
TRACES_SUBDIR = "traces"


def atomic_write_bytes(path: os.PathLike, data: bytes) -> None:
    """Write ``data`` to ``path`` via a sibling temp file and a rename.

    Readers see the old file or the new one, never a torn write, and the
    temp file is removed if anything fails.  The parent directory is
    created on demand; ``OSError`` propagates, so every caller keeps its
    own error contract.  No ``fsync``: the rename is the atomicity
    guarantee, not durability across power loss.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=f".{path.name}-", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def resolve_cache_dir(directory: Optional[os.PathLike] = None) -> Path:
    """Cache directory from the argument, the environment, or the default."""
    if directory is not None:
        return Path(directory)
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    return DEFAULT_CACHE_DIR


class ResultStore:
    """Pickle-backed result cache keyed by job content address."""

    def __init__(
        self,
        directory: Optional[os.PathLike] = None,
        schema_version: int = SCHEMA_VERSION,
    ) -> None:
        self.directory = resolve_cache_dir(directory)
        self.schema_version = schema_version
        #: Counters exposed for telemetry and tests.
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.write_errors = 0
        self.quarantined = 0
        #: One record per corrupt entry found, for the run manifest.
        self.corruption_events: list = []

    def path_for(self, key: str) -> Path:
        """The entry file backing one job key."""
        return self.directory / f"{key}.pkl"

    @property
    def quarantine_dir(self) -> Path:
        """Where corrupt entries are preserved for post-mortems."""
        return self.directory / "quarantine"

    @property
    def traces_dir(self) -> Path:
        """Where recorded traces live."""
        return self.directory / TRACES_SUBDIR

    def _trace_usage(self) -> tuple:
        """(file count, total bytes) of trace artifacts under the cache."""
        files = 0
        total = 0
        try:
            candidates = [p for p in self.traces_dir.rglob("*") if p.is_file()]
        except OSError:
            candidates = []
        for path in candidates:
            try:
                total += path.stat().st_size
            except OSError:
                continue
            files += 1
        return files, total

    def get(self, key: str) -> Optional[Any]:
        """The stored payload, or ``None`` on miss/mismatch/corruption."""
        path = self.path_for(key)
        try:
            raw = path.read_bytes()
        except OSError:
            self.misses += 1
            return None
        try:
            header_line, _, payload = raw.partition(b"\n")
            header = json.loads(header_line)
            checksum = hashlib.sha256(payload).hexdigest()
            if header.get("checksum") != checksum:
                raise ValueError("payload checksum mismatch")
            if header.get("schema_version") != self.schema_version:
                # Intact but stale: a schema bump, not corruption.  Evict
                # so the slot is clean for the recomputed result.
                self.evict(key)
                self.misses += 1
                return None
            value = pickle.loads(payload)
        except Exception as error:
            # Truncation, bit rot, or an unpicklable payload: quarantine
            # the damaged file (evidence preserved, slot cleaned).
            self._quarantine(key, f"{type(error).__name__}: {error}")
            self.misses += 1
            return None
        self.hits += 1
        return value

    def put(self, key: str, value: Any) -> bool:
        """Store a payload atomically; returns whether the write landed.

        The engine ignores the value (a failed write only costs a later
        recomputation), but tracing tools read it: a wrapper around
        ``put`` counts the bytes of written entries only when it is true.
        """
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        header = json.dumps(
            {
                "schema_version": self.schema_version,
                "checksum": hashlib.sha256(payload).hexdigest(),
            }
        ).encode("utf-8")
        path = self.path_for(key)
        try:
            atomic_write_bytes(path, header + b"\n" + payload)
        except OSError:
            # A broken cache must never break the run: fall back to
            # uncached operation and record the failure for telemetry.
            self.write_errors += 1
            return False
        return True

    def evict(self, key: str) -> None:
        """Remove one entry (missing entries are fine)."""
        try:
            self.path_for(key).unlink()
            self.evictions += 1
        except OSError:
            pass

    def _quarantine(self, key: str, reason: str) -> None:
        """Move one corrupt entry aside and record the event."""
        self.corruption_events.append({"key": key, "reason": reason})
        source = self.path_for(key)
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            os.replace(source, self.quarantine_dir / source.name)
            self.quarantined += 1
        except OSError:
            self.evict(key)  # cannot preserve the evidence; just drop it

    def clear(self) -> int:
        """Remove every entry (quarantined ones included); returns a count."""
        removed = 0
        try:
            entries = list(self.directory.glob("*.pkl")) + list(
                self.quarantine_dir.glob("*.pkl")
            )
        except OSError:
            return 0
        for path in entries:
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def info(self) -> dict:
        """Entry count, total bytes and trace usage — for ``cache info``."""
        entries = 0
        total = 0
        try:
            candidates = list(self.directory.glob("*.pkl"))
        except OSError:
            candidates = []
        for path in candidates:
            try:
                total += path.stat().st_size
            except OSError:
                continue
            entries += 1
        try:
            quarantined = len(list(self.quarantine_dir.glob("*.pkl")))
        except OSError:
            quarantined = 0
        trace_files, trace_bytes = self._trace_usage()
        return {
            "directory": str(self.directory),
            "entries": entries,
            "bytes": total,
            "quarantined": quarantined,
            "trace_files": trace_files,
            "trace_bytes": trace_bytes,
        }

    def describe(self) -> str:
        """Location string for telemetry output."""
        return str(self.directory)


class NullStore:
    """Cache bypass (``--no-cache``): every read misses, writes vanish."""

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.write_errors = 0
        self.quarantined = 0
        self.corruption_events: list = []

    def get(self, key: str) -> None:
        self.misses += 1
        return None

    def put(self, key: str, value: Any) -> bool:
        return False

    def evict(self, key: str) -> None:
        pass

    def clear(self) -> int:
        return 0

    def describe(self) -> str:
        return "disabled"
