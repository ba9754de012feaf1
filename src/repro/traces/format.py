"""Versioned, chunked on-disk trace format with a streaming reader.

A recorded trace is a single file (conventional suffix ``.rtr``) laid
out as a magic string followed by *frames*.  Every frame is a 4-byte
little-endian length, a JSON metadata blob of that length, and an
optional binary payload whose size the metadata declares::

    MAGIC ("RTRC0001")
    [u32 len][header JSON]                      kind == "header"
    [u32 len][chunk  JSON][payload bytes]       kind == "chunk"   (0..N)
    ...
    [u32 len][end    JSON]                      kind == "end"
    [u64 end-frame offset]["RTRCEND1"]          fixed 16-byte trailer

Chunk payloads are fixed-dtype numpy record arrays (``pc`` int64,
``daddr`` int64 with ``-1`` meaning "no data access", ``kind`` uint8 —
the same column contract as :class:`repro.cpu.trace.TraceChunk`),
zlib-compressed.  Each chunk frame carries the SHA-256 of its
*uncompressed* payload so corruption is detected per chunk, and the end
frame carries a running SHA-256 over all uncompressed chunk payloads in
order — an identity for the trace content that does not depend on its
chunking or compression level.  The fixed trailer lets :meth:`TraceRecording.info` seek
straight to the end frame without scanning the file.

There is one reader, and it streams: :meth:`TraceRecording.chunks`
walks the frames and decodes at most one chunk ahead of its consumer,
on a helper thread, so peak memory is bounded by two chunks no matter
how large the trace file is.  Every read walks the whole file, so the
whole-trace digest is always checked.
The writer mirrors it: :class:`TraceWriter` compresses and checksums up
to :data:`WRITE_BEHIND` chunks behind its producer on helper threads and
writes their frames in index order, so the file's bytes do not depend
on thread timing.

The header names the codec ``gzip``: zlib, written at :data:`GZIP_LEVEL`
(any level reads back).  A header naming any other codec fails with a
:class:`~repro.errors.ConfigurationError`.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import tempfile
import zlib
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, BinaryIO, Deque, Dict, Iterable, Iterator, Optional, Tuple

import numpy as np

from ..cpu.trace import TraceChunk
from ..errors import ConfigurationError, TraceError, TraceFormatError

MAGIC = b"RTRC0001"
END_MAGIC = b"RTRCEND1"
FORMAT_VERSION = 1
TRACE_SUFFIX = ".rtr"
DEFAULT_CHUNK_INSTRUCTIONS = 65_536
_CODEC = "gzip"

#: Record layout of one access in a chunk payload (17 bytes/access).
RECORD_DTYPE = np.dtype([("pc", "<i8"), ("daddr", "<i8"), ("kind", "u1")])

_COLUMNS = [["pc", "<i8"], ["daddr", "<i8"], ["kind", "|u1"]]

_LEN_STRUCT = struct.Struct("<I")
_TRAILER_STRUCT = struct.Struct("<Q8s")
_MAX_META_BYTES = 1 << 20  # sanity bound on a metadata frame

#: zlib level of every chunk payload.  On the 181 MB of raw chunk payloads
#: in the six paper traces, level 4 compresses in 1.9-2.8 s against level
#: 6's 5.0-5.5 s, to 29.40 MB against 29.33, and inflates no slower;
#: levels 1-2 save up to 0.8 s more but write files 6-8 % larger, which
#: inflate no faster.
GZIP_LEVEL = 4

#: Helper threads, and chunks in flight, behind a :class:`TraceWriter`.
#: Recording the six benchmarks at a non-paper seed on a 2-vCPU host took
#: 3.8 s serially at level 4, 2.7 s with one helper and 1.9 s with two:
#: one helper compresses slower than the producer generates and encodes.
WRITE_BEHIND = 2


def _compress(raw) -> bytes:
    """One chunk payload, compressed at the current :data:`GZIP_LEVEL`."""
    return zlib.compress(raw, GZIP_LEVEL)


@dataclass(frozen=True)
class TraceInfo:
    """Summary of a recorded trace, derived from its header and end frames."""

    path: str
    version: int
    codec: str
    chunk_instructions: int
    chunks: int
    instructions: int
    digest: str
    provenance: Optional[Dict[str, Any]]
    file_bytes: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "version": self.version,
            "codec": self.codec,
            "chunk_instructions": self.chunk_instructions,
            "chunks": self.chunks,
            "instructions": self.instructions,
            "digest": self.digest,
            "provenance": self.provenance,
            "file_bytes": self.file_bytes,
        }


def _write_frame(fh: BinaryIO, meta: Dict[str, Any], payload: bytes = b"") -> None:
    blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    fh.write(_LEN_STRUCT.pack(len(blob)))
    fh.write(blob)
    if payload:
        fh.write(payload)


def _read_frame_meta(fh: BinaryIO, path: Path, context: str) -> Dict[str, Any]:
    head = fh.read(_LEN_STRUCT.size)
    if len(head) != _LEN_STRUCT.size:
        raise TraceFormatError(f"{path}: truncated while reading {context} frame length")
    (length,) = _LEN_STRUCT.unpack(head)
    if length == 0 or length > _MAX_META_BYTES:
        raise TraceFormatError(f"{path}: implausible {context} frame length {length}")
    blob = fh.read(length)
    if len(blob) != length:
        raise TraceFormatError(f"{path}: truncated while reading {context} frame metadata")
    try:
        meta = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise TraceFormatError(f"{path}: corrupt {context} frame metadata: {error}") from None
    if not isinstance(meta, dict) or "kind" not in meta:
        raise TraceFormatError(f"{path}: malformed {context} frame metadata")
    return meta


def _decode_chunk(raw, path: Path, index: int) -> TraceChunk:
    """Columns of a verified chunk payload, each a contiguous array."""
    rec = np.frombuffer(raw, dtype=RECORD_DTYPE)
    columns = (np.ascontiguousarray(rec[name]) for name in ("pc", "daddr", "kind"))
    try:
        return TraceChunk(*columns)
    except TraceError as error:
        raise TraceFormatError(f"{path}: chunk {index} holds invalid accesses: {error}") from None


def _read_ahead(source: Iterator[TraceChunk]) -> Iterator[TraceChunk]:
    """Yield ``source``'s chunks while one helper thread decodes the next.

    The helper advances ``source`` one chunk ahead of the consumer and no
    further.  An exception ``source`` raises reaches the consumer at the
    position a sequential read would raise it.  Closing the generator
    waits for the helper's current step, joins the thread and closes
    ``source``.
    """
    helper = ThreadPoolExecutor(max_workers=1, thread_name_prefix="rtr-read-ahead")
    pending = helper.submit(next, source, None)
    try:
        while True:
            chunk = pending.result()
            if chunk is None:
                return
            pending = helper.submit(next, source, None)
            yield chunk
    finally:
        pending.cancel()
        helper.shutdown(wait=True)
        source.close()


class TraceWriter:
    """Stream trace chunks to disk in the native recorded format.

    The writer re-chunks its input: appended accesses are encoded
    straight into the current chunk's record buffer, and each full
    buffer is emitted as an exact ``chunk_instructions``-sized chunk
    (the final chunk may be shorter), so the on-disk chunking is
    independent of how the producer happened to batch its accesses.

    Emitted chunks are compressed and checksummed behind the producer
    by :data:`WRITE_BEHIND` helper threads (zlib and hashlib release the
    GIL); at most that many chunks are in flight, and their frames are
    written in index order, so the file's bytes do not depend on thread
    timing.  A helper's error is raised by the next :meth:`append` or by
    :meth:`close`, after the writer has aborted itself.  Output goes to
    a temporary file in the destination directory and is atomically
    renamed into place on :meth:`close`; an aborted writer leaves
    nothing behind.
    """

    def __init__(
        self,
        path: Path | str,
        *,
        chunk_instructions: int = DEFAULT_CHUNK_INSTRUCTIONS,
        provenance: Optional[Dict[str, Any]] = None,
    ) -> None:
        if chunk_instructions <= 0:
            raise ConfigurationError(
                f"chunk_instructions must be positive, got {chunk_instructions}"
            )
        self._chunk_instructions = int(chunk_instructions)
        self._provenance = dict(provenance) if provenance is not None else None
        self._final_path = Path(path)
        self._final_path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=str(self._final_path.parent),
            prefix=f".{self._final_path.name}.",
            suffix=".tmp",
        )
        self._tmp_path = Path(tmp)
        self._fh: Optional[BinaryIO] = os.fdopen(fd, "wb")
        self._record = np.empty(self._chunk_instructions, dtype=RECORD_DTYPE)
        self._filled = 0
        self._helpers = ThreadPoolExecutor(
            max_workers=WRITE_BEHIND, thread_name_prefix="rtr-write-behind"
        )
        #: ``(instructions, future of (payload, sha256))`` per chunk in flight.
        self._in_flight: Deque[Tuple[int, Future]] = deque()
        self._chunks = 0
        self._instructions = 0
        self._digest = hashlib.sha256()
        self._fh.write(MAGIC)
        _write_frame(
            self._fh,
            {
                "kind": "header",
                "version": FORMAT_VERSION,
                "codec": _CODEC,
                "chunk_instructions": self._chunk_instructions,
                "columns": _COLUMNS,
                "provenance": self._provenance,
            },
        )

    @property
    def path(self) -> Path:
        return self._final_path

    def append(self, chunk: TraceChunk) -> None:
        if self._fh is None:
            raise TraceError(f"trace writer for {self._final_path} is already closed")
        self._drain(WRITE_BEHIND)
        start, total = 0, len(chunk)
        while start < total:
            take = min(total - start, self._chunk_instructions - self._filled)
            into = slice(self._filled, self._filled + take)
            taken = slice(start, start + take)
            self._record["pc"][into] = chunk.pcs[taken]
            self._record["daddr"][into] = chunk.data_addresses[taken]
            self._record["kind"][into] = chunk.data_kinds[taken]
            self._filled += take
            start += take
            if self._filled == self._chunk_instructions:
                self._emit()

    def extend(self, chunks: Iterable[TraceChunk]) -> None:
        for chunk in chunks:
            self.append(chunk)

    def _emit(self) -> None:
        """Hand the filled record buffer to a helper and start a new one."""
        raw = memoryview(self._record[: self._filled].view(np.uint8))
        self._digest.update(raw)
        self._drain(WRITE_BEHIND - 1)
        self._in_flight.append((self._filled, self._helpers.submit(self._seal, raw)))
        self._record = np.empty(self._chunk_instructions, dtype=RECORD_DTYPE)
        self._filled = 0

    def _seal(self, raw: memoryview) -> Tuple[Any, str]:
        """Helper-thread work on one chunk: its payload and raw checksum."""
        return _compress(raw), hashlib.sha256(raw).hexdigest()

    def _drain(self, keep: int) -> None:
        """Write finished chunk frames in index order, waiting until at
        most ``keep`` chunks are in flight."""
        while self._in_flight and (
            len(self._in_flight) > keep or self._in_flight[0][1].done()
        ):
            instructions, sealed = self._in_flight.popleft()
            try:
                payload, sha256 = sealed.result()
            except BaseException:
                self.abort()
                raise
            assert self._fh is not None
            _write_frame(
                self._fh,
                {
                    "kind": "chunk",
                    "index": self._chunks,
                    "instructions": instructions,
                    "payload_bytes": len(payload),
                    "sha256": sha256,
                },
                payload,
            )
            self._chunks += 1
            self._instructions += instructions

    def close(self) -> TraceInfo:
        """Flush buffered accesses, seal the file and rename it into place."""

        if self._fh is None:
            raise TraceError(f"trace writer for {self._final_path} is already closed")
        if self._filled:
            self._emit()
        self._drain(0)
        self._helpers.shutdown(wait=True)
        fh = self._fh
        end_offset = fh.tell()
        digest = self._digest.hexdigest()
        _write_frame(
            fh,
            {
                "kind": "end",
                "chunks": self._chunks,
                "instructions": self._instructions,
                "digest": digest,
            },
        )
        fh.write(_TRAILER_STRUCT.pack(end_offset, END_MAGIC))
        fh.flush()
        os.fsync(fh.fileno())
        fh.close()
        self._fh = None
        os.replace(self._tmp_path, self._final_path)
        return TraceInfo(
            path=str(self._final_path),
            version=FORMAT_VERSION,
            codec=_CODEC,
            chunk_instructions=self._chunk_instructions,
            chunks=self._chunks,
            instructions=self._instructions,
            digest=digest,
            provenance=self._provenance,
            file_bytes=self._final_path.stat().st_size,
        )

    def abort(self) -> None:
        """Cancel queued chunks, join the helpers and discard the file."""

        self._helpers.shutdown(wait=True, cancel_futures=True)
        self._in_flight.clear()
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        try:
            self._tmp_path.unlink()
        except FileNotFoundError:
            pass

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if exc_type is None:
            if self._fh is not None:
                self.close()
        else:
            self.abort()


class TraceRecording:
    """Streaming reader for a recorded trace file."""

    def __init__(self, path: Path | str) -> None:
        self.path = Path(path)
        if not self.path.is_file():
            raise TraceError(f"trace file {self.path} does not exist")
        with self.path.open("rb") as fh:
            self._header = self._read_header(fh)

    def _read_header(self, fh: BinaryIO) -> Dict[str, Any]:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise TraceFormatError(
                f"{self.path}: not a recorded trace (bad magic {magic!r}; expected {MAGIC!r})"
            )
        meta = _read_frame_meta(fh, self.path, "header")
        if meta.get("kind") != "header":
            raise TraceFormatError(f"{self.path}: first frame is {meta.get('kind')!r}, not header")
        version = meta.get("version")
        if version != FORMAT_VERSION:
            raise TraceFormatError(
                f"{self.path}: unsupported trace format version {version!r} "
                f"(this reader supports {FORMAT_VERSION})"
            )
        if meta.get("columns") != _COLUMNS:
            raise TraceFormatError(
                f"{self.path}: unexpected column layout {meta.get('columns')!r}"
            )
        codec = meta.get("codec")
        if not isinstance(codec, str):
            raise TraceFormatError(f"{self.path}: header has no codec")
        if codec != _CODEC:
            raise ConfigurationError(
                f"{self.path}: unknown trace codec {codec!r}; "
                f"this reader reads {_CODEC!r} only"
            )
        chunk_instructions = meta.get("chunk_instructions")
        if not isinstance(chunk_instructions, int) or chunk_instructions <= 0:
            raise TraceFormatError(
                f"{self.path}: invalid chunk_instructions {chunk_instructions!r}"
            )
        return meta

    @property
    def chunk_instructions(self) -> int:
        return int(self._header["chunk_instructions"])

    @property
    def provenance(self) -> Optional[Dict[str, Any]]:
        provenance = self._header.get("provenance")
        return dict(provenance) if isinstance(provenance, dict) else None

    def info(self) -> TraceInfo:
        """Read the trace summary via the fixed trailer (no chunk scan)."""

        size = self.path.stat().st_size
        if size < len(MAGIC) + _TRAILER_STRUCT.size:
            raise TraceFormatError(f"{self.path}: file too short to hold a trailer")
        with self.path.open("rb") as fh:
            fh.seek(size - _TRAILER_STRUCT.size)
            end_offset, end_magic = _TRAILER_STRUCT.unpack(fh.read(_TRAILER_STRUCT.size))
            if end_magic != END_MAGIC:
                raise TraceFormatError(
                    f"{self.path}: missing end trailer (file truncated or not sealed)"
                )
            if end_offset >= size:
                raise TraceFormatError(f"{self.path}: trailer points past end of file")
            fh.seek(end_offset)
            end = _read_frame_meta(fh, self.path, "end")
        if end.get("kind") != "end":
            raise TraceFormatError(
                f"{self.path}: trailer does not point at an end frame (got {end.get('kind')!r})"
            )
        return TraceInfo(
            path=str(self.path),
            version=int(self._header["version"]),
            codec=_CODEC,
            chunk_instructions=self.chunk_instructions,
            chunks=int(end["chunks"]),
            instructions=int(end["instructions"]),
            digest=str(end["digest"]),
            provenance=self.provenance,
            file_bytes=size,
        )

    def _payloads(self, fh: BinaryIO) -> Iterator[Tuple[int, bytes]]:
        """Walk the frames of ``fh``, verifying each check.

        Yields ``(index, raw payload)`` for every chunk frame, in order,
        and checks the whole-trace digest at the end frame.
        """
        fh.seek(0)
        self._read_header(fh)
        running = hashlib.sha256()
        index = 0
        while True:
            meta = _read_frame_meta(fh, self.path, f"chunk {index}")
            kind = meta.get("kind")
            if kind == "end":
                if meta.get("chunks") != index:
                    raise TraceFormatError(
                        f"{self.path}: end frame declares {meta.get('chunks')} chunks "
                        f"but {index} were read"
                    )
                if meta.get("digest") != running.hexdigest():
                    raise TraceFormatError(
                        f"{self.path}: whole-trace digest mismatch; the file is corrupt"
                    )
                return
            if kind != "chunk":
                raise TraceFormatError(f"{self.path}: unexpected frame kind {kind!r}")
            if meta.get("index") != index:
                raise TraceFormatError(
                    f"{self.path}: chunk frames out of order "
                    f"(expected index {index}, found {meta.get('index')!r})"
                )
            declared = meta.get("payload_bytes")
            if not isinstance(meta.get("instructions"), int):
                raise TraceFormatError(f"{self.path}: chunk {index} metadata incomplete")
            if not isinstance(declared, int) or declared < 0:
                raise TraceFormatError(f"{self.path}: chunk {index} declares no payload size")
            raw = self._check_payload(fh.read(declared), meta, index)
            running.update(raw)
            yield index, raw
            index += 1

    def _check_payload(self, payload: bytes, meta: Dict[str, Any], index: int) -> bytes:
        """Decompress one chunk payload and verify its size and checksum."""
        declared = meta["payload_bytes"]
        if len(payload) != declared:
            raise TraceFormatError(
                f"{self.path}: chunk {index} truncated "
                f"(expected {declared} payload bytes, got {len(payload)})"
            )
        try:
            raw = zlib.decompress(payload)
        except zlib.error as error:
            raise TraceFormatError(
                f"{self.path}: chunk {index} failed to decompress ({error}); "
                "the file is corrupt"
            ) from None
        if hashlib.sha256(raw).hexdigest() != meta.get("sha256"):
            raise TraceFormatError(
                f"{self.path}: chunk {index} checksum mismatch; the file is corrupt"
            )
        if len(raw) % RECORD_DTYPE.itemsize:
            raise TraceFormatError(
                f"{self.path}: chunk {index} payload is {len(raw)} bytes, not a multiple of "
                f"the {RECORD_DTYPE.itemsize}-byte record size"
            )
        if len(raw) != meta["instructions"] * RECORD_DTYPE.itemsize:
            raise TraceFormatError(
                f"{self.path}: chunk {index} holds {len(raw) // RECORD_DTYPE.itemsize} "
                f"accesses but declares {meta['instructions']}"
            )
        return raw

    def chunks(self) -> Iterator[TraceChunk]:
        """Yield the trace's chunks in order, verifying every checksum.

        The reader decodes one chunk ahead on a helper thread, so
        decompression and checksumming overlap the consumer's work
        (zlib, sha256 and numpy copies release the GIL).  Peak memory
        is bounded by two chunks: the one last yielded and the one read
        ahead.  A check that fails on chunk k is raised in the consumer
        after exactly k chunks, as a sequential read would raise it;
        closing or abandoning the generator joins the helper.  The
        running whole-trace digest is checked against the end frame, so
        a fully consumed stream is guaranteed intact.
        """

        with self.path.open("rb") as fh:
            yield from _read_ahead(
                _decode_chunk(raw, self.path, index) for index, raw in self._payloads(fh)
            )

    def validate(self) -> TraceInfo:
        """Walk the whole file verifying every checksum and the trailer."""

        info = self.info()
        chunks = 0
        instructions = 0
        for chunk in self.chunks():
            chunks += 1
            instructions += len(chunk)
        if chunks != info.chunks or instructions != info.instructions:
            raise TraceFormatError(
                f"{self.path}: end frame declares {info.chunks} chunks / "
                f"{info.instructions} instructions but the stream holds "
                f"{chunks} / {instructions}"
            )
        return info


def record_chunks(
    chunks: Iterable[TraceChunk],
    path: Path | str,
    *,
    chunk_instructions: int = DEFAULT_CHUNK_INSTRUCTIONS,
    provenance: Optional[Dict[str, Any]] = None,
) -> TraceInfo:
    """Record an iterable of trace chunks to ``path``, returning its info."""

    with TraceWriter(
        path, chunk_instructions=chunk_instructions, provenance=provenance
    ) as writer:
        writer.extend(chunks)
        return writer.close()


def record_benchmark(
    name: str,
    path: Path | str,
    *,
    scale: float = 1.0,
    chunk_instructions: int = DEFAULT_CHUNK_INSTRUCTIONS,
) -> TraceInfo:
    """Record a synthetic benchmark workload to disk.

    The provenance (benchmark name + scale) is stored in the header, so
    the workload registry can give the recorded trace the *same content
    address* as the synthetic workload it captures — simulating the
    recorded file hits the same cache entries and coalesces with inline
    submissions of the original benchmark.
    """

    from ..workloads.benchmarks import make_benchmark

    workload = make_benchmark(name, scale=scale)
    return record_chunks(
        workload.chunks(),
        path,
        chunk_instructions=chunk_instructions,
        provenance={"benchmark": workload.name, "scale": float(scale)},
    )
