"""The framed worker loop: ``python -m repro.engine.worker``.

Every worker of the framed-worker backend (:mod:`~repro.engine.backends`)
is a local child process running this loop, and talks to the controller
over its stdin/stdout using a tiny length-prefixed frame protocol::

    frame   := length(4 bytes, big-endian) || pickle((kind, payload))
    to worker   : ("job", SimulationJob) | ("exit", None)
    from worker : ("ready", {"pid": ...})
                | ("result", {"wall", "payload"})
                | ("error", {"kind", "message"})

A job goes to a worker at most once.  An exception in the job turns
into an error frame; the engine-side validation gate checks every
result frame before anything is cached.

On startup the worker duplicates its stdout file descriptor for the
frame stream and re-points fd 1 at stderr, so stray ``print`` calls
anywhere in the simulation stack cannot corrupt the protocol.  After an
``exit`` frame the loop returns normally, so ``atexit`` hooks still run.
"""

from __future__ import annotations

import os
import pickle
import struct
import sys
import time
from typing import Any, Optional, Tuple

_LENGTH = struct.Struct(">I")


def write_frame(stream, kind: str, payload: Any = None) -> None:
    """Write one length-prefixed pickled frame and flush it."""
    blob = pickle.dumps((kind, payload), protocol=pickle.HIGHEST_PROTOCOL)
    stream.write(_LENGTH.pack(len(blob)) + blob)
    stream.flush()


def read_frame(stream) -> Optional[Tuple[str, Any]]:
    """Read one frame; ``None`` on EOF, a torn frame, or undecodable bytes."""
    try:
        header = stream.read(_LENGTH.size)
        if header is None or len(header) < _LENGTH.size:
            return None
        (length,) = _LENGTH.unpack(header)
        blob = stream.read(length)
        if blob is None or len(blob) < length:
            return None
        return pickle.loads(blob)
    except (OSError, ValueError, EOFError, pickle.UnpicklingError):
        return None


def main() -> int:
    """Worker loop: read job frames, simulate, write result frames."""
    # Claim the protocol channel, then shield it from stray prints.
    protocol_out = os.fdopen(os.dup(sys.stdout.fileno()), "wb")
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())
    protocol_in = sys.stdin.buffer

    def emit(kind: str, payload: Any = None) -> None:
        try:
            write_frame(protocol_out, kind, payload)
        except (OSError, ValueError):
            # The controller went away; there is nobody left to serve.
            os._exit(0)

    emit("ready", {"pid": os.getpid()})

    from .jobs import execute_job

    while True:
        frame = read_frame(protocol_in)
        if frame is None:
            break
        kind, payload = frame
        if kind == "exit":
            break
        if kind != "job":
            continue
        try:
            start = time.perf_counter()
            annotated = execute_job(payload)
            wall = time.perf_counter() - start
            emit("result", {"wall": wall, "payload": annotated})
        except Exception as error:  # noqa: BLE001 — forwarded, not swallowed
            emit(
                "error",
                {"kind": type(error).__name__, "message": str(error)},
            )
    return 0


if __name__ == "__main__":  # pragma: no cover — exercised over pipes
    raise SystemExit(main())
