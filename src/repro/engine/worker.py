"""The framed worker loop: ``python -m repro.engine.worker``.

Every worker of the framed-worker backend (:mod:`~repro.engine.backends`)
is a local child process running this loop, and talks to the controller
over its stdin/stdout using a tiny length-prefixed frame protocol::

    frame   := length(4 bytes, big-endian) || pickle((kind, payload))
    to worker   : ("job", (SimulationJob, attempt)) | ("exit", None)
    from worker : ("ready", {"pid": ...})
                | ("heartbeat", monotonic_seconds)
                | ("result", {"key", "wall", "payload"})
                | ("error", {"kind", "message"})

A daemon thread emits a heartbeat frame every ``--heartbeat`` seconds,
so the controller can tell a worker that is busy simulating (beating,
no result yet) from one that is hung or dead (silent) — and kill
exactly that process.

The worker re-executes ``REPRO_FAULTS`` from its inherited environment:
``hang`` silences the heartbeat thread before stalling (so the watchdog
sees a real hang), ``flap``/``crash`` exit hard, ``raise`` turns into an
error frame, and ``garbage`` mangles the result so the engine-side
validation gate can catch it.

On startup the worker duplicates its stdout file descriptor for the
frame stream and re-points fd 1 at stderr, so stray ``print`` calls
anywhere in the simulation stack cannot corrupt the protocol.  After an
``exit`` frame the loop returns normally, so ``atexit`` hooks still run.
"""

from __future__ import annotations

import argparse
import os
import pickle
import struct
import sys
import threading
import time
from typing import Any, Optional, Tuple

#: Default heartbeat interval, seconds (overridable via --heartbeat).
DEFAULT_HEARTBEAT_SECONDS = 0.5

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


def main(argv=None) -> int:
    """Worker loop: read job frames, simulate, write result frames."""
    parser = argparse.ArgumentParser(prog="repro.engine.worker")
    parser.add_argument(
        "--heartbeat",
        type=float,
        default=DEFAULT_HEARTBEAT_SECONDS,
        help="seconds between heartbeat frames (0 disables them)",
    )
    options = parser.parse_args(argv)

    # Claim the protocol channel, then shield it from stray prints.
    protocol_out = os.fdopen(os.dup(sys.stdout.fileno()), "wb")
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())
    protocol_in = sys.stdin.buffer

    write_lock = threading.Lock()

    def emit(kind: str, payload: Any = None) -> None:
        try:
            with write_lock:
                write_frame(protocol_out, kind, payload)
        except (OSError, ValueError):
            # The controller went away; there is nobody left to serve.
            os._exit(0)

    silenced = threading.Event()
    if options.heartbeat > 0:

        def beat() -> None:
            while True:
                time.sleep(options.heartbeat)
                if not silenced.is_set():
                    emit("heartbeat", time.monotonic())

        threading.Thread(target=beat, name="heartbeat", daemon=True).start()

    emit("ready", {"pid": os.getpid()})

    from .faults import active_plan
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
        job, attempt = payload
        plan = active_plan()
        try:
            if plan is not None:
                if plan.matches_hang(job, attempt):
                    # A genuinely hung worker stops beating: silence the
                    # heartbeat *before* stalling so the watchdog fires.
                    silenced.set()
                plan.inject_worker(job, attempt)
            start = time.perf_counter()
            annotated = execute_job(job)
            wall = time.perf_counter() - start
            if plan is not None:
                annotated = plan.mangle_result(job, attempt, annotated)
            emit(
                "result",
                {"key": job.key(), "wall": wall, "payload": annotated},
            )
        except Exception as error:  # noqa: BLE001 — forwarded, not swallowed
            emit(
                "error",
                {"kind": type(error).__name__, "message": str(error)},
            )
        finally:
            silenced.clear()  # hangs silence one job, not the worker
    return 0


if __name__ == "__main__":  # pragma: no cover — exercised over pipes
    raise SystemExit(main())
