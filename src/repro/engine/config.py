"""Engine settings read from the command line or the environment.

Every run resolves its worker count, backend, trace transport and fault
plan when its :class:`~repro.engine.parallel.ExecutionEngine` is built,
so a bad
``REPRO_*`` value fails before any simulation starts.  The modules that
act on these settings — the worker backend, the trace arenas, the fault
harness — load only when a run engages them.
"""

from __future__ import annotations

import os
from typing import Optional

from ..errors import EngineError

#: Environment variable supplying the default worker count.
ENV_JOBS = "REPRO_JOBS"

#: Environment variable selecting the backend.
ENV_BACKEND = "REPRO_BACKEND"

#: Valid ``--backend`` / ``REPRO_BACKEND`` values.
BACKEND_NAMES = ("pool", "subprocess")

#: Environment variable selecting the trace transport mode.
ENV_TRANSPORT = "REPRO_TRANSPORT"

#: Valid ``REPRO_TRANSPORT`` values.  ``auto`` resolves to ``pickle``:
#: workers stream the trace file, and nothing is published.
TRANSPORT_MODES = ("auto", "pickle", "shm", "disk")

#: Environment variable carrying the fault plan (inherited by workers).
ENV_FAULTS = "REPRO_FAULTS"


def resolve_worker_count(value: Optional[int] = None) -> int:
    """Worker count from the argument, ``REPRO_JOBS``, or the CPU count.

    ``REPRO_JOBS`` is validated like the other engine environment knobs:
    a non-integer or non-positive value raises a clear
    :class:`~repro.errors.EngineError` naming the variable.
    """
    if value is None:
        raw = os.environ.get(ENV_JOBS)
        if raw:
            try:
                value = int(raw)
            except ValueError:
                raise EngineError(
                    f"{ENV_JOBS} must be an integer, got {raw!r}"
                ) from None
            if value < 1:
                raise EngineError(f"{ENV_JOBS} must be at least 1, got {value!r}")
    if value is None:
        value = os.cpu_count() or 1
    value = int(value)
    if value < 1:
        raise EngineError(f"worker count must be at least 1, got {value!r}")
    return value


def resolve_backend_name(value: Optional[str] = None) -> str:
    """Backend name from the argument, ``REPRO_BACKEND``, or ``pool``."""
    if value is None:
        value = os.environ.get(ENV_BACKEND) or None
    if value is None:
        return "pool"
    name = str(value).strip().lower()
    if name not in BACKEND_NAMES:
        raise EngineError(
            f"{ENV_BACKEND} / --backend must be one of "
            f"{', '.join(BACKEND_NAMES)}, got {value!r}"
        )
    return name


def resolve_transport_mode(value: Optional[str] = None) -> str:
    """Resolve a transport selector to ``pickle``/``shm``/``disk``."""
    if value is None:
        value = os.environ.get(ENV_TRANSPORT, "").strip() or "auto"
    mode = str(value).strip().lower()
    if mode not in TRANSPORT_MODES:
        raise EngineError(
            f"unknown trace transport {value!r}; choose one of "
            f"{list(TRANSPORT_MODES)} (also settable via {ENV_TRANSPORT})"
        )
    return "pickle" if mode == "auto" else mode
