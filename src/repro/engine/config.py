"""Engine settings read from the command line or the environment.

Every run resolves its worker count, backend and trace transport when
its :class:`~repro.engine.parallel.ExecutionEngine` is built, so a bad
value fails before any simulation starts.  The worker count and backend
come from ``--jobs`` and ``--backend`` only; the trace transport also
reads ``REPRO_TRANSPORT``.  The modules that act on these settings —
the workers and the trace arenas — load only when a run engages them.
"""

from __future__ import annotations

import os
from typing import Optional

from ..errors import EngineError

#: Valid ``--backend`` values.
BACKEND_NAMES = ("pool", "subprocess")

#: Environment variable selecting the trace transport mode.
ENV_TRANSPORT = "REPRO_TRANSPORT"

#: Valid ``REPRO_TRANSPORT`` values.  ``auto`` resolves to ``pickle``:
#: workers stream the trace file, and nothing is published.
TRANSPORT_MODES = ("auto", "pickle", "shm", "disk")


def resolve_worker_count(value: Optional[int] = None) -> int:
    """Worker count from the argument, else the CPU count."""
    if value is None:
        value = os.cpu_count() or 1
    value = int(value)
    if value < 1:
        raise EngineError(f"worker count must be at least 1, got {value!r}")
    return value


def resolve_backend_name(value: Optional[str] = None) -> str:
    """Backend name from the argument, else ``pool``."""
    if value is None:
        return "pool"
    name = str(value).strip().lower()
    if name not in BACKEND_NAMES:
        raise EngineError(
            "--backend must be one of "
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
