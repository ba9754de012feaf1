"""Leakage analysis as a service: a persistent daemon over the engine.

Everything before this package was batch: one process, one run, exit.
This package turns the substrate into a *served* system —
``repro-leakage serve`` starts a long-lived daemon owning one
:class:`~repro.engine.ExecutionEngine` (and with it the
content-addressed store, framed workers and validation gate),
and any number of clients submit jobs and sweeps over HTTP:

* :mod:`~repro.service.protocol` — the wire format: job specs, the
  deterministic-vs-execution payload split, the one stable-bytes JSON
  serializer shared with the CLI's ``--json`` outputs.
* :mod:`~repro.service.admission` — bounded admission with 429 +
  ``Retry-After`` and stride-scheduled (weighted-fair) per-client
  dispatch.
* :mod:`~repro.service.coalesce` — request coalescing: one computation
  per in-flight content address, however many clients ask.
* :mod:`~repro.service.tickets` — durable per-request state machines;
  drain journals them, restart resumes them, ``gc`` prunes them.
* :mod:`~repro.service.coordinate` — crash-consistent multi-daemon
  coordination: O_EXCL lease files with fencing tokens and heartbeat
  mtimes, deterministic stale-lease reclamation, and a guarded publish
  that makes double-publication structurally impossible.
* :mod:`~repro.service.server` — the asyncio daemon: HTTP/1.1 + SSE,
  bounded concurrent scheduling, graceful drain, the manifest-v7
  Service/Coordination profiles.
* :mod:`~repro.service.client` — the blocking client library behind
  ``repro-leakage submit``, with capped-exponential-backoff retry and
  peer-URL failover.

Quickstart::

    # terminal 1
    $ repro-leakage serve --port 8330

    # terminal 2
    $ repro-leakage submit jobs gzip ammp --scale 0.05 --url http://127.0.0.1:8330
"""

from .admission import STRIDE_SCALE, AdmissionFull, AdmissionQueue, WorkItem
from .client import ServiceClient, ServiceError, ServiceRejected
from .coalesce import CoalesceRegistry
from .coordinate import (
    COORDINATION_SUBDIR,
    DEFAULT_LEASE_TTL,
    CoordinationError,
    CoordinationLog,
    FencingCounter,
    Lease,
    LeaseManager,
    LeasedStore,
)
from .protocol import (
    CLIENT_HEADER,
    DEFAULT_CLIENT,
    PROTOCOL_VERSION,
    TICKET_STATES,
    ProtocolError,
    cache_info_payload,
    dumps_stable,
    sweep_status_payload,
)
from .server import (
    DEFAULT_PORT,
    SERVICE_SUBDIR,
    ServiceConfig,
    ServiceDaemon,
    ServiceThread,
)
from .tickets import (
    KIND_JOB,
    KIND_SWEEP,
    RESUMABLE_STATES,
    TERMINAL_STATES,
    Ticket,
    TicketError,
    TicketRegistry,
)

__all__ = [
    "AdmissionFull",
    "AdmissionQueue",
    "CLIENT_HEADER",
    "COORDINATION_SUBDIR",
    "CoalesceRegistry",
    "CoordinationError",
    "CoordinationLog",
    "DEFAULT_CLIENT",
    "DEFAULT_LEASE_TTL",
    "DEFAULT_PORT",
    "FencingCounter",
    "KIND_JOB",
    "KIND_SWEEP",
    "Lease",
    "LeaseManager",
    "LeasedStore",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RESUMABLE_STATES",
    "SERVICE_SUBDIR",
    "STRIDE_SCALE",
    "ServiceClient",
    "ServiceConfig",
    "ServiceDaemon",
    "ServiceError",
    "ServiceRejected",
    "ServiceThread",
    "TERMINAL_STATES",
    "TICKET_STATES",
    "Ticket",
    "TicketError",
    "TicketRegistry",
    "WorkItem",
    "cache_info_payload",
    "dumps_stable",
    "sweep_status_payload",
]
