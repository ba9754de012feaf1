"""The framed-worker backend: every worker belongs to a host.

:class:`WorkerBackend` ships :class:`~repro.engine.jobs.SimulationJob`\\ s
to worker processes speaking the length-framed pipe protocol of
:mod:`~repro.engine.worker` and returns a :class:`PoolReport` —
completions, leftovers, retries, infrastructure failures.  Jobs it
cannot finish fall to the engine's in-process serial executor
(:mod:`~repro.engine.parallel`), so the degradation ladder is always
*workers → serial* (:func:`ladder`).  ``--backend`` only decides where
the hosts come from and when the workers engage:

``pool`` (the default)
    ``--jobs`` local ``exec`` hosts, engaged only when ``--jobs > 1``
    and more than one job is pending — otherwise the run stays
    in-process and no worker is started.
``subprocess``
    the same local hosts, always engaged: even one job ships to a worker.
``remote``
    the ``--hosts`` / ``REPRO_HOSTS`` list: ``ssh`` peers, or loopback
    ``exec`` hosts that CI uses to drive every remote path with no SSH.
``serial``
    no workers at all.

Two transports start a worker:

``exec[:<label>]``
    a local child process running :func:`repro.engine.worker.main`.
``ssh:<[user@]host>[:<dir>]``
    an ``ssh`` child process running ``python3 -m repro.engine.worker``
    in ``<dir>`` (with ``PYTHONPATH=src``) on the peer.

Every host is its own *fault domain*:

* **heartbeats** feed a watchdog — a host silent for ``watchdog``
  seconds (``REPRO_WATCHDOG``, default ``max(8 × heartbeat, 4 s)``) is
  declared hung, its worker killed and its job requeued;
* a **per-dispatch deadline** (``REPRO_JOB_TIMEOUT``) kills a worker
  that runs over and retries the job, without blaming the host;
* a per-host :class:`~repro.engine.supervise.CircuitBreaker` gates
  dispatch.  Its clock is the host's *dispatch-opportunity counter*,
  not wall time, so probe scheduling is deterministic: an open breaker
  skips a fixed number of opportunities, then half-opens and probes;
* a per-host :class:`~repro.engine.supervise.FlapCounter` rests a host
  whose workers keep dying; the count decays over quiet periods;
* connects are deadline-bounded (``REPRO_REMOTE_CONNECT_TIMEOUT``);
* re-dispatch is **idempotent by content address**: jobs are keyed by
  :meth:`SimulationJob.key`, late results from a killed worker are
  dropped once a completion is recorded, and cache publication happens
  exactly once, controller-side, through the store's atomic writes.

``.rtr`` traces a worker lacks are fetched *by content digest*: the
controller answers ``trace-fetch``/``trace-need`` frames here and the
worker verifies what it receives (:mod:`repro.traces.fetch`).

Network fault classes from ``REPRO_FAULTS`` (``conn-refused``,
``conn-drop``, ``stall``, ``garble``, ``partition``) are injected at
this framing layer, keyed by per-host connect/dispatch ordinals, so
every fault domain is testable deterministically without real hosts.

Every worker runs the same deterministic
:func:`~repro.engine.jobs.execute_job`, so results are bit-identical
whichever host — or the serial rung — produced them.
"""

from __future__ import annotations

import heapq
import os
import queue
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import EngineError
from .faults import active_plan
from .jobs import SOURCE_PARALLEL, SOURCE_REMOTE, SOURCE_SUBPROCESS, SimulationJob
from .retry import RetryPolicy, _env_float
from .supervise import CircuitBreaker, FlapCounter, default_breaker_threshold
from .worker import DEFAULT_HEARTBEAT_SECONDS, read_frame, write_frame

#: Environment variable selecting the backend.
ENV_BACKEND = "REPRO_BACKEND"

#: Environment variable: worker heartbeat interval (seconds; 0 disables
#: heartbeats and with them hang detection).
ENV_HEARTBEAT = "REPRO_HEARTBEAT"

#: Environment variable: watchdog patience in seconds — how long a host
#: may stay silent before it is declared hung.  0 or unset keeps the
#: default of ``max(8 × heartbeat, 4 s)``.
ENV_WATCHDOG = "REPRO_WATCHDOG"

#: Environment variable: per-job timeout, seconds — the deadline of one
#: worker dispatch (unset: no limit).
ENV_JOB_TIMEOUT = "REPRO_JOB_TIMEOUT"

#: Environment variable: comma-separated remote host specs.
ENV_HOSTS = "REPRO_HOSTS"

#: Environment variable: seconds to wait for a host's ``ready`` frame.
ENV_REMOTE_CONNECT_TIMEOUT = "REPRO_REMOTE_CONNECT_TIMEOUT"

#: Valid ``--backend`` / ``REPRO_BACKEND`` values.
BACKEND_NAMES = ("remote", "pool", "subprocess", "serial")

#: ``JobOutcome.source`` of a job a worker completed, per backend.
_SOURCES = {
    "pool": SOURCE_PARALLEL,
    "subprocess": SOURCE_SUBPROCESS,
    "remote": SOURCE_REMOTE,
}

#: Default connect timeout, seconds.
DEFAULT_CONNECT_TIMEOUT = 10.0

#: Dispatch opportunities an open host breaker skips before half-open.
#: Counted, not timed: probe scheduling is deterministic in dispatch
#: order.
PROBE_OPPORTUNITIES = 4

#: Decayed flap count at which a host is rested (it returns once the
#: FlapCounter decays back under the limit).
FLAP_QUARANTINE = 3

#: Seconds of flap-free quiet after which a host's flap count halves.
DEFAULT_FLAP_DECAY_SECONDS = 30.0

#: Grace period for a worker to exit after the "exit" frame.
_EXIT_GRACE_SECONDS = 0.5

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


def ladder(name: Optional[str] = None) -> List[str]:
    """The rungs a run on backend ``name`` can use, in descent order.

    Every worker backend has exactly one rung below it — the in-process
    serial executor — and ``serial`` is that rung alone.
    """
    name = resolve_backend_name(name)
    return ["serial"] if name == "serial" else [name, "serial"]


def default_heartbeat_interval() -> float:
    """Heartbeat interval from ``REPRO_HEARTBEAT`` (default 0.5 s)."""
    value = _env_float(ENV_HEARTBEAT, minimum=0.0)
    return DEFAULT_HEARTBEAT_SECONDS if value is None else value


def default_watchdog() -> Optional[float]:
    """Watchdog patience from ``REPRO_WATCHDOG``; ``None`` when unset."""
    value = _env_float(ENV_WATCHDOG, minimum=0.0)
    return None if not value else value


def default_connect_timeout() -> float:
    """Connect timeout from ``REPRO_REMOTE_CONNECT_TIMEOUT`` (default 10 s)."""
    value = _env_float(ENV_REMOTE_CONNECT_TIMEOUT, minimum=0.0)
    return DEFAULT_CONNECT_TIMEOUT if value is None else value


def default_job_timeout() -> Optional[float]:
    """Per-job timeout from ``REPRO_JOB_TIMEOUT``, or ``None`` (no limit)."""
    value = _env_float(ENV_JOB_TIMEOUT, minimum=0.0)
    if value == 0:
        raise EngineError(f"{ENV_JOB_TIMEOUT} must be positive, got {value!r}")
    return value


@dataclass(frozen=True)
class HostSpec:
    """One worker host: transport, label, and how to reach it."""

    transport: str  #: ``"exec"`` (local child process) or ``"ssh"``.
    name: str  #: Label used by breakers, telemetry and fault specs.
    address: str = ""  #: ssh target (``user@host``), empty for exec.
    directory: str = ""  #: Remote checkout directory, empty = preinstalled.

    def describe(self) -> str:
        if self.transport == "exec":
            return f"exec:{self.name}"
        base = f"ssh:{self.address}"
        return f"{base}:{self.directory}" if self.directory else base


def parse_hosts(value: Optional[str] = None) -> List[HostSpec]:
    """Parse ``--hosts`` / ``REPRO_HOSTS`` into :class:`HostSpec` list.

    Grammar, comma-separated::

        host := "exec" [":" label]          (loopback local host)
              | ["ssh:"] [user "@"] name [":" dir]   (real SSH host)

    Bare ``exec`` entries are labelled ``exec0``, ``exec1``, ... by
    position.  Labels must be unique — they key breakers, fault specs
    and the manifest's ``workers`` section.
    """
    if value is None:
        value = os.environ.get(ENV_HOSTS, "")
    specs: List[HostSpec] = []
    for token in (t.strip() for t in str(value).split(",")):
        if not token:
            continue
        if token == "exec" or token.startswith("exec:"):
            label = token[5:] if token.startswith("exec:") else ""
            if token.startswith("exec:") and not label:
                raise EngineError(
                    f"host spec {token!r}: 'exec:' needs a label "
                    "(or use bare 'exec')"
                )
            specs.append(
                HostSpec("exec", label or f"exec{len(specs)}")
            )
            continue
        body = token[4:] if token.startswith("ssh:") else token
        address, _, directory = body.partition(":")
        if not address:
            raise EngineError(
                f"host spec {token!r}: expected 'exec[:label]' or "
                "'[ssh:][user@]host[:dir]'"
            )
        name = address.rpartition("@")[2]
        specs.append(HostSpec("ssh", name, address, directory))
    names = [spec.name for spec in specs]
    for name in names:
        if names.count(name) > 1:
            raise EngineError(
                f"duplicate remote host label {name!r}; labels key "
                "per-host breakers and fault specs and must be unique"
            )
    return specs


def local_hosts(count: int) -> List[HostSpec]:
    """``count`` local ``exec`` hosts (``local0``, ``local1``, ...)."""
    return [HostSpec("exec", f"local{index}") for index in range(count)]


def _spawn_command(spec: HostSpec, heartbeat: float) -> Tuple[List[str], Dict]:
    """The argv + environment that starts this host's worker loop."""
    if spec.transport == "exec":
        # -c instead of -m: importing the package already loads
        # repro.engine.worker, and runpy would warn re-executing it.
        command = [
            sys.executable,
            "-u",
            "-c",
            "import sys; from repro.engine.worker import main; "
            "sys.exit(main(sys.argv[1:]))",
            "--heartbeat",
            str(heartbeat),
        ]
        env = dict(os.environ)
        package_root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            package_root
            if not existing
            else package_root + os.pathsep + existing
        )
        return command, env
    remote = f"python3 -m repro.engine.worker --heartbeat {heartbeat}"
    if spec.directory:
        remote = f"cd {spec.directory} && PYTHONPATH=src {remote}"
    return (
        ["ssh", "-o", "BatchMode=yes", spec.address, remote],
        dict(os.environ),
    )


@dataclass
class PoolReport:
    """Everything one :meth:`WorkerBackend.run` call did and left behind.

    ``completed[job]`` is an ``(annotated_result, worker_wall_seconds)``
    pair; ``leftovers`` are the jobs the serial executor must run —
    those whose retries ran out and those no usable host remained for;
    ``attempts`` is the highest attempt dispatched per job, so the
    serial rung continues the numbering; ``retries`` are structured
    records for telemetry and ``notes`` the matching human-readable
    messages; ``infra_failures`` describes infrastructure breakdowns —
    worker deaths, refused connects, lost heartbeats — as opposed to
    per-job errors.
    """

    completed: Dict[SimulationJob, Tuple[object, float]] = field(
        default_factory=dict
    )
    leftovers: List[SimulationJob] = field(default_factory=list)
    attempts: Dict[SimulationJob, int] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    retries: List[Dict] = field(default_factory=list)
    infra_failures: List[str] = field(default_factory=list)


class _Connection:
    """One live worker: process, pipes, reader thread."""

    def __init__(
        self, spec: HostSpec, heartbeat: float, inbox: "queue.Queue"
    ) -> None:
        self.spec = spec
        command, env = _spawn_command(spec, heartbeat)
        self.proc = subprocess.Popen(  # noqa: S603 — our own worker cmd
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
        )
        self.started = time.monotonic()
        #: ``(job, attempt, dispatched_at)`` while busy, else ``None``.
        self.current: Optional[Tuple[SimulationJob, int, float]] = None
        self.last_seen = self.started
        self.dead = False
        #: Injected ``stall``: the reader drops every further frame, so
        #: the host looks alive but silent — exactly what a stalled
        #: network path looks like to the watchdog.
        self.stalled = False
        #: Set by the ``ready`` frame — or by EOF, so a worker that dies
        #: during start-up does not hold its connect for the full timeout.
        self.ready = threading.Event()
        self.eof = False
        reader = threading.Thread(
            target=self._read_loop,
            args=(inbox,),
            name=f"worker-reader-{spec.name}",
            daemon=True,
        )
        reader.start()

    def _read_loop(self, inbox: "queue.Queue") -> None:
        while True:
            frame = read_frame(self.proc.stdout)
            if frame is None:
                self.eof = True
                self.ready.set()
                if not self.stalled:
                    inbox.put((self, "eof", None))
                return
            if self.stalled:
                continue  # partitioned reader: frames never arrive
            self.last_seen = time.monotonic()
            if frame[0] == "ready":
                self.ready.set()
            inbox.put((self, frame[0], frame[1]))

    def await_ready(self, timeout: float) -> bool:
        """Whether the worker said ``ready`` within ``timeout`` of start."""
        remaining = self.started + timeout - time.monotonic()
        return self.ready.wait(max(0.0, remaining)) and not self.eof

    def send(self, kind: str, payload=None) -> bool:
        try:
            write_frame(self.proc.stdin, kind, payload)
        except (OSError, ValueError):
            return False
        return True

    def send_garbage(self) -> None:
        """Write deliberately undecodable bytes (injected ``garble``)."""
        try:
            self.proc.stdin.write(b"\x00\x00\x00\x08notpickle")
            self.proc.stdin.flush()
        except (OSError, ValueError):
            pass

    def kill(self) -> None:
        self.dead = True
        self.current = None
        try:
            self.proc.kill()
        except OSError:
            pass

    def close(self) -> None:
        self.dead = True
        if self.proc.poll() is None:
            try:
                write_frame(self.proc.stdin, "exit")
                self.proc.stdin.close()
            except (OSError, ValueError):
                pass
            try:
                self.proc.wait(timeout=_EXIT_GRACE_SECONDS)
            except subprocess.TimeoutExpired:
                self.kill()
        try:
            self.proc.wait(timeout=2.0)
        except subprocess.TimeoutExpired:  # pragma: no cover — kernel lag
            pass


class _HostState:
    """Everything the backend tracks about one host, across runs."""

    def __init__(
        self,
        spec: HostSpec,
        threshold: int,
        flap_decay: float,
    ) -> None:
        self.spec = spec
        self.conn: Optional[_Connection] = None
        #: Deterministic breaker clock: dispatch opportunities seen.
        self.opportunities = 0
        self.connects = 0  #: connect ordinal (1-based in fault specs).
        self.dispatches = 0  #: dispatch ordinal (1-based in fault specs).
        self.partitioned = False
        self.transitions: List[Dict] = []
        self.hangs: List[Dict] = []
        self.breaker = CircuitBreaker(
            f"host:{spec.name}",
            threshold,
            float(PROBE_OPPORTUNITIES),
            self.transitions,
            clock=lambda: float(self.opportunities),
        )
        self.flaps = FlapCounter(flap_decay)
        self.rested_noted = False
        self.stats: Dict[str, int] = {
            "dispatches": 0,
            "completions": 0,
            "requeues": 0,
            "connects": 0,
            "connect_failures": 0,
            "flaps": 0,
            "trace_fetches": 0,
            "trace_bytes_sent": 0,
        }

    def usable(self) -> bool:
        """Whether this host may still take work in the current run."""
        return (
            not self.partitioned
            and self.flaps.value() < FLAP_QUARANTINE
            and self.breaker.allow()
        )

    def snapshot(self) -> Dict:
        """Cumulative counters, hang events and breaker history."""
        return {
            **self.stats,
            "hangs": [dict(h) for h in self.hangs],
            "breaker_state": self.breaker.state,
            "breaker_transitions": [dict(t) for t in self.transitions],
            "partitioned": self.partitioned,
        }


class WorkerBackend:
    """Jobs on framed workers, one fault domain per host.

    Host state (breakers, flap counters, partition flags, counters)
    persists across ``run`` calls: a host that proved sick stays benched
    between dispatches of one engine.
    """

    def __init__(
        self,
        name: str,
        hosts: Sequence[HostSpec],
        timeout: Optional[float] = None,
        heartbeat: Optional[float] = None,
        watchdog: Optional[float] = None,
        connect_timeout: Optional[float] = None,
        threshold: Optional[int] = None,
        flap_decay: float = DEFAULT_FLAP_DECAY_SECONDS,
    ) -> None:
        if not hosts:
            raise EngineError(
                f"the {name} backend needs at least one host "
                f"(--hosts / {ENV_HOSTS})"
            )
        self.name = name
        self.source = _SOURCES[name]
        self.heartbeat = (
            heartbeat if heartbeat is not None else default_heartbeat_interval()
        )
        if watchdog is not None:
            self.hang_after: Optional[float] = watchdog
        elif self.heartbeat > 0:
            self.hang_after = max(8.0 * self.heartbeat, 4.0)
        else:
            self.hang_after = None  # no beats, no hang detection
        self.connect_timeout = (
            connect_timeout
            if connect_timeout is not None
            else default_connect_timeout()
        )
        self.deadline = timeout
        threshold = (
            threshold if threshold is not None else default_breaker_threshold()
        )
        self._hosts: Dict[str, _HostState] = {
            spec.name: _HostState(spec, threshold, flap_decay)
            for spec in hosts
        }

    def worth_starting(self, pending: int) -> bool:
        """Whether workers should run ``pending`` jobs at all.

        ``pool`` keeps a run in-process unless it has more than one
        local worker and more than one job; every backend needs a host
        that is not partitioned.
        """
        if self.name == "pool" and (len(self._hosts) < 2 or pending < 2):
            return False
        return any(not state.partitioned for state in self._hosts.values())

    def snapshot(self) -> Dict[str, Dict]:
        """Per-host counters for the manifest's ``workers`` section."""
        return {
            name: state.snapshot() for name, state in self._hosts.items()
        }

    # ------------------------------------------------------------------
    # Dispatch loop
    # ------------------------------------------------------------------
    def run(
        self, jobs: Sequence[SimulationJob], policy: RetryPolicy
    ) -> PoolReport:
        """Run ``jobs`` on the hosts; unfinished ones come back as leftovers."""
        report = PoolReport()
        plan = active_plan()
        by_key = {job.key(): job for job in jobs}
        inbox: "queue.Queue" = queue.Queue()
        ready: deque = deque((job, 1) for job in jobs)
        delayed: List[Tuple[float, int, SimulationJob, int]] = []
        sequence = 0
        connections: List[_Connection] = []
        # Bounds re-dispatches: a flapping fleet cannot spin forever.
        dispatch_budget = policy.max_attempts * len(jobs) + len(self._hosts)
        hosts = list(self._hosts.values())

        def requeue(job, attempt, reason, what) -> None:
            nonlocal sequence
            if policy.retries_left(attempt):
                delay = policy.delay_before(attempt + 1)
                sequence += 1
                heapq.heappush(
                    delayed,
                    (time.monotonic() + delay, sequence, job, attempt + 1),
                )
                report.retries.append(
                    {
                        "job": job.describe(),
                        "key": job.key(),
                        "failed_attempt": attempt,
                        "next_attempt": attempt + 1,
                        "reason": reason,
                        "backoff_seconds": delay,
                        "where": self.name,
                    }
                )
                report.notes.append(
                    f"job {job.describe()} {what}; retrying "
                    f"(attempt {attempt + 1}/{policy.max_attempts}) "
                    f"in {delay:g}s"
                )
            else:
                report.notes.append(
                    f"job {job.describe()} {what}; retries exhausted after "
                    f"{attempt} attempt(s), finishing serially"
                )

        def infra(state: _HostState, message: str) -> None:
            report.infra_failures.append(message)
            state.breaker.record([message])

        def sever(
            conn: _Connection, state: _HostState, reason: str, what: str
        ) -> None:
            """Kill a connection, requeue its in-flight job, count a flap."""
            current = conn.current
            conn.kill()
            state.conn = None
            state.stats["flaps"] += 1
            state.flaps.record()
            if current is not None:
                job, attempt, _ = current
                state.stats["requeues"] += 1
                infra(
                    state,
                    f"host {state.spec.name} {reason} "
                    f"running {job.describe()}",
                )
                report.notes.append(
                    f"host {state.spec.name} {reason} running "
                    f"{job.describe()}; requeuing"
                )
                requeue(job, attempt, f"host {reason}", what)
            else:
                infra(state, f"host {state.spec.name} {reason}")

        def connect(state: _HostState) -> bool:
            """Start one worker on a host (injected refusals included)."""
            state.connects += 1
            state.stats["connects"] += 1
            ordinal = state.connects
            name = state.spec.name
            if plan is not None:
                fault = plan.network_spec(name, "connect", ordinal)
                if fault is not None and fault.kind == "conn-refused":
                    plan.record_network(fault, name, ordinal)
                    state.stats["connect_failures"] += 1
                    infra(state, f"connect #{ordinal} to host {name} refused")
                    report.notes.append(
                        f"connect #{ordinal} to host {name} refused"
                    )
                    return False
            try:
                state.conn = _Connection(state.spec, self.heartbeat, inbox)
            except (OSError, ValueError) as error:
                state.stats["connect_failures"] += 1
                infra(state, f"host {name} failed to start a worker ({error})")
                report.notes.append(
                    f"host {name} failed to start a worker ({error})"
                )
                return False
            connections.append(state.conn)
            return True

        def await_ready(state: _HostState) -> bool:
            """Wait out a fresh worker's ``ready`` frame (deadline-bounded)."""
            if state.conn.await_ready(self.connect_timeout):
                return True
            state.conn.kill()
            state.conn = None
            state.stats["connect_failures"] += 1
            infra(
                state,
                f"host {state.spec.name} sent no ready frame within "
                f"{self.connect_timeout:g}s",
            )
            return False

        def busy_conns() -> List[_Connection]:
            return [
                state.conn
                for state in hosts
                if state.conn is not None
                and not state.conn.dead
                and state.conn.current is not None
            ]

        def dispatch_one(state: _HostState, job, attempt) -> None:
            """Send one job to one host, injecting dispatch faults."""
            nonlocal dispatch_budget
            dispatch_budget -= 1
            conn = state.conn
            state.dispatches += 1
            state.stats["dispatches"] += 1
            ordinal = state.dispatches
            fault = (
                plan.network_spec(state.spec.name, "dispatch", ordinal)
                if plan is not None
                else None
            )
            if fault is not None:
                plan.record_network(fault, state.spec.name, ordinal)
            conn.current = (job, attempt, time.monotonic())
            conn.last_seen = time.monotonic()
            if fault is not None and fault.kind == "garble":
                # The job frame is corrupted on the wire: the worker's
                # reader sees undecodable bytes and gives up.
                conn.send_garbage()
            elif not conn.send("job", (job, attempt)) and fault is None:
                # The pipe is gone: put the job back (its attempt never
                # ran) and let the host reconnect on a later pass.
                conn.kill()
                state.conn = None
                infra(
                    state,
                    f"host {state.spec.name} pipe closed before "
                    f"{job.describe()} could be dispatched",
                )
                ready.appendleft((job, attempt))
                return
            report.attempts[job] = max(attempt, report.attempts.get(job, 0))
            if fault is None:
                return
            if fault.kind in ("conn-drop", "partition"):
                if fault.kind == "partition":
                    state.partitioned = True
                    report.notes.append(
                        f"host {state.spec.name} partitioned "
                        "(injected); it will not return this run"
                    )
                conn.stalled = True  # frames in flight are lost too
                sever(
                    conn,
                    state,
                    "connection dropped (injected)"
                    if fault.kind == "conn-drop"
                    else "partitioned (injected)",
                    "lost its connection",
                )
            elif fault.kind == "stall":
                conn.stalled = True  # silence: the watchdog must act

        def dispatch_pass() -> None:
            """Offer every free host one ready job."""
            takers: List[_HostState] = []
            for state in hosts:
                if len(takers) >= min(len(ready), dispatch_budget):
                    break
                if state.conn is not None and state.conn.dead:
                    state.conn = None
                if state.partitioned or (
                    state.conn is not None and state.conn.current is not None
                ):
                    continue  # gone for the run, or busy
                state.opportunities += 1
                if state.flaps.value() >= FLAP_QUARANTINE:
                    if not state.rested_noted:
                        state.rested_noted = True
                        report.notes.append(
                            f"host {state.spec.name} is flapping "
                            f"({state.flaps.value()} recent flaps); "
                            "resting it until the count decays"
                        )
                    continue
                state.rested_noted = False
                if state.breaker.allow() and (
                    state.conn is not None or connect(state)
                ):
                    takers.append(state)
            # New workers start concurrently above; only now wait for each.
            for state in takers:
                if not ready or not await_ready(state):
                    continue
                job, attempt = ready.popleft()
                if job not in report.completed:  # else a late duplicate
                    dispatch_one(state, job, attempt)

        try:
            while ready or delayed or busy_conns():
                now = time.monotonic()
                while delayed and delayed[0][0] <= now:
                    _, _, job, attempt = heapq.heappop(delayed)
                    ready.append((job, attempt))
                dispatch_pass()
                if dispatch_budget <= 0 and ready:
                    report.notes.append(
                        "worker dispatch budget exhausted; finishing serially"
                    )
                    report.infra_failures.append(
                        "worker dispatch budget exhausted"
                    )
                    break
                busy = busy_conns()
                if not busy:
                    if ready:
                        if not any(state.usable() for state in hosts):
                            report.notes.append(
                                "no usable worker host remains "
                                "(partitioned, flapping or breaker-open); "
                                "finishing serially"
                            )
                            break
                        # Usable hosts exist but none took work this
                        # pass (connects failed): try again.
                        continue
                    if delayed:  # only backoff waits remain
                        time.sleep(
                            max(0.0, delayed[0][0] - time.monotonic())
                        )
                        continue
                    break
                horizon: List[float] = []
                if self.deadline is not None:
                    horizon.extend(
                        c.current[2] + self.deadline for c in busy
                    )
                if self.hang_after is not None:
                    horizon.extend(
                        c.last_seen + self.hang_after for c in busy
                    )
                if delayed:
                    horizon.append(delayed[0][0])
                block = (
                    max(0.0, min(horizon) - time.monotonic()) + 0.01
                    if horizon
                    else None
                )
                try:
                    sender, kind, payload = inbox.get(timeout=block)
                except queue.Empty:
                    pass
                else:
                    self._handle_frame(
                        sender, kind, payload, by_key, report, requeue, infra
                    )
                self._watchdog_pass(report, requeue, sever)
        finally:
            for conn in connections:
                conn.close()
            for state in hosts:
                state.conn = None
        report.leftovers = [
            job for job in jobs if job not in report.completed
        ]
        return report

    # ------------------------------------------------------------------
    # Frame handling
    # ------------------------------------------------------------------
    def _handle_frame(
        self, sender, kind, payload, by_key, report, requeue, infra
    ) -> None:
        state = self._hosts[sender.spec.name]
        if kind == "result":
            # A worker runs one job at a time, so a result belongs to its
            # current job; the key only places a killed worker's late
            # result (two jobs may share one content address).
            if sender.current is not None:
                job = sender.current[0]
                sender.current = None
            else:
                job = by_key.get(payload.get("key"))
            if job is not None and job not in report.completed:
                report.completed[job] = (payload["payload"], payload["wall"])
                state.stats["completions"] += 1
                state.breaker.record([])  # clean completion: host healthy
        elif kind == "error":
            if sender.current is None:
                return  # raced with a watchdog kill; already requeued
            job, attempt, _ = sender.current
            sender.current = None
            state.stats["requeues"] += 1
            requeue(
                job,
                attempt,
                f"{payload.get('kind')}: {payload.get('message')}",
                f"raised on host {state.spec.name} ({payload.get('kind')})",
            )
        elif kind == "trace-fetch":
            self._serve_trace_meta(sender, payload)
        elif kind == "trace-need":
            self._serve_trace_bytes(sender, state, payload, report)
        elif kind == "eof":
            if sender.dead:
                return  # killed on purpose; its job is already requeued
            sender.dead = True
            if state.conn is sender:
                state.conn = None
            try:
                # EOF on the pipe can precede process teardown; wait
                # briefly so the note carries the real exit code.
                exit_code = sender.proc.wait(timeout=1.0)
            except subprocess.TimeoutExpired:  # pragma: no cover
                exit_code = sender.proc.poll()
            state.stats["flaps"] += 1
            state.flaps.record()
            died = f"host {state.spec.name} worker died (exit {exit_code})"
            if sender.current is None:
                infra(state, died)
                return
            job, attempt, _ = sender.current
            sender.current = None
            state.stats["requeues"] += 1
            infra(state, f"{died} running {job.describe()}")
            report.notes.append(
                f"{died} running {job.describe()}; respawning and requeuing"
            )
            requeue(
                job,
                attempt,
                f"worker died (exit {exit_code})",
                "lost its worker",
            )
        # "ready"/"heartbeat" only refresh last_seen (reader did that).

    def _serve_trace_meta(self, sender, payload) -> None:
        """Answer a worker's digest query for one trace path."""
        from ..traces.registry import trace_info

        path = payload.get("path", "")
        try:
            info = trace_info(path)
        except Exception as error:  # noqa: BLE001 — forwarded to worker
            sender.send("trace-meta", {"path": path, "error": str(error)})
            return
        sender.send(
            "trace-meta",
            {
                "path": path,
                "digest": info.digest,
                "file_bytes": info.file_bytes,
            },
        )

    def _serve_trace_bytes(self, sender, state, payload, report) -> None:
        """Stream one trace's raw bytes to a worker that missed staging."""
        from ..traces.fetch import FETCH_CHUNK_BYTES, iter_trace_bytes

        path = payload.get("path", "")
        state.stats["trace_fetches"] += 1
        sent = 0
        try:
            for block in iter_trace_bytes(path, FETCH_CHUNK_BYTES):
                if not sender.send(
                    "trace-data", {"path": path, "data": block, "eof": False}
                ):
                    return
                sent += len(block)
        except OSError:
            pass  # worker-side verification rejects the torn stream
        sender.send("trace-data", {"path": path, "data": b"", "eof": True})
        state.stats["trace_bytes_sent"] += sent
        report.notes.append(
            f"streamed trace {os.path.basename(path)} "
            f"({sent} bytes) to host {state.spec.name}"
        )

    def _watchdog_pass(self, report, requeue, sever) -> None:
        now = time.monotonic()
        for state in self._hosts.values():
            conn = state.conn
            if conn is None or conn.dead or conn.current is None:
                continue
            job, attempt, dispatched = conn.current
            gap = now - conn.last_seen
            if self.hang_after is not None and gap >= self.hang_after:
                state.hangs.append(
                    {
                        "kind": "hang",
                        "host": state.spec.name,
                        "worker": conn.proc.pid,
                        "gap_seconds": round(gap, 3),
                        "job": job.describe(),
                    }
                )
                sever(
                    conn,
                    state,
                    f"went silent for {gap:.1f}s",
                    "went silent (hung worker killed)",
                )
            elif (
                self.deadline is not None
                and now - dispatched >= self.deadline
            ):
                # A job-level timeout, not an infrastructure failure: the
                # breaker is left alone and the job is retried.
                conn.kill()
                state.conn = None
                state.stats["requeues"] += 1
                requeue(
                    job,
                    attempt,
                    f"timeout after {self.deadline:g}s",
                    f"exceeded the {self.deadline:g}s timeout",
                )


def build_backend(
    name: str,
    max_workers: int,
    timeout: Optional[float] = None,
    hosts: Optional[Sequence[HostSpec]] = None,
) -> Optional[WorkerBackend]:
    """The worker backend for ``--backend name``; ``None`` for serial.

    ``pool`` and ``subprocess`` get ``max_workers`` local ``exec``
    hosts; ``remote`` needs ``hosts`` (parsed :class:`HostSpec`\\ s).
    """
    name = resolve_backend_name(name)
    if name == "serial":
        return None
    if name != "remote":
        hosts = local_hosts(max(1, max_workers))
    return WorkerBackend(name, hosts or [], timeout, watchdog=default_watchdog())

