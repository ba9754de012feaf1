"""The framed-worker backend: local worker processes under a watchdog.

:class:`WorkerBackend` ships :class:`~repro.engine.jobs.SimulationJob`\\ s
to worker processes speaking the length-framed pipe protocol of
:mod:`~repro.engine.worker` and returns a :class:`PoolReport` —
completions, leftovers, retries, infrastructure failures.  Jobs it
cannot finish fall to the engine's in-process serial executor
(:mod:`~repro.engine.parallel`), so the degradation ladder is always
*workers → serial* (:func:`ladder`).  ``--backend`` only decides when
the workers engage:

``pool`` (the default)
    ``--jobs`` local workers, engaged only when ``--jobs > 1`` and more
    than one job is pending — otherwise the run stays in-process and no
    worker is started.
``subprocess``
    the same local workers, always engaged: even one job ships to a
    worker.
``serial``
    no workers at all.

Each worker slot is a *host* with a label (``local0``, ``local1``, ...)
that keys its counters in the manifest.  A host runs one child process
at a time, :func:`repro.engine.worker.main`, and the backend keeps it
honest:

* **heartbeats** feed a watchdog — a worker silent for ``watchdog``
  seconds (``REPRO_WATCHDOG``, default ``max(8 × heartbeat, 4 s)``) is
  declared hung, killed, and its job requeued;
* a **per-dispatch deadline** (``REPRO_JOB_TIMEOUT``) kills a worker
  that runs over and retries the job;
* a worker that dies is respawned on the next dispatch and its job is
  retried under the :class:`~repro.engine.retry.RetryPolicy`; a dispatch
  budget bounds respawns, so a worker that keeps dying hands its jobs to
  the serial rung instead of spinning;
* re-dispatch is **idempotent by content address**: jobs are keyed by
  :meth:`SimulationJob.key`, late results from a killed worker are
  dropped once a completion is recorded, and cache publication happens
  exactly once, controller-side, through the store's atomic writes.

Every worker runs the same deterministic
:func:`~repro.engine.jobs.execute_job`, so results are bit-identical
whichever worker — or the serial rung — produced them.
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
from .jobs import SOURCE_PARALLEL, SOURCE_SUBPROCESS, SimulationJob
from .retry import RetryPolicy, _env_float
from .worker import DEFAULT_HEARTBEAT_SECONDS, read_frame, write_frame

#: Environment variable selecting the backend.
ENV_BACKEND = "REPRO_BACKEND"

#: Environment variable: worker heartbeat interval (seconds; 0 disables
#: heartbeats and with them hang detection).
ENV_HEARTBEAT = "REPRO_HEARTBEAT"

#: Environment variable: watchdog patience in seconds — how long a
#: worker may stay silent before it is declared hung.  0 or unset keeps
#: the default of ``max(8 × heartbeat, 4 s)``.
ENV_WATCHDOG = "REPRO_WATCHDOG"

#: Environment variable: per-job timeout, seconds — the deadline of one
#: worker dispatch (unset: no limit).
ENV_JOB_TIMEOUT = "REPRO_JOB_TIMEOUT"

#: Valid ``--backend`` / ``REPRO_BACKEND`` values.
BACKEND_NAMES = ("pool", "subprocess", "serial")

#: ``JobOutcome.source`` of a job a worker completed, per backend.
_SOURCES = {
    "pool": SOURCE_PARALLEL,
    "subprocess": SOURCE_SUBPROCESS,
}

#: Seconds a fresh worker has to send its ``ready`` frame.
_READY_TIMEOUT_SECONDS = 10.0

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


def default_job_timeout() -> Optional[float]:
    """Per-job timeout from ``REPRO_JOB_TIMEOUT``, or ``None`` (no limit)."""
    value = _env_float(ENV_JOB_TIMEOUT, minimum=0.0)
    if value == 0:
        raise EngineError(f"{ENV_JOB_TIMEOUT} must be positive, got {value!r}")
    return value


def local_hosts(count: int) -> List[str]:
    """Labels of ``count`` local worker hosts (``local0``, ``local1``, ...)."""
    return [f"local{index}" for index in range(count)]


def _spawn_command(heartbeat: float) -> Tuple[List[str], Dict]:
    """The argv + environment that starts one worker loop."""
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
        package_root if not existing else package_root + os.pathsep + existing
    )
    return command, env


@dataclass
class PoolReport:
    """Everything one :meth:`WorkerBackend.run` call did and left behind.

    ``completed[job]`` is an ``(annotated_result, worker_wall_seconds)``
    pair; ``leftovers`` are the jobs the serial executor must run —
    those whose retries or the dispatch budget ran out; ``attempts`` is
    the highest attempt dispatched per job, so the serial rung continues
    the numbering; ``retries`` are structured records for telemetry and
    ``notes`` the matching human-readable messages; ``infra_failures``
    describes infrastructure breakdowns — worker deaths, failed starts,
    lost heartbeats — as opposed to per-job errors.
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

    def __init__(self, label: str, heartbeat: float, inbox: "queue.Queue") -> None:
        self.label = label
        command, env = _spawn_command(heartbeat)
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
        #: Set by the ``ready`` frame — or by EOF, so a worker that dies
        #: during start-up does not hold its start for the full timeout.
        self.ready = threading.Event()
        self.eof = False
        reader = threading.Thread(
            target=self._read_loop,
            args=(inbox,),
            name=f"worker-reader-{label}",
            daemon=True,
        )
        reader.start()

    def _read_loop(self, inbox: "queue.Queue") -> None:
        while True:
            frame = read_frame(self.proc.stdout)
            if frame is None:
                self.eof = True
                self.ready.set()
                inbox.put((self, "eof", None))
                return
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
    """What the backend tracks about one worker host, across runs."""

    def __init__(self, label: str) -> None:
        self.label = label
        self.conn: Optional[_Connection] = None
        self.hangs: List[Dict] = []
        self.stats: Dict[str, int] = {
            "dispatches": 0,
            "completions": 0,
            "requeues": 0,
            "connects": 0,
            "connect_failures": 0,
            "flaps": 0,
        }

    def snapshot(self) -> Dict:
        """Cumulative counters and hang events."""
        return {**self.stats, "hangs": [dict(h) for h in self.hangs]}


class WorkerBackend:
    """Jobs on local framed workers, one process per host at a time.

    Host counters and hang events persist across ``run`` calls, so the
    manifest's ``workers`` section covers every dispatch of one engine.
    """

    def __init__(
        self,
        name: str,
        hosts: Sequence[str],
        timeout: Optional[float] = None,
        heartbeat: Optional[float] = None,
        watchdog: Optional[float] = None,
    ) -> None:
        if not hosts:
            raise EngineError(f"the {name} backend needs at least one host")
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
        self.deadline = timeout
        self._hosts: Dict[str, _HostState] = {
            label: _HostState(label) for label in hosts
        }

    def worth_starting(self, pending: int) -> bool:
        """Whether workers should run ``pending`` jobs at all.

        ``pool`` keeps a run in-process unless it has more than one
        local worker and more than one job.
        """
        return self.name != "pool" or (len(self._hosts) >= 2 and pending >= 2)

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
        by_key = {job.key(): job for job in jobs}
        inbox: "queue.Queue" = queue.Queue()
        ready: deque = deque((job, 1) for job in jobs)
        delayed: List[Tuple[float, int, SimulationJob, int]] = []
        sequence = 0
        connections: List[_Connection] = []
        # Bounds dispatches and failed worker starts together: workers
        # that keep dying or never start cannot spin forever.
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

        def sever(
            conn: _Connection, state: _HostState, reason: str, what: str
        ) -> None:
            """Kill a connection, requeue its in-flight job, count a flap."""
            current = conn.current
            conn.kill()
            state.conn = None
            state.stats["flaps"] += 1
            if current is not None:
                job, attempt, _ = current
                state.stats["requeues"] += 1
                report.infra_failures.append(
                    f"host {state.label} {reason} running {job.describe()}"
                )
                report.notes.append(
                    f"host {state.label} {reason} running "
                    f"{job.describe()}; requeuing"
                )
                requeue(job, attempt, f"host {reason}", what)
            else:
                report.infra_failures.append(f"host {state.label} {reason}")

        def start_failed(state: _HostState, message: str) -> None:
            """Count a worker that never started against the budget."""
            nonlocal dispatch_budget
            dispatch_budget -= 1
            state.stats["connect_failures"] += 1
            report.infra_failures.append(message)
            report.notes.append(message)

        def connect(state: _HostState) -> bool:
            """Start one worker on a host."""
            state.stats["connects"] += 1
            try:
                state.conn = _Connection(state.label, self.heartbeat, inbox)
            except (OSError, ValueError) as error:
                start_failed(
                    state, f"host {state.label} failed to start a worker ({error})"
                )
                return False
            connections.append(state.conn)
            return True

        def await_ready(state: _HostState) -> bool:
            """Wait out a fresh worker's ``ready`` frame (deadline-bounded)."""
            if state.conn.await_ready(_READY_TIMEOUT_SECONDS):
                return True
            state.conn.kill()
            state.conn = None
            start_failed(
                state,
                f"host {state.label} sent no ready frame within "
                f"{_READY_TIMEOUT_SECONDS:g}s",
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
            """Send one job to one host."""
            nonlocal dispatch_budget
            dispatch_budget -= 1
            conn = state.conn
            state.stats["dispatches"] += 1
            conn.current = (job, attempt, time.monotonic())
            conn.last_seen = time.monotonic()
            if not conn.send("job", (job, attempt)):
                # The pipe is gone: put the job back (its attempt never
                # ran) and let the host respawn on a later pass.
                conn.kill()
                state.conn = None
                report.infra_failures.append(
                    f"host {state.label} pipe closed before "
                    f"{job.describe()} could be dispatched"
                )
                ready.appendleft((job, attempt))
                return
            report.attempts[job] = max(attempt, report.attempts.get(job, 0))

        def dispatch_pass() -> None:
            """Offer every free host one ready job."""
            takers: List[_HostState] = []
            for state in hosts:
                if len(takers) >= min(len(ready), dispatch_budget):
                    break
                if state.conn is not None and state.conn.dead:
                    state.conn = None
                if state.conn is not None and state.conn.current is not None:
                    continue  # busy
                if state.conn is not None or connect(state):
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
                        continue  # every start failed this pass: retry
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
                        sender, kind, payload, by_key, report, requeue
                    )
                self._watchdog_pass(requeue, sever)
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
    def _handle_frame(self, sender, kind, payload, by_key, report, requeue) -> None:
        state = self._hosts[sender.label]
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
                f"raised on host {state.label} ({payload.get('kind')})",
            )
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
            died = f"host {state.label} worker died (exit {exit_code})"
            if sender.current is None:
                report.infra_failures.append(died)
                return
            job, attempt, _ = sender.current
            sender.current = None
            state.stats["requeues"] += 1
            report.infra_failures.append(f"{died} running {job.describe()}")
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

    def _watchdog_pass(self, requeue, sever) -> None:
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
                        "host": state.label,
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
                # job is retried on a fresh worker.
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
    name: str, max_workers: int, timeout: Optional[float] = None
) -> Optional[WorkerBackend]:
    """The worker backend for ``--backend name``; ``None`` for serial.

    ``pool`` and ``subprocess`` get ``max_workers`` local hosts.
    """
    name = resolve_backend_name(name)
    if name == "serial":
        return None
    return WorkerBackend(
        name, local_hosts(max(1, max_workers)), timeout, watchdog=default_watchdog()
    )
