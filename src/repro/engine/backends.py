"""The framed-worker backend: local worker processes, one dispatch per job.

:class:`WorkerBackend` ships :class:`~repro.engine.jobs.SimulationJob`\\ s
to worker processes speaking the length-framed pipe protocol of
:mod:`~repro.engine.worker` and returns a :class:`PoolReport` —
completions, leftovers, notes.  Jobs it does not return run once
in-process (:mod:`~repro.engine.parallel`).  ``--backend`` only decides
when the workers engage:

``pool`` (the default)
    ``--jobs`` local workers, engaged only when ``--jobs > 1`` and more
    than one job is pending — otherwise the run stays in-process and no
    worker is started.
``subprocess``
    the same local workers, always engaged: even one job ships to a
    worker.

Each worker slot is a *host* with a label (``local0``, ``local1``, ...)
that keys its counters in the manifest.  A host runs one child process
at a time, :func:`repro.engine.worker.main`.  Every job is dispatched
**at most once**: an error frame, a worker that dies or a pipe that
closes hands the job back to run in-process, and the host respawns a
worker for its next job.  :func:`~repro.engine.jobs.execute_job` is
deterministic, so a second worker attempt would only repeat the first.
For the same reason a dispatch has no deadline: a job that hangs on a
worker would hang again in-process.  A host whose worker fails to
start, or sends no ``ready`` frame within ``_READY_TIMEOUT_SECONDS``,
is dropped for the rest of the run; once no host is left, the
remaining jobs run in-process too.  Results are published to the cache
exactly once, controller-side, through the store's atomic writes.
"""

from __future__ import annotations

import os
import queue
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import EngineError
from .config import resolve_backend_name
from .jobs import SOURCE_PARALLEL, SOURCE_SUBPROCESS, SimulationJob
from .worker import read_frame, write_frame

#: ``JobOutcome.source`` of a job a worker completed, per backend.
_SOURCES = {
    "pool": SOURCE_PARALLEL,
    "subprocess": SOURCE_SUBPROCESS,
}

#: Seconds a fresh worker has to send its ``ready`` frame.
_READY_TIMEOUT_SECONDS = 10.0

#: Grace period for a worker to exit after the "exit" frame.
_EXIT_GRACE_SECONDS = 0.5

def local_hosts(count: int) -> List[str]:
    """Labels of ``count`` local worker hosts (``local0``, ``local1``, ...)."""
    return [f"local{index}" for index in range(count)]


def _spawn_command() -> Tuple[List[str], Dict]:
    """The argv + environment that starts one worker loop."""
    # -c instead of -m: importing the package already loads
    # repro.engine.worker, and runpy would warn re-executing it.
    command = [
        sys.executable,
        "-u",
        "-c",
        "import sys; from repro.engine.worker import main; sys.exit(main())",
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
    pair; ``leftovers`` are the jobs that must run in-process — those
    the workers did not return, or never got; ``dispatched`` are the
    jobs sent to a worker (each at most once), so the in-process rerun
    of one is attempt 2; ``notes`` are human-readable degradation
    messages.
    """

    completed: Dict[SimulationJob, Tuple[object, float]] = field(
        default_factory=dict
    )
    leftovers: List[SimulationJob] = field(default_factory=list)
    dispatched: Set[SimulationJob] = field(default_factory=set)
    notes: List[str] = field(default_factory=list)


class _Connection:
    """One live worker: process, pipes, reader thread."""

    def __init__(self, label: str, inbox: "queue.Queue") -> None:
        self.label = label
        command, env = _spawn_command()
        self.proc = subprocess.Popen(  # noqa: S603 — our own worker cmd
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
        )
        self.started = time.monotonic()
        #: The job in flight, else ``None``.
        self.current: Optional[SimulationJob] = None
        self.dead = False
        #: Set by the ``ready`` frame — or by EOF, so a worker that dies
        #: during start-up does not hold its start for the full timeout.
        self.ready = threading.Event()
        self.eof = False
        self._reader = threading.Thread(
            target=self._read_loop,
            args=(inbox,),
            name=f"worker-reader-{label}",
            daemon=True,
        )
        self._reader.start()

    def _read_loop(self, inbox: "queue.Queue") -> None:
        while True:
            frame = read_frame(self.proc.stdout)
            if frame is None:
                self.eof = True
                self.ready.set()
                inbox.put((self, "eof", None))
                return
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
        """Stop the worker (killed ones too) and release both pipes.

        The pipes close only once the process has exited and the reader
        thread has returned: closing a pipe the reader still blocks on
        would hang on its buffer lock.
        """
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
            return
        self._reader.join(timeout=2.0)
        if self._reader.is_alive():  # pragma: no cover — kernel lag
            return
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except (OSError, ValueError):
                pass


class _HostState:
    """What the backend tracks about one worker host, across runs."""

    def __init__(self, label: str) -> None:
        self.label = label
        self.conn: Optional[_Connection] = None
        self.stats: Dict[str, int] = {
            "dispatches": 0,
            "completions": 0,
            "connects": 0,
            "connect_failures": 0,
            "flaps": 0,
        }


class WorkerBackend:
    """Jobs on local framed workers, one process per host at a time.

    Host counters persist across ``run`` calls, so the manifest's
    ``workers`` section covers every dispatch of one engine.
    """

    def __init__(
        self,
        name: str,
        hosts: Sequence[str],
    ) -> None:
        if not hosts:
            raise EngineError(f"the {name} backend needs at least one host")
        self.name = name
        self.source = _SOURCES[name]
        self._hosts: Dict[str, _HostState] = {
            label: _HostState(label) for label in hosts
        }

    def snapshot(self) -> Dict[str, Dict]:
        """Per-host counters for the manifest's ``workers`` section."""
        return {
            name: dict(state.stats) for name, state in self._hosts.items()
        }

    # ------------------------------------------------------------------
    # Dispatch loop
    # ------------------------------------------------------------------
    def run(self, jobs: Sequence[SimulationJob]) -> PoolReport:
        """Run ``jobs`` on the hosts, each at most once.

        Jobs the workers do not return come back as leftovers.
        """
        report = PoolReport()
        inbox: "queue.Queue" = queue.Queue()
        ready: deque = deque(jobs)
        connections: List[_Connection] = []
        # Hosts still in this run; one whose worker cannot start leaves.
        hosts = list(self._hosts.values())

        def drop(state: _HostState, message: str) -> None:
            """Count a worker that never started and retire its host."""
            state.stats["connect_failures"] += 1
            hosts.remove(state)
            report.notes.append(f"{message}; host dropped for this run")

        def connect(state: _HostState) -> bool:
            """Start one worker on a host."""
            state.stats["connects"] += 1
            try:
                state.conn = _Connection(state.label, inbox)
            except (OSError, ValueError) as error:
                drop(
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
            drop(
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

        def dispatch_one(state: _HostState, job: SimulationJob) -> None:
            """Send one job to one host — the only time it is sent."""
            conn = state.conn
            state.stats["dispatches"] += 1
            report.dispatched.add(job)
            conn.current = job
            if not conn.send("job", job):
                conn.kill()
                state.conn = None
                report.notes.append(
                    f"host {state.label} pipe closed before "
                    f"{job.describe()} could be dispatched; running it "
                    "in-process"
                )

        def dispatch_pass() -> None:
            """Offer every free host one ready job."""
            takers: List[_HostState] = []
            for state in list(hosts):
                if len(takers) >= len(ready):
                    break
                if state.conn is not None and state.conn.dead:
                    state.conn = None
                if state.conn is not None and state.conn.current is not None:
                    continue  # busy
                if state.conn is not None or connect(state):
                    takers.append(state)
            # New workers start concurrently above; only now wait for each.
            for state in takers:
                if ready and await_ready(state):
                    dispatch_one(state, ready.popleft())

        try:
            # With no worker busy, a pass dispatches a job or drops a
            # host, so the loop ends.
            while (ready and hosts) or busy_conns():
                dispatch_pass()
                if busy_conns():
                    # A busy worker always answers: a result, an error
                    # frame, or EOF when it dies.
                    self._handle_frame(*inbox.get(), report)
        finally:
            for conn in connections:
                conn.close()
            for state in self._hosts.values():
                state.conn = None
        if ready:
            report.notes.append(
                f"no worker host left; {len(ready)} job(s) run in-process"
            )
        report.leftovers = [
            job for job in jobs if job not in report.completed
        ]
        return report

    # ------------------------------------------------------------------
    # Frame handling
    # ------------------------------------------------------------------
    def _handle_frame(self, sender, kind, payload, report) -> None:
        state = self._hosts[sender.label]
        if sender.dead:
            return  # killed on purpose: its job already left the workers
        current = sender.current
        if kind == "eof":
            sender.dead = True
            sender.current = None
            if state.conn is sender:
                state.conn = None
            try:
                # EOF on the pipe can precede process teardown; wait
                # briefly so the note carries the real exit code.
                exit_code = sender.proc.wait(timeout=1.0)
            except subprocess.TimeoutExpired:  # pragma: no cover
                exit_code = sender.proc.poll()
            state.stats["flaps"] += 1
            if current is not None:
                report.notes.append(
                    f"host {state.label} worker died (exit {exit_code}) "
                    f"running {current.describe()}; running it in-process"
                )
        elif current is None:
            return  # "ready"
        elif kind == "result":
            sender.current = None
            report.completed[current] = (payload["payload"], payload["wall"])
            state.stats["completions"] += 1
        elif kind == "error":
            sender.current = None
            report.notes.append(
                f"job {current.describe()} raised on host {state.label} "
                f"({payload.get('kind')}: {payload.get('message')}); "
                "running it in-process"
            )


def build_backend(name: str, max_workers: int) -> WorkerBackend:
    """The worker backend for ``--backend name``: ``max_workers`` local hosts."""
    name = resolve_backend_name(name)
    return WorkerBackend(name, local_hosts(max(1, max_workers)))
