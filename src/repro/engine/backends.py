"""Local worker processes: :func:`run_workers` sends each job at most once.

:func:`run_workers` ships :class:`~repro.engine.jobs.SimulationJob`\\ s
to worker processes speaking the framed pipe protocol of
:mod:`~repro.engine.worker` and returns a :class:`PoolReport`.  Each of
its slots is a thread that drives one worker process at a time, in plain
request/response, and all slots pop from one queue.  A job is sent
**at most once**: :func:`~repro.engine.jobs.execute_job` is
deterministic, so a second worker attempt would only repeat the first,
and a job that hangs on a worker would hang again in-process — hence no
deadline either.  A job whose worker raises or dies comes back to run
in-process (:mod:`~repro.engine.parallel`), and the slot spawns a fresh
worker for its next job.  A worker that fails to start, or sends no
``ready`` frame within ``_READY_TIMEOUT_SECONDS``, ends its slot; once
no slot is left, the remaining jobs run in-process too.  Workers leave
through the ``exit`` frame, so their ``atexit`` hooks run.
"""

from __future__ import annotations

import os
import select
import subprocess
import sys
import threading
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .jobs import SimulationJob
from .worker import read_frame, write_frame

#: Seconds a fresh worker has to send its ``ready`` frame.
_READY_TIMEOUT_SECONDS = 10.0

#: Grace period for a worker to exit after the "exit" frame.
_EXIT_GRACE_SECONDS = 0.5


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
    """Everything one :func:`run_workers` call did and left behind.

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


class _Worker:
    """One live worker process and its two pipes."""

    def __init__(self) -> None:
        command, env = _spawn_command()
        self.proc = subprocess.Popen(  # noqa: S603 — our own worker cmd
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
        )

    def ready(self) -> bool:
        """Whether the worker says ``ready`` within the start-up bound."""
        readable, _, _ = select.select(
            [self.proc.stdout], [], [], _READY_TIMEOUT_SECONDS
        )
        frame = read_frame(self.proc.stdout) if readable else None
        return frame is not None and frame[0] == "ready"

    def call(self, job: SimulationJob):
        """Send one job and read the reply; ``None`` once the worker is gone."""
        try:
            write_frame(self.proc.stdin, "job", job)
        except (OSError, ValueError):
            return None
        return read_frame(self.proc.stdout)

    def close(self) -> int:
        """Stop the worker, release both pipes and return its exit code.

        A live worker gets the ``exit`` frame and a grace period, so its
        ``atexit`` hooks run; only one that overstays it is killed.
        """
        if self.proc.poll() is None:
            try:
                write_frame(self.proc.stdin, "exit")
            except (OSError, ValueError):
                pass
            try:
                self.proc.wait(timeout=_EXIT_GRACE_SECONDS)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        code = self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except (OSError, ValueError):
                pass
        return code


def _start_worker(report: PoolReport) -> Optional[_Worker]:
    """A worker that said ``ready``, or ``None`` (with a note) if none did."""
    try:
        worker = _Worker()
    except (OSError, ValueError) as error:
        report.notes.append(
            f"a worker failed to start ({error}); its slot is closed"
        )
        return None
    if worker.ready():
        return worker
    worker.proc.kill()
    worker.close()
    report.notes.append(
        f"a worker sent no ready frame within {_READY_TIMEOUT_SECONDS:g}s; "
        "its slot is closed"
    )
    return None


def run_workers(jobs: Sequence[SimulationJob], count: int) -> PoolReport:
    """Run ``jobs`` on up to ``count`` local workers, each job at most once.

    Jobs the workers do not return come back as leftovers.
    """
    report = PoolReport()
    queue = deque(jobs)

    def slot() -> None:
        worker: Optional[_Worker] = None
        try:
            while queue:
                if worker is None:
                    worker = _start_worker(report)
                    if worker is None:
                        return
                try:
                    job = queue.popleft()
                except IndexError:
                    return  # a sibling slot took the last job
                report.dispatched.add(job)
                reply = worker.call(job)
                if reply is None:
                    report.notes.append(
                        f"worker died (exit {worker.close()}) running "
                        f"{job.describe()}; running it in-process"
                    )
                    worker = None
                elif reply[0] == "result":
                    report.completed[job] = (
                        reply[1]["payload"],
                        reply[1]["wall"],
                    )
                else:
                    report.notes.append(
                        f"job {job.describe()} raised in a worker "
                        f"({reply[1].get('kind')}: {reply[1].get('message')}); "
                        "running it in-process"
                    )
        finally:
            if worker is not None:
                worker.close()

    slots = [
        threading.Thread(target=slot, name=f"worker-slot-{index}", daemon=True)
        for index in range(min(count, len(jobs)))
    ]
    for thread in slots:
        thread.start()
    for thread in slots:
        thread.join()
    if queue:
        report.notes.append(
            f"no worker left; {len(queue)} job(s) run in-process"
        )
    report.leftovers = [job for job in jobs if job not in report.completed]
    return report
