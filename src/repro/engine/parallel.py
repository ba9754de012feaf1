"""The execution engine: cache-aware, parallel, fault-tolerant job runs.

:class:`ExecutionEngine` is the single entry point the experiment layer
uses to obtain simulation results.  For every requested job it

1. consults the on-disk :class:`~repro.engine.store.ResultStore`
   (content-addressed by job parameters — a warm cache run performs zero
   simulations);
2. hands the misses to the framed-worker backend
   (:mod:`~repro.engine.backends`, ``--backend`` / ``REPRO_BACKEND``
   decides when it engages), which dispatches each job at most once;
   whatever the workers do not return — or everything, when they are
   not started — runs once in-process;
3. passes every fresh result through the invariant-validation gate
   (:mod:`~repro.engine.validate`) — a worker result that violates the
   model's own accounting identities is quarantined and rerun
   in-process, never cached;
4. writes validated results back to the store, and records everything
   — outcomes, per-host worker counters, quarantines, failures — in a
   :class:`~repro.engine.telemetry.RunTelemetry`.

An in-process failure is final: the remaining jobs still run and are
cached, then :class:`JobFailedError` names the failed job.  The store is
the only record of which jobs are done, so rerunning a failed or
interrupted run against the same cache simulates only what is missing.

Because :func:`~repro.engine.jobs.execute_job` is deterministic, serial,
worker and rerun runs all produce bit-identical results; the engine
only changes *when* and *where* simulations run, never what they
compute.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..cache.kernel import resolve_kernel_mode
from ..errors import EngineError
from .config import (
    resolve_backend_name,
    resolve_transport_mode,
    resolve_worker_count,
)
from .jobs import (
    SOURCE_CACHED,
    SOURCE_FALLBACK,
    SOURCE_SERIAL,
    JobOutcome,
    SimulationJob,
    execute_job,
)
from .store import ResultStore
from .telemetry import RunTelemetry, Stopwatch
from .validate import InvalidResultError, check_result

if TYPE_CHECKING:
    from .backends import WorkerBackend


class JobFailedError(EngineError):
    """A job failed in-process, so the run cannot deliver its result."""

    def __init__(self, job: SimulationJob, error: BaseException) -> None:
        super().__init__(
            f"job {job.describe()} failed: {type(error).__name__}: {error}"
        )
        self.job = job


class ExecutionEngine:
    """Runs simulation jobs through the cache, the workers, and telemetry."""

    def __init__(
        self,
        jobs: Optional[int] = None,
        store: Optional[object] = None,
        telemetry: Optional[RunTelemetry] = None,
        backend: Optional[str] = None,
    ) -> None:
        self.max_workers = resolve_worker_count(jobs)
        self.store = store if store is not None else ResultStore()
        self.telemetry = telemetry if telemetry is not None else RunTelemetry()
        self.backend = resolve_backend_name(backend)
        self._workers: Optional["WorkerBackend"] = None
        self.transport = resolve_transport_mode()
        self.kernel_mode = resolve_kernel_mode()
        self._traces_published = 0
        self.telemetry.context.update(
            {
                "max_workers": self.max_workers,
                "backend": self.backend,
                "cache_dir": self.store.describe(),
            }
        )
        from ..cache.kernel import resolve_residual_impl

        self.telemetry.record_substrate(
            {
                "kernel_mode": self.kernel_mode,
                "residual_impl": (
                    "scalar"
                    if self.kernel_mode == "scalar"
                    else resolve_residual_impl(
                        "compiled"
                        if self.kernel_mode == "compiled"
                        else "python"
                    )
                ),
                "transport": self.transport,
                "traces_published": 0,
            }
        )

    @property
    def workers(self) -> "WorkerBackend":
        """The worker backend, built on first use."""
        if self._workers is None:
            from .backends import build_backend

            self._workers = build_backend(self.backend, self.max_workers)
        return self._workers

    @workers.setter
    def workers(self, backend: "WorkerBackend") -> None:
        self._workers = backend

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(
        self, jobs: Sequence[SimulationJob]
    ) -> Dict[SimulationJob, JobOutcome]:
        """Obtain every job's result; cache first, then workers, then in-process.

        Results are keyed by job and independent of execution order, so
        callers see identical outputs whatever path produced them —
        including runs that fell back to an in-process rerun.  Raises
        :class:`JobFailedError` when a job fails in-process; the
        telemetry still records every finished job.
        """
        # Jobs that share a content address (a trace recorded from a paper
        # benchmark and the benchmark itself) run once: the first stands
        # for the rest, which are served its result as cache hits.
        keys = {job: job.key() for job in dict.fromkeys(jobs)}
        firsts: Dict[str, SimulationJob] = {}
        for job, key in keys.items():
            firsts.setdefault(key, job)
        run_start = time.perf_counter()
        outcomes: Dict[SimulationJob, JobOutcome] = {}

        pending: List[SimulationJob] = []
        for key, job in firsts.items():
            with Stopwatch() as sw:
                hit = self.store.get(key)
            if hit is not None:
                outcomes[job] = JobOutcome(job, hit, SOURCE_CACHED, sw.seconds)
            else:
                pending.append(job)

        try:
            if pending:
                self._run_pending(pending, outcomes)
        finally:
            self.telemetry.add_wall(time.perf_counter() - run_start)
            for job, key in keys.items():
                first = outcomes.get(firsts[key])
                if job not in outcomes and first is not None:
                    outcomes[job] = JobOutcome(
                        job, first.annotated, SOURCE_CACHED, 0.0
                    )
                if job in outcomes:
                    self.telemetry.record_outcome(outcomes[job])
            self.telemetry.record_store(self.store)
        return outcomes

    def run_one(self, job: SimulationJob) -> JobOutcome:
        """Convenience wrapper: run a single job."""
        return self.run([job])[job]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _run_pending(
        self,
        pending: List[SimulationJob],
        outcomes: Dict[SimulationJob, JobOutcome],
    ) -> None:
        # ``subprocess`` always starts workers; ``pool`` only with two or
        # more of them and two or more jobs.  Deciding here means an
        # in-process run never builds (or imports) the worker backend.
        engaged = self.backend == "subprocess" or (
            self.max_workers >= 2 and len(pending) >= 2
        )
        # In-process work: (job, its attempt number).  Attempt 1 is a
        # job's first execution, 2 the rerun of a job a worker was sent
        # but did not return.
        if engaged:
            in_process = self._dispatch(pending, outcomes)
            source = SOURCE_FALLBACK
        else:
            in_process = [(job, 1) for job in pending]
            source = SOURCE_SERIAL

        failure: Optional[JobFailedError] = None
        for job, attempt in in_process:
            try:
                annotated, seconds = self._execute_serial(job)
            except JobFailedError as error:
                failure = failure or error
                continue  # the other jobs still run and are cached
            outcomes[job] = JobOutcome(
                job, annotated, source, seconds, attempts=attempt
            )
            self.store.put(job.key(), annotated)

        if failure is not None:
            raise failure

    def _dispatch(
        self,
        pending: List[SimulationJob],
        outcomes: Dict[SimulationJob, JobOutcome],
    ) -> List[Tuple[SimulationJob, int]]:
        """Run pending jobs on the workers; return what must run in-process.

        Valid worker results are recorded and cached.  A job the
        workers did not return, or whose result fails the validation
        gate, comes back with the attempt number of its in-process run.

        By default workers stream recorded traces from their files and
        nothing is published.  Under an opt-in ``shm``/``disk``
        transport the traces go into zero-copy arenas first; the parent
        owns them and unlinks them when the dispatch settles, however
        the workers fared.
        """
        from . import transport

        published = transport.publish_for_jobs(pending, self.transport)
        if published:
            self._traces_published += len(published)
            self.telemetry.record_substrate(
                {"traces_published": self._traces_published}
            )
        try:
            report = self.workers.run(pending)
        finally:
            transport.release_paths(published)
        for note in report.notes:
            self.telemetry.note(note)
        self.telemetry.record_workers({"hosts": self.workers.snapshot()})

        in_process: List[Tuple[SimulationJob, int]] = [
            (job, 2 if job in report.dispatched else 1)
            for job in report.leftovers
        ]
        for job, (annotated, wall) in report.completed.items():
            violations = check_result(annotated)
            if violations:
                # Never cache an invalid result: quarantine it and rerun
                # the job in-process, where the gate re-checks.
                self.telemetry.record_quarantine(
                    job, violations, where=self.workers.source
                )
                self.telemetry.note(
                    f"job {job.describe()} result failed the validation "
                    f"gate ({violations[0]}); quarantined, running it "
                    "in-process"
                )
                in_process.append((job, 2))
                continue
            outcomes[job] = JobOutcome(job, annotated, self.workers.source, wall)
            self.store.put(job.key(), annotated)
        return in_process

    def _execute_serial(self, job: SimulationJob) -> Tuple[object, float]:
        """Run one job in-process, once; a failure is final.

        An exception or a result the validation gate rejects is recorded
        and raised as :class:`JobFailedError`: the job is deterministic,
        so running it again would fail the same way.
        """
        try:
            with Stopwatch() as sw:
                annotated = execute_job(job)
            violations = check_result(annotated)
            if violations:
                self.telemetry.record_quarantine(job, violations, where="serial")
                raise InvalidResultError(
                    f"result for {job.describe()} failed the validation "
                    f"gate: {violations[0]}"
                )
        except Exception as error:
            self.telemetry.record_failure(job, error)
            raise JobFailedError(job, error) from error
        return annotated, sw.seconds
