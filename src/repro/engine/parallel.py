"""The execution engine: cache-aware, parallel, fault-tolerant job runs.

:class:`ExecutionEngine` is the single entry point the experiment layer
uses to obtain simulation results.  For every requested job it

1. consults the on-disk :class:`~repro.engine.store.ResultStore`
   (content-addressed by job parameters — a warm cache run performs zero
   simulations);
2. hands the misses to the framed-worker backend
   (:mod:`~repro.engine.backends`, selected by ``--backend`` /
   ``REPRO_BACKEND``) when it is worth starting, which dispatches each
   job at most once; whatever the workers do not return — or
   everything, when they are not started — runs once in-process;
3. passes every fresh result through the invariant-validation gate
   (:mod:`~repro.engine.validate`) — a worker result that violates the
   model's own accounting identities is quarantined and rerun
   in-process, never cached;
4. writes validated results back to the store, and records everything
   — outcomes, injected faults, per-host worker counters, quarantines,
   failures — in a :class:`~repro.engine.telemetry.RunTelemetry`.

An in-process failure is final: the remaining jobs still run and are
cached, then :class:`JobFailedError` names the failed job.  The store is
the only record of which jobs are done, so rerunning a failed or
interrupted run against the same cache simulates only what is missing.

Because :func:`~repro.engine.jobs.execute_job` is deterministic, serial,
worker, rerun, and fault-injected runs all produce bit-identical
results; the engine only changes *when* and *where* simulations run,
never what they compute.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..cache.kernel import resolve_kernel_mode
from ..errors import EngineError
from . import transport
from .backends import (
    PoolReport,
    build_backend,
    default_job_timeout,
    ladder,
    resolve_backend_name,
)
from .faults import FaultPlan, active_plan, apply_store_fault
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

#: Environment variable supplying the default worker count.
ENV_JOBS = "REPRO_JOBS"


class JobFailedError(EngineError):
    """A job failed in-process, so the run cannot deliver its result."""

    def __init__(self, job: SimulationJob, error: BaseException) -> None:
        super().__init__(
            f"job {job.describe()} failed: {type(error).__name__}: {error}"
        )
        self.job = job


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


class ExecutionEngine:
    """Runs simulation jobs through the cache, the workers, and telemetry."""

    def __init__(
        self,
        jobs: Optional[int] = None,
        store: Optional[object] = None,
        timeout: Optional[float] = None,
        telemetry: Optional[RunTelemetry] = None,
        faults: Optional[FaultPlan] = None,
        backend: Optional[str] = None,
    ) -> None:
        self.max_workers = resolve_worker_count(jobs)
        self.store = store if store is not None else ResultStore()
        self.timeout = timeout if timeout is not None else default_job_timeout()
        self.telemetry = telemetry if telemetry is not None else RunTelemetry()
        self.faults = faults if faults is not None else active_plan()
        self.backend = resolve_backend_name(backend)
        self.workers = build_backend(
            self.backend, self.max_workers, self.timeout
        )
        #: Descents to the serial rung and rungs that completed work,
        #: across this engine's runs (the ``workers`` manifest section).
        self._ladder: List[Dict] = []
        self._rungs_used: List[str] = []
        self.transport = transport.resolve_transport_mode()
        self.kernel_mode = resolve_kernel_mode()
        self._traces_published = 0
        self.telemetry.context.update(
            {
                "max_workers": self.max_workers,
                "backend": self.backend,
                "backend_chain": ladder(self.backend),
                "cache_dir": self.store.describe(),
                "timeout_seconds": self.timeout,
                "faults": None if self.faults is None else self.faults.describe(),
                "kernel_mode": self.kernel_mode,
                "transport": self.transport,
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

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(
        self, jobs: Sequence[SimulationJob]
    ) -> Dict[SimulationJob, JobOutcome]:
        """Obtain every job's result; cache first, then workers, then serial.

        Results are keyed by job and independent of execution order, so
        callers see identical outputs whatever path produced them —
        including runs that fell back, reran, or survived injected
        faults.  Raises :class:`JobFailedError` when a job fails
        in-process; the telemetry still records every finished job.
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
        engaged = self.workers is not None and self.workers.worth_starting(
            len(pending)
        )
        report = (
            self._dispatch(pending)
            if engaged
            else PoolReport(leftovers=list(pending))
        )
        # In-process work: (job, its attempt number, outcome source).
        # Attempt 1 is a job's first execution, 2 the rerun of a job a
        # worker was sent but did not return.
        base_source = SOURCE_FALLBACK if engaged else SOURCE_SERIAL
        serial_work: List[Tuple[SimulationJob, int, str]] = [
            (job, 2 if job in report.dispatched else 1, base_source)
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
                serial_work.append((job, 2, SOURCE_FALLBACK))
                continue
            outcomes[job] = JobOutcome(job, annotated, self.workers.source, wall)
            self._commit(job, annotated)

        failure: Optional[JobFailedError] = None
        for job, attempt, source in serial_work:
            try:
                annotated, seconds = self._execute_serial(job, attempt)
            except JobFailedError as error:
                failure = failure or error
                continue  # the other jobs still run and are cached
            outcomes[job] = JobOutcome(
                job, annotated, source, seconds, attempts=attempt
            )
            self._commit(job, annotated)

        if engaged:
            if report.leftovers:
                self._ladder.append(
                    {
                        "from": self.backend,
                        "to": "serial",
                        "jobs": len(report.leftovers),
                        "reason": (
                            report.infra_failures[-1]
                            if report.infra_failures
                            else "jobs left unfinished"
                        ),
                    }
                )
            if report.completed:
                self._rungs_used.append(self.backend)
            if serial_work:
                self._rungs_used.append("serial")
            self.telemetry.record_workers(self.workers_section())
        if failure is not None:
            raise failure

    def _dispatch(self, pending: List[SimulationJob]) -> PoolReport:
        """Run pending jobs on the workers.

        By default workers stream recorded traces from their files and
        nothing is published.  Under an opt-in ``shm``/``disk``
        transport the traces go into zero-copy arenas first; the parent
        owns them and unlinks them when the dispatch settles, however
        the workers fared.
        """
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
        return report

    def workers_section(self) -> Dict:
        """The manifest's ``workers`` section; empty until workers engaged.

        Per-host counters (cumulative over this engine's runs), the
        descents to the serial rung, the rungs that completed work and
        the final rung.
        """
        if not self._rungs_used:
            return {}
        return {
            "hosts": self.workers.snapshot(),
            "ladder": [dict(d) for d in self._ladder],
            "rungs_used": list(self._rungs_used),
            "final_rung": (
                self._rungs_used[-1] if self._rungs_used else None
            ),
        }

    def _execute_serial(
        self, job: SimulationJob, attempt: int
    ) -> Tuple[object, float]:
        """Run one job in-process, once; a failure is final.

        An exception or a result the validation gate rejects is recorded
        and raised as :class:`JobFailedError`: the job is deterministic,
        so running it again would fail the same way.
        """
        try:
            if self.faults is not None:
                self.faults.inject_serial(job, attempt)
            with Stopwatch() as sw:
                annotated = execute_job(job)
            if self.faults is not None:
                annotated = self.faults.mangle_result(job, attempt, annotated)
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

    def _commit(self, job: SimulationJob, annotated: object) -> None:
        """Persist one fresh result: cache write, then fault hooks."""
        wrote = self.store.put(job.key(), annotated)
        if wrote and self.faults is not None:
            for spec in self.faults.take_store_faults(job):
                description = apply_store_fault(self.store, job.key(), spec)
                if description:
                    self.telemetry.record_fault(description)
