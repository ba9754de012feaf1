"""Execution engine: cache-aware simulation on framed workers.

The substrate under every experiment.  Jobs (:mod:`~repro.engine.jobs`)
name deterministic simulation points; :class:`ExecutionEngine`
(:mod:`~repro.engine.parallel`) resolves them through a content-addressed
on-disk cache (:mod:`~repro.engine.store`), then the framed-worker
backend (:mod:`~repro.engine.backends`: local worker processes, each
running :mod:`~repro.engine.worker` and sent each job at most once),
then one in-process run of every job the workers did not return — with
an invariant-validation gate on every fresh result
(:mod:`~repro.engine.validate`) and run telemetry
(:mod:`~repro.engine.telemetry`).  An in-process failure is final and
raises :class:`JobFailedError`.  The result cache is the only record of
progress: rerunning a failed or interrupted run against the same cache
simulates only the jobs it had not finished.  A deterministic
fault-injection harness (:mod:`~repro.engine.faults`, off unless
``REPRO_FAULTS`` is set) makes every degradation path testable on
purpose.

Quickstart::

    from repro.engine import ExecutionEngine, SimulationJob

    engine = ExecutionEngine(jobs=4, backend="subprocess")
    outcomes = engine.run([SimulationJob("gzip", scale=0.25),
                           SimulationJob("ammp", scale=0.25)])
    print(engine.telemetry.summary())
"""

from .backends import (
    BACKEND_NAMES,
    ENV_BACKEND,
    ENV_JOB_TIMEOUT,
    PoolReport,
    WorkerBackend,
    build_backend,
    default_job_timeout,
    ladder,
    local_hosts,
    resolve_backend_name,
)
from .faults import (
    CRASH_EXIT_CODE,
    ENV_FAULTS,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    active_plan,
    apply_store_fault,
    parse_fault_plan,
)
from .jobs import (
    SCHEMA_VERSION,
    SOURCE_CACHED,
    SOURCE_FALLBACK,
    SOURCE_PARALLEL,
    SOURCE_SERIAL,
    SOURCE_SUBPROCESS,
    JobOutcome,
    SimulationJob,
    execute_job,
    job_result_payload,
)
from .parallel import (
    ENV_JOBS,
    ExecutionEngine,
    JobFailedError,
    resolve_worker_count,
)
from .store import (
    DEFAULT_CACHE_DIR,
    ENV_CACHE_DIR,
    ENV_CACHE_MAX_MB,
    NullStore,
    ResultStore,
    atomic_write_bytes,
    resolve_cache_dir,
    resolve_cache_limit,
)
from .telemetry import MANIFEST_VERSION, JobRecord, RunTelemetry, Stopwatch
from .validate import InvalidResultError, check_raw, check_result

__all__ = [
    "BACKEND_NAMES",
    "CRASH_EXIT_CODE",
    "DEFAULT_CACHE_DIR",
    "ENV_BACKEND",
    "ENV_CACHE_DIR",
    "ENV_CACHE_MAX_MB",
    "ENV_FAULTS",
    "ENV_JOBS",
    "ENV_JOB_TIMEOUT",
    "ExecutionEngine",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "InvalidResultError",
    "JobFailedError",
    "JobOutcome",
    "JobRecord",
    "MANIFEST_VERSION",
    "NullStore",
    "PoolReport",
    "ResultStore",
    "RunTelemetry",
    "SCHEMA_VERSION",
    "SOURCE_CACHED",
    "SOURCE_FALLBACK",
    "SOURCE_PARALLEL",
    "SOURCE_SERIAL",
    "SOURCE_SUBPROCESS",
    "SimulationJob",
    "Stopwatch",
    "WorkerBackend",
    "active_plan",
    "apply_store_fault",
    "atomic_write_bytes",
    "build_backend",
    "check_raw",
    "check_result",
    "default_job_timeout",
    "execute_job",
    "job_result_payload",
    "ladder",
    "local_hosts",
    "parse_fault_plan",
    "resolve_backend_name",
    "resolve_cache_dir",
    "resolve_cache_limit",
    "resolve_worker_count",
]
