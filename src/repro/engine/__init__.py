"""Execution engine: cache-aware simulation on framed workers.

The substrate under every experiment.  Jobs (:mod:`~repro.engine.jobs`)
name deterministic simulation points; :class:`ExecutionEngine`
(:mod:`~repro.engine.parallel`) resolves them through a content-addressed
on-disk cache (:mod:`~repro.engine.store`), then local worker processes
(:func:`~repro.engine.backends.run_workers`: one thread per worker slot,
each worker running :mod:`~repro.engine.worker` and sent each job at
most once), then one in-process run of every job the workers did not
return — with an invariant-validation gate on every fresh result
(:mod:`~repro.engine.validate`) and run telemetry
(:mod:`~repro.engine.telemetry`).  An in-process failure is final and
raises :class:`JobFailedError`.  The result cache is the only record of
progress: rerunning a failed or interrupted run against the same cache
simulates only the jobs it had not finished.

Quickstart::

    from repro.engine import ExecutionEngine, SimulationJob

    engine = ExecutionEngine(jobs=4, backend="subprocess")
    outcomes = engine.run([SimulationJob("gzip", scale=0.25),
                           SimulationJob("ammp", scale=0.25)])
    print(engine.telemetry.summary())

Every name is re-exported lazily, on first use: a run that finds all
its results in the cache never loads the worker module or the trace
transport.
"""

from __future__ import annotations

from importlib import import_module

#: Re-exported name -> the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(("PoolReport", "run_workers"), "backends"),
    **dict.fromkeys(
        ("BACKEND_NAMES", "resolve_backend_name", "resolve_worker_count"),
        "config",
    ),
    **dict.fromkeys(
        (
            "SCHEMA_VERSION",
            "SOURCE_CACHED",
            "SOURCE_FALLBACK",
            "SOURCE_SERIAL",
            "SOURCE_WORKER",
            "JobOutcome",
            "SimulationJob",
            "execute_job",
            "job_result_payload",
        ),
        "jobs",
    ),
    **dict.fromkeys(("ExecutionEngine", "JobFailedError"), "parallel"),
    **dict.fromkeys(
        (
            "DEFAULT_CACHE_DIR",
            "ENV_CACHE_DIR",
            "NullStore",
            "ResultStore",
            "atomic_write_bytes",
            "resolve_cache_dir",
        ),
        "store",
    ),
    **dict.fromkeys(
        ("MANIFEST_VERSION", "JobRecord", "RunTelemetry", "Stopwatch"),
        "telemetry",
    ),
    **dict.fromkeys(("InvalidResultError", "check_result"), "validate"),
}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


__all__ = sorted(_EXPORTS)
