"""Benches: framed-worker dispatch overhead over local exec hosts.

Not paper artifacts — these price what the framed-worker backend adds
on top of the computation itself: connect + ready handshake, frame
round-trips per job, and the digest trace-fetch path.  All measured
against local ``exec`` hosts (real subprocesses speaking the real
worker protocol), so the numbers isolate protocol cost from network
cost.  On a host with two or fewer CPUs the two-host benches are
overhead-only (``extra_info``): two workers cannot beat one process.
"""

import os

import pytest

from conftest import label_overhead_only
from repro.engine import (
    ExecutionEngine,
    NullStore,
    RetryPolicy,
    SimulationJob,
    WorkerBackend,
    default_retry_policy,
    parse_hosts,
)

#: Small enough that dispatch overhead dominates the measurement.
DISPATCH_SCALE = 0.02

FAST_RETRY = RetryPolicy(max_attempts=2, base_delay=0.01)


@pytest.fixture(autouse=True)
def clean_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    for var in ("REPRO_FAULTS", "REPRO_HOSTS", "REPRO_REMOTE_FETCH"):
        monkeypatch.delenv(var, raising=False)


def run_remote(jobs):
    engine = ExecutionEngine(
        jobs=2,
        store=NullStore(),
        backend="remote",
        hosts="exec,exec",
        retry=FAST_RETRY,
    )
    outcomes = engine.run(jobs)
    assert all(o.source == "remote" for o in outcomes.values())
    return outcomes


def run_serial(jobs):
    engine = ExecutionEngine(jobs=1, store=NullStore(), backend="serial")
    return engine.run(jobs)


def test_remote_dispatch_overhead(benchmark):
    """Wall cost of a two-job run over loopback exec hosts.

    Includes worker spawn, ready handshake, job/result frames and
    teardown — the per-dispatch price of the worker rung.
    """
    jobs = [
        SimulationJob("gzip", scale=DISPATCH_SCALE),
        SimulationJob("ammp", scale=DISPATCH_SCALE),
    ]
    label_overhead_only(benchmark)
    benchmark.pedantic(run_remote, args=(jobs,), rounds=3, iterations=1)


def test_serial_baseline_for_dispatch(benchmark):
    """The same two jobs in-process: the zero-dispatch floor."""
    jobs = [
        SimulationJob("gzip", scale=DISPATCH_SCALE),
        SimulationJob("ammp", scale=DISPATCH_SCALE),
    ]
    benchmark.pedantic(run_serial, args=(jobs,), rounds=3, iterations=1)


def test_remote_connect_handshake(benchmark):
    """Connect + ready-frame latency for one local exec host."""
    backend = WorkerBackend("remote", parse_hosts("exec:bench"))

    def handshake():
        report = backend.run(
            [SimulationJob("gzip", scale=DISPATCH_SCALE)],
            default_retry_policy(),
        )
        assert len(report.completed) == 1
        return report

    benchmark.pedantic(handshake, rounds=3, iterations=1)


def test_remote_trace_fetch_round_trip(benchmark, tmp_path_factory, monkeypatch):
    """One job whose trace is force-fetched by digest every round."""
    from repro.traces import format_trace_ref, record_benchmark
    from repro.traces.fetch import staged_trace_path

    monkeypatch.setenv("REPRO_REMOTE_FETCH", "always")
    path = tmp_path_factory.mktemp("bench-remote") / "gzip.rtr"
    info = record_benchmark(
        "gzip", path, scale=DISPATCH_SCALE, chunk_instructions=20_000
    )
    job = SimulationJob(format_trace_ref(path), scale=1.0)

    def fetch_run():
        staged = staged_trace_path(info.digest)
        if staged.exists():
            staged.unlink()  # every round pays the full fetch
        return run_remote([job])

    benchmark.pedantic(fetch_run, rounds=3, iterations=1)
    benchmark.extra_info["trace_bytes"] = path.stat().st_size
