"""Benches: framed-worker dispatch overhead on local worker processes.

Not paper artifacts — these price what the framed-worker backend adds
on top of the computation itself: worker start + ready handshake and
frame round-trips per job, measured on ``--backend subprocess`` (real
child processes speaking the real worker protocol).  The bench names
keep their historical ``remote`` prefix so their entries in
``BENCH_substrate.json`` stay comparable.  On a host with two or fewer
CPUs the two-worker bench is overhead-only (``extra_info``): two
workers cannot beat one process.
"""

import pytest

from conftest import label_overhead_only
from repro.engine import (
    ExecutionEngine,
    NullStore,
    SimulationJob,
    WorkerBackend,
    local_hosts,
)

#: Small enough that dispatch overhead dominates the measurement.
DISPATCH_SCALE = 0.02


@pytest.fixture(autouse=True)
def clean_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


def run_workers(jobs):
    engine = ExecutionEngine(jobs=2, store=NullStore(), backend="subprocess")
    outcomes = engine.run(jobs)
    assert all(o.source == "subprocess" for o in outcomes.values())
    return outcomes


def run_serial(jobs):
    engine = ExecutionEngine(jobs=1, store=NullStore())
    return engine.run(jobs)


def test_remote_dispatch_overhead(benchmark):
    """Wall cost of a two-job run on two local worker processes.

    Includes worker spawn, ready handshake, job/result frames and
    teardown — the per-dispatch price of the worker rung.
    """
    jobs = [
        SimulationJob("gzip", scale=DISPATCH_SCALE),
        SimulationJob("ammp", scale=DISPATCH_SCALE),
    ]
    label_overhead_only(benchmark)
    benchmark.pedantic(run_workers, args=(jobs,), rounds=5, iterations=1)


def test_serial_baseline_for_dispatch(benchmark):
    """The same two jobs in-process: the zero-dispatch floor."""
    jobs = [
        SimulationJob("gzip", scale=DISPATCH_SCALE),
        SimulationJob("ammp", scale=DISPATCH_SCALE),
    ]
    benchmark.pedantic(run_serial, args=(jobs,), rounds=5, iterations=1)


def test_remote_connect_handshake(benchmark):
    """Worker start + ready-frame latency for one local worker."""
    backend = WorkerBackend("subprocess", local_hosts(1))

    def handshake():
        report = backend.run([SimulationJob("gzip", scale=DISPATCH_SCALE)])
        assert len(report.completed) == 1
        return report

    benchmark.pedantic(handshake, rounds=5, iterations=1)

