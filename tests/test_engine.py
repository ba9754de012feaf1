"""Tests for repro.engine — jobs, store, parallelism, robustness, telemetry."""

import json

import pytest
from conftest import broken_workers

from repro.cli import main
from repro.cpu.pipeline import PipelineConfig
from repro.engine import (
    SCHEMA_VERSION,
    SOURCE_CACHED,
    SOURCE_FALLBACK,
    ExecutionEngine,
    NullStore,
    ResultStore,
    RunTelemetry,
    SimulationJob,
    atomic_write_bytes,
    resolve_cache_dir,
    resolve_worker_count,
    run_workers,
)
from repro.errors import EngineError, ExperimentError
from repro.experiments.runner import run_all
from repro.experiments.suite import SuiteRunner

#: Small enough that one simulation takes well under a second.
SMALL = 0.02

#: Two benchmarks keep fan-out meaningful while the suite stays fast.
SUITE_NAMES = ("gzip", "ammp")


def small_jobs():
    return [SimulationJob(name, scale=SMALL) for name in SUITE_NAMES]


@pytest.fixture(scope="module")
def warm_store(tmp_path_factory):
    """A cache directory warmed by one serial engine pass."""
    directory = tmp_path_factory.mktemp("engine-cache")
    engine = ExecutionEngine(jobs=1, store=ResultStore(directory))
    outcomes = engine.run(small_jobs())
    return directory, outcomes


def assert_results_identical(a, b):
    """Bit-identical comparison of two annotated simulation results."""
    assert a.result.cycles == b.result.cycles
    assert a.result.instructions == b.result.instructions
    assert a.result.stall_cycles == b.result.stall_cycles
    for cache in ("l1i", "l1d"):
        # Reduced populations: equal (length, class, count) rows.
        assert a.annotated_for(cache) == b.annotated_for(cache)


class TestJobs:
    def test_unknown_benchmark_rejected(self):
        with pytest.raises(EngineError):
            SimulationJob("perlbmk")

    def test_bad_scale_rejected(self):
        with pytest.raises(EngineError):
            SimulationJob("gzip", scale=0)

    def test_key_is_stable(self):
        assert SimulationJob("gzip", 0.5).key() == SimulationJob("gzip", 0.5).key()

    def test_key_separates_parameters(self):
        keys = {
            SimulationJob("gzip", 0.5).key(),
            SimulationJob("gzip", 0.25).key(),
            SimulationJob("ammp", 0.5).key(),
            SimulationJob("gzip", 0.5, PipelineConfig(base_cpi=0.8)).key(),
        }
        assert len(keys) == 4

    def test_default_pipeline_keys_like_none(self):
        job = SimulationJob("gzip", 0.5, PipelineConfig())
        assert job.pipeline is None
        assert job.key() == SimulationJob("gzip", 0.5).key()

    def test_jobs_are_hashable_cache_keys(self):
        assert SimulationJob("gzip", 0.5) == SimulationJob("gzip", 0.5)
        assert len({SimulationJob("gzip", 0.5), SimulationJob("gzip", 0.5)}) == 1


class TestParallelEquivalence:
    def test_parallel_matches_serial_bit_for_bit(self, warm_store):
        _, serial = warm_store
        parallel = ExecutionEngine(jobs=2, store=NullStore()).run(small_jobs())
        for job in small_jobs():
            assert parallel[job].source == "worker"
            assert_results_identical(parallel[job].annotated, serial[job].annotated)

    def test_duplicate_jobs_deduplicated(self):
        job = SimulationJob("gzip", scale=SMALL)
        engine = ExecutionEngine(jobs=1, store=NullStore())
        outcomes = engine.run([job, job, job])
        assert len(outcomes) == 1
        assert engine.telemetry.jobs == 1


class TestResultStore:
    def test_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get("k" * 64) is None
        assert store.put("k" * 64, {"hello": [1, 2, 3]})
        assert store.get("k" * 64) == {"hello": [1, 2, 3]}
        assert store.hits == 1 and store.misses == 1

    def test_version_bump_evicts_stale_entry(self, tmp_path):
        old = ResultStore(tmp_path, schema_version=SCHEMA_VERSION)
        old.put("deadbeef", "payload")
        bumped = ResultStore(tmp_path, schema_version=SCHEMA_VERSION + 1)
        assert bumped.get("deadbeef") is None
        assert bumped.evictions == 1
        assert not bumped.path_for("deadbeef").exists()

    def test_corrupted_entry_evicted(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("cafe", [1, 2, 3])
        path = store.path_for("cafe")
        path.write_bytes(path.read_bytes()[:-7] + b"garbage")
        assert store.get("cafe") is None
        assert not path.exists()

    def test_truncated_entry_evicted(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("beef", list(range(100)))
        path = store.path_for("beef")
        path.write_bytes(path.read_bytes()[:10])
        assert store.get("beef") is None
        assert not path.exists()

    def test_unwritable_directory_degrades_gracefully(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        store = ResultStore(blocker / "cache")
        assert not store.put("abcd", "value")
        assert store.write_errors == 1
        assert store.get("abcd") is None

    def test_atomic_write_bytes_replaces_whole_file(self, tmp_path):
        target = tmp_path / "nested" / "out.json"
        atomic_write_bytes(target, b"first")
        atomic_write_bytes(target, b"second")
        assert target.read_bytes() == b"second"
        assert [p.name for p in target.parent.iterdir()] == ["out.json"]

    def test_atomic_write_bytes_cleans_up_on_failure(self, tmp_path):
        target = tmp_path / "out.bin"
        target.write_bytes(b"old")
        with pytest.raises(TypeError):
            atomic_write_bytes(target, "not bytes")
        assert target.read_bytes() == b"old"  # never half-replaced
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    def test_cache_dir_resolution(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        assert resolve_cache_dir() == tmp_path / "env"
        assert resolve_cache_dir(tmp_path / "arg") == tmp_path / "arg"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        assert resolve_cache_dir().name == "repro-leakage"

    def test_clear(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("one", 1)
        store.put("two", 2)
        assert store.clear() == 2
        assert store.get("one") is None


class TestEngineCaching:
    def test_warm_cache_skips_all_simulation(self, warm_store):
        directory, serial = warm_store
        engine = ExecutionEngine(jobs=2, store=ResultStore(directory))
        outcomes = engine.run(small_jobs())
        assert all(o.source == SOURCE_CACHED for o in outcomes.values())
        assert engine.telemetry.cached == engine.telemetry.jobs == len(outcomes)
        assert engine.telemetry.simulated == 0
        for job in small_jobs():
            assert_results_identical(outcomes[job].annotated, serial[job].annotated)

    def test_corrupted_cache_entry_recomputed(self, warm_store, tmp_path):
        directory, serial = warm_store
        # Work on a copy so the module-scoped warm store stays intact.
        store = ResultStore(tmp_path / "cache")
        job = small_jobs()[0]
        payload = ResultStore(directory).get(job.key())
        store.put(job.key(), payload)
        store.path_for(job.key()).write_bytes(b'{"schema_version": 1}\njunk')
        engine = ExecutionEngine(jobs=1, store=store)
        outcome = engine.run_one(job)
        assert outcome.simulated
        assert_results_identical(outcome.annotated, serial[job].annotated)
        # The slot was repopulated with a valid entry.
        fresh = ResultStore(tmp_path / "cache")
        assert fresh.get(job.key()) is not None

    def test_no_cache_store_always_simulates(self):
        job = SimulationJob("gzip", scale=SMALL)
        engine = ExecutionEngine(jobs=1, store=NullStore())
        assert engine.run_one(job).simulated
        assert engine.run_one(job).simulated
        assert engine.telemetry.simulated == 2


class TestRobustness:
    def test_worker_exception_left_for_serial(self, monkeypatch):
        from repro.engine import backends

        jobs = small_jobs()
        spawn = backends._spawn_command
        spawns = []

        def counting():
            spawns.append(1)
            return spawn()

        monkeypatch.setattr(backends, "_spawn_command", counting)
        with broken_workers(**{job.benchmark: "raise" for job in jobs}):
            report = run_workers(jobs, 1)
        assert report.completed == {}
        assert report.leftovers == jobs
        assert report.dispatched == set(jobs)
        assert sum("raised in a worker" in note for note in report.notes) == 2
        # One worker served both jobs: an error frame does not kill it.
        assert spawns == [1]

    def test_worker_start_failure_falls_back_to_serial(self, monkeypatch):
        from repro.engine import backends

        def no_fork():
            raise OSError("fork refused (test)")

        monkeypatch.setattr(backends, "_spawn_command", no_fork)
        engine = ExecutionEngine(jobs=2, store=NullStore())
        outcomes = engine.run(small_jobs())
        assert all(o.source == SOURCE_FALLBACK for o in outcomes.values())
        assert all(o.attempts == 1 for o in outcomes.values())
        assert engine.telemetry.fallbacks == len(outcomes)
        notes = engine.telemetry.notes
        assert sum("failed to start" in note for note in notes) == 2


class TestWorkerCount:
    def test_explicit_wins(self):
        assert resolve_worker_count(3) == 3

    def test_default_is_cpu_count(self):
        assert resolve_worker_count() >= 1

    def test_invalid_rejected(self):
        for value in (0, -3):
            with pytest.raises(EngineError, match="at least 1"):
                resolve_worker_count(value)


class TestTelemetry:
    def test_manifest_schema(self, warm_store, tmp_path):
        directory, _ = warm_store
        engine = ExecutionEngine(jobs=2, store=ResultStore(directory))
        engine.run(small_jobs())
        path = engine.telemetry.write_manifest(tmp_path / "manifest.json")
        manifest = json.loads(open(path, encoding="utf-8").read())
        assert manifest["manifest_version"] == 18
        for dropped in ("service", "coordination"):
            assert dropped not in manifest  # went with the serving daemon
        assert "hosts" not in manifest["engine"]  # went with remote hosts
        for dropped in ("run_id", "resumed"):
            assert dropped not in manifest["engine"]  # went with run journals
        # v18: no per-worker section; a row's source says what ran it.
        assert "workers" not in manifest
        substrate = manifest["substrate"]
        assert substrate["kernel_mode"] in ("scalar", "batched", "compiled")
        assert substrate["residual_impl"] in ("python", "compiled", "scalar")
        assert substrate["transport"] in ("pickle", "shm", "disk")
        assert substrate["traces_published"] == 0  # synthetic workloads
        for row in manifest["jobs"]:
            assert row["residual_impl"] in ("", "python", "compiled", "scalar")
        assert "retries" not in manifest  # v14: one dispatch, no retries
        # v17: no fault injection, so no fault section, count or plan.
        assert "faults" not in manifest
        assert "faults" not in manifest["engine"]
        assert [name for name in manifest["totals"] if "fault" in name] == []
        assert manifest["quarantine"] == []
        for merged in ("heartbeats", "breakers", "fault_domains"):
            assert merged not in manifest  # folded into "workers", now gone
        totals = manifest["totals"]
        for field in (
            "jobs",
            "cached",
            "simulated",
            "failed",
            "fallbacks",
            "quarantined_results",
            "cache_quarantined",
            "wall_seconds",
            "instructions",
            "simulated_instructions",
            "instructions_per_second",
            "fast_path_accesses",
            "slow_path_accesses",
            "fast_path_share",
        ):
            assert field in totals
        for dropped in (
            "breaker_trips",  # v12: no breakers
            "retries",  # v14: no retries, heartbeat or sharing split
            "retried_jobs",
            "heartbeat_events",
            "cache_hits_from_earlier_runs",
            "cache_hits_from_this_run",
            "serial_fallbacks",  # v15: always equal to fallbacks
        ):
            assert dropped not in totals
        assert "retry" not in manifest["engine"]
        assert "backend_chain" not in manifest["engine"]  # v15: no ladder
        # v16: no deadline, and no copies of the substrate section's facts.
        for dropped in ("timeout_seconds", "kernel_mode", "transport"):
            assert dropped not in manifest["engine"]
        assert totals["jobs"] == len(SUITE_NAMES)
        assert totals["cached"] == totals["jobs"]
        assert manifest["store"]["hits"] == totals["jobs"]
        assert not any(key.startswith("hits_from") for key in manifest["store"])
        assert manifest["engine"]["max_workers"] == 2
        for row in manifest["jobs"]:
            assert row["benchmark"] in SUITE_NAMES
            assert row["source"] == SOURCE_CACHED
            assert len(row["key"]) == 64
            assert row["instructions"] > 0 and row["cycles"] > 0
            assert row["attempts"] == 1

    def test_summary_reports_counts(self, warm_store):
        directory, _ = warm_store
        engine = ExecutionEngine(jobs=1, store=ResultStore(directory))
        engine.run(small_jobs())
        summary = engine.telemetry.summary()
        assert "2 jobs" in summary and "2 cached" in summary

    def test_empty_summary(self):
        assert "no simulation jobs" in RunTelemetry().summary()


class TestRunnerValidation:
    def test_run_all_rejects_unknown_names_up_front(self):
        with pytest.raises(ExperimentError) as excinfo:
            run_all(names=["table1", "figure99", "nope"])
        message = str(excinfo.value)
        assert "figure99" in message and "nope" in message

    def test_suite_runner_rejects_unknown_benchmarks(self):
        with pytest.raises(ExperimentError) as excinfo:
            SuiteRunner(scale=SMALL, benchmarks=["gzip", "perlbmk"])
        assert "perlbmk" in str(excinfo.value)


class TestCliEngine:
    @pytest.fixture(autouse=True)
    def isolated_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cli-cache"))
        return tmp_path

    def test_unknown_benchmarks_rejected_before_running(self, capsys):
        assert main(["all", "--benchmarks", "gzip", "nosuch"]) == 2
        err = capsys.readouterr().err
        assert "nosuch" in err and "gzip" in err

    def test_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["table1"])
        assert args.jobs is None
        assert not args.no_cache
        assert args.manifest is None

    def test_parallel_report_matches_serial_and_cache_warms(
        self, isolated_cache, capsys
    ):
        base = [
            "figure7",
            "--scale",
            str(SMALL),
            "--benchmarks",
            *SUITE_NAMES,
        ]
        assert main([*base, "--jobs", "1", "--no-cache"]) == 0
        serial_report = capsys.readouterr().out
        manifest_path = isolated_cache / "manifest.json"
        assert (
            main([*base, "--jobs", "2", "--manifest", str(manifest_path)]) == 0
        )
        cold = capsys.readouterr()
        assert cold.out == serial_report
        cold_manifest = json.loads(manifest_path.read_text())
        assert cold_manifest["totals"]["simulated"] == len(SUITE_NAMES)
        # Warm rerun: identical report, zero simulations.
        assert (
            main([*base, "--jobs", "2", "--manifest", str(manifest_path)]) == 0
        )
        warm = capsys.readouterr()
        assert warm.out == serial_report
        assert "cached" in warm.err
        warm_manifest = json.loads(manifest_path.read_text())
        assert warm_manifest["totals"]["simulated"] == 0
        assert (
            warm_manifest["totals"]["cached"] == warm_manifest["totals"]["jobs"]
        )
