"""Broken jobs, the in-process rerun, failed runs, and cache commands.

Every degradation path the engine promises to survive is exercised here
*on purpose* with the test doubles of ``conftest``: worker crashes,
raised errors, garbage results, corrupt and truncated cache entries, and
rerunning against the same cache after a simulated mid-run crash.  The
invariant under test throughout: faults may change where and when a
simulation runs, but never what it computes — reports stay byte-identical to a clean serial run.  A job
that fails in-process fails the run, and the run still leaves its
manifest and every finished job's cache entry behind.
"""

import json
import os

import pytest
from conftest import broken_in_process, broken_workers, damage_entry

from repro.cli import main
from repro.engine import (
    ExecutionEngine,
    JobFailedError,
    NullStore,
    PoolReport,
    ResultStore,
    SimulationJob,
    resolve_cache_dir,
)

#: Small enough that one simulation takes well under a second.
SMALL = 0.02

SUITE_NAMES = ("gzip", "ammp")

CLI_BASE = ["figure7", "--scale", str(SMALL), "--benchmarks", *SUITE_NAMES]


def small_jobs():
    return [SimulationJob(name, scale=SMALL) for name in SUITE_NAMES]


@pytest.fixture(autouse=True)
def isolated_env(tmp_path, monkeypatch):
    """Each test gets its own cache dir and a clean engine environment."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    for var in (
        "REPRO_JOBS",
        "REPRO_BACKEND",
    ):
        monkeypatch.delenv(var, raising=False)
    return tmp_path


@pytest.fixture(scope="module")
def reference():
    """Clean serial outcomes to compare every faulted run against."""
    engine = ExecutionEngine(jobs=1, store=NullStore())
    return engine.run(small_jobs())


def assert_results_identical(a, b):
    """Bit-identical comparison of two annotated simulation results."""
    assert a.result.cycles == b.result.cycles
    assert a.result.instructions == b.result.instructions
    assert a.result.stall_cycles == b.result.stall_cycles
    for cache in ("l1i", "l1d"):
        # Reduced populations: equal (length, class, count) rows.
        assert a.annotated_for(cache) == b.annotated_for(cache)


class TestSerialRetry:
    """A job the workers do not return is retried once, in-process."""

    def test_transient_fault_retried_then_succeeds(self, reference):
        # The worker attempt raises; the in-process rerun (attempt 2)
        # succeeds and nothing else is retried.
        engine = ExecutionEngine(jobs=2, store=NullStore(), backend="pool")
        with broken_workers(gzip="raise"):
            outcomes = engine.run(small_jobs())
        gzip_job = SimulationJob("gzip", scale=SMALL)
        ammp_job = SimulationJob("ammp", scale=SMALL)
        assert outcomes[gzip_job].source == "serial-fallback"
        assert outcomes[gzip_job].attempts == 2
        assert outcomes[ammp_job].source == "parallel"
        assert outcomes[ammp_job].attempts == 1
        assert any(
            "raised on host" in note and "RuntimeError" in note
            for note in engine.telemetry.notes
        )
        for job in small_jobs():
            assert_results_identical(
                outcomes[job].annotated, reference[job].annotated
            )

    def test_retries_exhausted_raises_and_is_recorded(self):
        # Worker attempt and in-process rerun both raise: the run fails,
        # naming the job, after one attempt of each.
        engine = ExecutionEngine(jobs=1, store=NullStore(), backend="subprocess")
        job = SimulationJob("gzip", scale=SMALL)
        with broken_workers(gzip="raise"), broken_in_process(gzip="raise"):
            with pytest.raises(JobFailedError, match="gzip") as excinfo:
                engine.run_one(job)
        assert isinstance(excinfo.value.__cause__, RuntimeError)
        assert "planted failure" in str(excinfo.value)
        assert sum("raised on host" in n for n in engine.telemetry.notes) == 1
        assert engine.telemetry.failed == 1
        assert "RuntimeError" in engine.telemetry.failures[0]["error"]
        host = engine.telemetry.workers["hosts"]["local0"]
        assert host["dispatches"] == 1

    def test_in_process_failure_is_final(self, tmp_path):
        # With no workers, attempt 1 runs in-process: its failure fails
        # the run at once, while the other job still runs and is cached.
        cache = tmp_path / "final"
        engine = ExecutionEngine(jobs=1, store=ResultStore(cache))
        with broken_in_process(gzip="raise"):
            with pytest.raises(JobFailedError, match="gzip"):
                engine.run(small_jobs())
        assert engine.telemetry.failed == 1
        assert engine.telemetry.simulated == 1  # ammp finished
        ammp_job = SimulationJob("ammp", scale=SMALL)
        assert ResultStore(cache).get(ammp_job.key()) is not None
        assert engine.telemetry.manifest()["totals"]["jobs"] == 2

    def test_untargeted_jobs_unaffected(self, reference):
        engine = ExecutionEngine(jobs=1, store=NullStore())
        job = SimulationJob("gzip", scale=SMALL)  # different benchmark
        with broken_in_process(ammp="raise"):
            outcome = engine.run_one(job)
        assert outcome.attempts == 1
        assert_results_identical(outcome.annotated, reference[job].annotated)


class TestPoolFaults:
    def test_transient_worker_fault_retried_in_pool(self, reference):
        # A raise does not kill the pool worker: each job is dispatched
        # once, the pool keeps running ammp, and only gzip moves on to
        # its in-process rerun.
        engine = ExecutionEngine(jobs=2, store=NullStore(), backend="pool")
        with broken_workers(gzip="raise"):
            outcomes = engine.run(small_jobs())
        gzip_job = SimulationJob("gzip", scale=SMALL)
        assert outcomes[gzip_job].attempts == 2
        section = engine.telemetry.workers
        hosts = section["hosts"].values()
        assert sum(host["dispatches"] for host in hosts) == len(SUITE_NAMES)
        assert sum(host["completions"] for host in hosts) == len(SUITE_NAMES) - 1
        assert sum(host["flaps"] for host in hosts) == 0
        assert outcomes[gzip_job].source == "serial-fallback"
        assert sum("raised on host" in n for n in engine.telemetry.notes) == 1
        for job in small_jobs():
            assert_results_identical(
                outcomes[job].annotated, reference[job].annotated
            )

    def test_worker_crash_finishes_run_on_fallback(self, reference):
        engine = ExecutionEngine(jobs=2, store=NullStore())
        with broken_workers(gzip="crash"):
            outcomes = engine.run(small_jobs())
        assert any("worker died" in note for note in engine.telemetry.notes)
        # The crashed job is not sent to a worker again: it finishes
        # in-process as attempt 2.
        gzip_job = SimulationJob("gzip", scale=SMALL)
        assert outcomes[gzip_job].source == "serial-fallback"
        assert outcomes[gzip_job].attempts == 2
        for job in small_jobs():
            assert_results_identical(
                outcomes[job].annotated, reference[job].annotated
            )

    def test_finished_futures_harvested_when_pool_breaks(self, reference):
        # gzip's worker dies while ammp runs on the other host: ammp's
        # completed result is kept, never re-simulated, and only gzip
        # runs again, in-process.
        engine = ExecutionEngine(jobs=2, store=NullStore())
        with broken_workers(gzip="crash"):
            outcomes = engine.run(small_jobs())
        ammp_job = SimulationJob("ammp", scale=SMALL)
        gzip_job = SimulationJob("gzip", scale=SMALL)
        assert outcomes[ammp_job].source == "parallel"
        assert outcomes[ammp_job].attempts == 1
        assert outcomes[gzip_job].attempts == 2
        for job in small_jobs():
            assert_results_identical(
                outcomes[job].annotated, reference[job].annotated
            )

    def test_pool_report_shape(self):
        report = PoolReport()
        assert report.completed == {} and report.leftovers == []
        assert report.dispatched == set() and report.notes == []


class TestStoreFaults:
    def test_corrupt_entry_quarantined_and_recomputed(self, reference, tmp_path):
        cache = tmp_path / "store-corrupt"
        job = SimulationJob("gzip", scale=SMALL)
        engine = ExecutionEngine(jobs=1, store=ResultStore(cache))
        engine.run_one(job)
        damage_entry(engine.store, job.key(), "flip")
        # The corrupted entry fails its checksum and is quarantined (moved
        # aside for forensics, never served).
        fresh = ResultStore(cache)
        assert fresh.get(job.key()) is None
        assert fresh.quarantined == 1
        assert fresh.evictions == 0
        assert not fresh.path_for(job.key()).exists()
        assert len(list(fresh.quarantine_dir.glob("*.pkl"))) == 1
        assert "checksum" in fresh.corruption_events[0]["reason"]
        # A clean engine recomputes transparently and repopulates the slot.
        engine2 = ExecutionEngine(jobs=1, store=ResultStore(cache))
        outcome = engine2.run_one(job)
        assert outcome.simulated
        assert_results_identical(outcome.annotated, reference[job].annotated)
        assert ResultStore(cache).get(job.key()) is not None

    def test_partial_write_ignored(self, reference, tmp_path):
        cache = tmp_path / "store-partial"
        job = SimulationJob("ammp", scale=SMALL)
        engine = ExecutionEngine(jobs=1, store=ResultStore(cache))
        engine.run_one(job)
        damage_entry(engine.store, job.key(), "truncate")
        fresh = ResultStore(cache)
        assert fresh.get(job.key()) is None
        outcome = ExecutionEngine(jobs=1, store=ResultStore(cache)).run_one(job)
        assert outcome.simulated
        assert_results_identical(outcome.annotated, reference[job].annotated)


class TestRerun:
    """The result cache is the only checkpoint: rerunning after a crash
    simulates exactly the jobs whose entries are not in the cache."""

    def test_rerun_after_simulated_crash_simulates_only_missing(
        self, reference, tmp_path
    ):
        cache = tmp_path / "rerun-cache"
        jobs = small_jobs()
        # First run completes gzip, then "crashes" (we simply stop).
        ExecutionEngine(jobs=1, store=ResultStore(cache)).run([jobs[0]])
        second = ExecutionEngine(jobs=1, store=ResultStore(cache))
        outcomes = second.run(jobs)
        assert outcomes[jobs[0]].source == "cached"
        assert outcomes[jobs[1]].simulated
        assert second.telemetry.simulated == 1
        for job in jobs:
            assert_results_identical(
                outcomes[job].annotated, reference[job].annotated
            )

    def test_evicted_entry_recomputed(self, reference, tmp_path):
        cache = tmp_path / "evicted"
        jobs = small_jobs()
        store = ResultStore(cache)
        ExecutionEngine(jobs=1, store=store).run(jobs)
        store.evict(jobs[0].key())  # the cache lost an entry mid-crash
        second = ExecutionEngine(jobs=1, store=ResultStore(cache))
        outcomes = second.run(jobs)
        assert outcomes[jobs[0]].simulated
        assert outcomes[jobs[1]].source == "cached"
        assert_results_identical(
            outcomes[jobs[0]].annotated, reference[jobs[0]].annotated
        )


class TestCacheBound:
    def test_unbounded_by_default(self, tmp_path):
        # The cache has no size bound: a write never evicts an entry.
        store = ResultStore(tmp_path / "unbounded")
        for index in range(5):
            store.put(f"key{index}", b"x" * 50_000)
        assert store.info()["entries"] == 5
        assert store.evictions == 0


class TestCliCacheCommands:
    def test_cache_info_and_clear(self, capsys):
        store = ResultStore()  # resolves the isolated REPRO_CACHE_DIR
        store.put("feed", [1, 2, 3])
        store.put("f00d", [4, 5, 6])
        assert main(["cache", "info"]) == 0
        out = capsys.readouterr().out
        assert "entries:         2" in out
        assert str(resolve_cache_dir()) in out
        assert main(["cache", "clear"]) == 0
        assert "removed 2" in capsys.readouterr().out
        assert main(["cache", "info"]) == 0
        assert "entries:         0" in capsys.readouterr().out

    def test_unknown_cache_action_rejected(self, capsys):
        assert main(["cache", "shrink"]) == 2
        assert "shrink" in capsys.readouterr().err

    def test_subaction_rejected_for_experiments(self, capsys):
        assert main(["table1", "info"]) == 2
        assert "cache" in capsys.readouterr().err


class TestCliRerun:
    def _clean_report(self, capsys):
        assert main([*CLI_BASE, "--jobs", "1", "--no-cache"]) == 0
        return capsys.readouterr().out

    def test_rerun_report_byte_identical(self, capsys, tmp_path):
        clean = self._clean_report(capsys)
        # Interrupted run: one benchmark cached, then the "crash".
        ExecutionEngine(jobs=1, store=ResultStore(resolve_cache_dir())).run(
            [SimulationJob("gzip", scale=SMALL)]
        )
        manifest_path = tmp_path / "rerun-manifest.json"
        assert main([*CLI_BASE, "--manifest", str(manifest_path)]) == 0
        assert capsys.readouterr().out == clean
        manifest = json.loads(manifest_path.read_text())
        assert manifest["totals"]["cached"] >= 1
        assert manifest["totals"]["simulated"] == 1
        for dropped in ("run_id", "resumed"):
            assert dropped not in manifest["engine"]

    def test_run_id_and_resume_options_rejected(self, capsys):
        for flag in ("--resume", "--run-id"):
            assert main(["run", "table1", flag, "x"]) == 2
            assert flag in capsys.readouterr().err

    def test_completed_run_reruns_to_identical_report(self, capsys):
        clean = self._clean_report(capsys)
        assert main([*CLI_BASE, "--jobs", "1"]) == 0
        assert capsys.readouterr().out == clean
        assert main([*CLI_BASE, "--jobs", "1"]) == 0
        captured = capsys.readouterr()
        assert captured.out == clean
        assert "(0 simulated, 2 cached)" in captured.err


class TestByteIdenticalUnderFaults:
    """The acceptance criterion: faults never change the report."""

    def test_faulted_parallel_run_matches_clean_serial(self, capsys):
        assert main([*CLI_BASE, "--jobs", "1", "--no-cache"]) == 0
        clean = capsys.readouterr().out
        manifest_path = resolve_cache_dir().parent / "faulted-manifest.json"
        with broken_workers(gzip="raise"):
            code = main([*CLI_BASE, "--jobs", "2", "--manifest", str(manifest_path)])
        assert code == 0
        faulted = capsys.readouterr()
        assert faulted.out == clean
        manifest = json.loads(manifest_path.read_text())
        assert manifest["manifest_version"] == 17
        assert "retries" not in manifest
        assert manifest["totals"]["fallbacks"] == 1
        gzip_row = next(
            row for row in manifest["jobs"] if row["benchmark"] == "gzip"
        )
        assert (gzip_row["source"], gzip_row["attempts"]) == (
            "serial-fallback",
            2,
        )
        # ammp's corrupted entry is quarantined on the next run: the
        # report is still identical and the run recomputes transparently.
        ammp_key = SimulationJob("ammp", scale=SMALL).key()
        damage_entry(ResultStore(resolve_cache_dir()), ammp_key, "flip")
        assert main([*CLI_BASE, "--jobs", "1"]) == 0
        rerun = capsys.readouterr()
        assert rerun.out == clean
        assert "(1 simulated, 1 cached)" in rerun.err


class TestCliJobFailure:
    """A job that fails in-process fails the command, not the record."""

    def test_failed_job_exits_1_with_manifest(self, capsys, tmp_path):
        manifest_path = tmp_path / "failed.json"
        with broken_in_process(gzip="raise"):
            code = main(
                [
                    "run", "figure9", "--scale", str(SMALL), "--jobs", "1",
                    "--manifest", str(manifest_path),
                ]
            )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [
            line for line in captured.err.splitlines()
            if line.startswith("error:")
        ]
        assert len(errors) == 1
        assert "gzip" in errors[0] and "RuntimeError" in errors[0]
        assert "1 failed" in captured.err  # the footer is still printed
        manifest = json.loads(manifest_path.read_text())
        totals = manifest["totals"]
        assert totals["failed"] == 1
        assert [f["benchmark"] for f in manifest["failures"]] == ["gzip"]
        # Every other job finished and is cached, so a rerun simulates
        # only gzip.
        assert totals["simulated"] == totals["jobs"] - 1
        entries = list(resolve_cache_dir().glob("*.pkl"))
        assert len(entries) == totals["jobs"] - 1
        assert main(["run", "figure9", "--scale", str(SMALL), "--jobs", "1"]) == 0
        assert "(1 simulated," in capsys.readouterr().err


#: The CI chaos matrix sets REPRO_CHAOS_BACKEND to pool/subprocess (each
#: engages the workers differently) or in-process (``--jobs 1``: no
#: workers at all); locally the default is pool.
CHAOS_BACKEND = os.environ.get("REPRO_CHAOS_BACKEND", "pool")
IN_PROCESS = CHAOS_BACKEND == "in-process"


@pytest.mark.skipif(
    not os.environ.get("REPRO_CHAOS"),
    reason="chaos sweep only runs with REPRO_CHAOS=1 (CI chaos job)",
)
class TestChaos:
    """End-to-end chaos: many fault kinds at once, report still identical."""

    def _run(self, manifest_name, *extra):
        manifest_path = resolve_cache_dir().parent / manifest_name
        workers = (
            ["--jobs", "1"]
            if IN_PROCESS
            else ["--jobs", "2", "--backend", CHAOS_BACKEND]
        )
        code = main(
            [*CLI_BASE, *workers, "--manifest", str(manifest_path), *extra]
        )
        return code, json.loads(manifest_path.read_text())

    def test_chaos_run_matches_clean(self, capsys):
        assert main([*CLI_BASE, "--jobs", "1", "--no-cache"]) == 0
        clean = capsys.readouterr().out
        # Workers crash on gzip and raise on ammp; with no workers
        # nothing breaks until the cache entries are damaged below.
        with broken_workers(gzip="crash", ammp="raise"):
            code, manifest = self._run("chaos-manifest.json")
        assert code == 0
        assert capsys.readouterr().out == clean
        if not IN_PROCESS:
            # Both worker attempts failed; both jobs reran in-process.
            assert manifest["totals"]["fallbacks"] == 2
            assert manifest["notes"]
        # Damage both entries the run wrote; a clean rerun quarantines
        # them and still reproduces the same report.
        store = ResultStore(resolve_cache_dir())
        damage_entry(store, SimulationJob("gzip", scale=SMALL).key(), "truncate")
        damage_entry(store, SimulationJob("ammp", scale=SMALL).key(), "flip")
        code, manifest = self._run("rerun-manifest.json")
        assert code == 0
        assert capsys.readouterr().out == clean
        assert manifest["totals"]["simulated"] == 2
        assert manifest["totals"]["cache_quarantined"] == 2

    def test_chaos_in_process_raise_fails_with_manifest(self, capsys):
        with broken_workers(gzip="raise"), broken_in_process(gzip="raise"):
            code, manifest = self._run("raise-manifest.json")
        assert code == 1
        err = capsys.readouterr().err
        assert "error: job gzip" in err
        assert manifest["totals"]["failed"] == 1
        assert manifest["failures"][0]["benchmark"] == "gzip"

    def test_chaos_degradation_matches_clean(self, capsys):
        """Garbage results on every backend.

        On the worker backends the validation gate quarantines the
        garbage result of ammp's worker attempt and the job reruns
        in-process.  A run with no workers starts no broken worker, so
        nothing breaks.  Either way the report must be byte-identical to
        a clean run.
        """
        assert main([*CLI_BASE, "--jobs", "1", "--no-cache"]) == 0
        clean = capsys.readouterr().out
        with broken_workers(ammp="garbage"):
            code, manifest = self._run("degrade-manifest.json", "--no-cache")
        assert code == 0
        assert capsys.readouterr().out == clean
        assert manifest["engine"]["backend"] == (
            "pool" if IN_PROCESS else CHAOS_BACKEND
        )
        assert (manifest["workers"] == {}) == IN_PROCESS
        if not IN_PROCESS:
            totals = manifest["totals"]
            assert totals["fallbacks"] == 1
            assert totals["quarantined_results"] == 1
            assert manifest["quarantine"][0]["benchmark"] == "ammp"
