"""Framed-worker execution: engagement, one dispatch per job, the gate.

The engine promises that *where* a job runs — a local worker or
in-process — never changes *what* a run computes, only how it survives
infrastructure failure.  This module pins that promise down:

* every backend, and ``--jobs 1`` under ``pool``, produces bit-identical
  results and labels its sources;
* ``pool`` engages workers only for ``--jobs > 1`` and more than one
  pending job, ``subprocess`` always — the contract the benchmark
  workloads depend on;
* per-host counters land in the manifest, and each fresh result is
  published to the cache exactly once, even when a worker dies mid-run;
* a job is sent to a worker at most once: one the workers do not
  return runs in-process as attempt 2, and a host whose worker cannot
  start is dropped for the run;
* the invariant-validation gate quarantines garbage results before they
  can reach the cache, on every path;
* corrupt cache entries are quarantined (moved aside), surfaced in
  ``cache info``, and cleaned by ``cache clear``.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import broken_in_process, broken_workers

from repro.cli import main
from repro.engine import (
    ExecutionEngine,
    InvalidResultError,
    JobFailedError,
    NullStore,
    PoolReport,
    ResultStore,
    SimulationJob,
    build_backend,
    check_result,
    resolve_backend_name,
    resolve_cache_dir,
)
from repro.core.intervals import KIND_SHIFT, NEXTLINE, PREFETCH_FLAGS, STRIDE
from repro.engine.validate import check_raw
from repro.errors import EngineError
from repro.prefetch.analysis import annotate_workload_trace
from repro.workloads import make_benchmark

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
        "REPRO_TRANSPORT",
    ):
        monkeypatch.delenv(var, raising=False)
    return tmp_path


@pytest.fixture(scope="module")
def reference():
    """Clean serial outcomes to compare every supervised run against."""
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


class TestBackendSelection:
    def test_argument_env_default_precedence(self, monkeypatch):
        assert resolve_backend_name() == "pool"
        monkeypatch.setenv("REPRO_BACKEND", "subprocess")
        assert resolve_backend_name() == "subprocess"
        assert resolve_backend_name("pool") == "pool"  # argument wins

    def test_invalid_backend_rejected(self, monkeypatch):
        with pytest.raises(EngineError, match="REPRO_BACKEND"):
            resolve_backend_name("quantum")
        monkeypatch.setenv("REPRO_BACKEND", "cloud")
        with pytest.raises(EngineError, match="cloud"):
            ExecutionEngine(jobs=1, store=NullStore())

    def test_chain_shapes(self):
        # Every backend is the one worker backend with --jobs local hosts.
        assert list(build_backend("pool", 3).snapshot()) == [
            "local0",
            "local1",
            "local2",
        ]
        only = build_backend("subprocess", 1)
        assert (only.name, list(only.snapshot())) == ("subprocess", ["local0"])
        assert ExecutionEngine(jobs=1, store=NullStore()).workers.name == "pool"

    def test_serial_is_not_a_backend(self, capsys, monkeypatch):
        # No workers is --jobs 1 under pool, not a backend of its own.
        assert main([*CLI_BASE, "--backend", "serial"]) == 2
        assert "invalid choice" in capsys.readouterr().err
        monkeypatch.setenv("REPRO_BACKEND", "serial")
        with pytest.raises(EngineError, match="pool, subprocess"):
            ExecutionEngine(jobs=1, store=NullStore())

    def test_cli_rejects_unknown_backend(self, capsys):
        assert main([*CLI_BASE, "--backend", "quantum"]) == 2
        assert "invalid choice" in capsys.readouterr().err


class TestBackendEquivalence:
    @pytest.mark.parametrize(
        ("backend", "jobs", "source"),
        [
            # No workers: --jobs 1 under pool runs every job in-process.
            pytest.param("pool", 1, "serial", id="serial-serial"),
            pytest.param("pool", 2, "parallel", id="pool-parallel"),
            pytest.param(
                "subprocess", 2, "subprocess", id="subprocess-subprocess"
            ),
        ],
    )
    def test_identical_results_and_sources(
        self, backend, jobs, source, reference
    ):
        engine = ExecutionEngine(jobs=jobs, store=NullStore(), backend=backend)
        outcomes = engine.run(small_jobs())
        assert engine.telemetry.context["backend"] == backend
        for job in small_jobs():
            assert outcomes[job].source == source
            assert outcomes[job].attempts == 1
            assert_results_identical(
                outcomes[job].annotated, reference[job].annotated
            )
        section = engine.telemetry.workers
        if jobs == 1:
            assert section == {}
        else:
            assert list(section) == ["hosts"]
            assert set(section["hosts"]) == {"local0", "local1"}

    def test_single_job_skips_the_pool(self):
        # One pending job is not worth a pool: plain serial, no fallback.
        engine = ExecutionEngine(jobs=4, store=NullStore(), backend="pool")
        outcome = engine.run_one(SimulationJob("gzip", scale=SMALL))
        assert outcome.source == "serial"
        assert engine.telemetry.fallbacks == 0


@pytest.fixture()
def spawns(monkeypatch):
    """Counts worker processes the backend starts (hosts, in order)."""
    from repro.engine import backends

    started = []
    real = backends._Connection.__init__

    def counting(self, label, inbox):
        started.append(label)
        real(self, label, inbox)

    monkeypatch.setattr(backends._Connection, "__init__", counting)
    return started


class TestEngagement:
    """Which backends start workers — the benchmark workloads rely on it."""

    def _run(self, extra, manifest_path):
        assert main([*CLI_BASE, "--no-cache", "--manifest", str(manifest_path),
                     *extra]) == 0
        return json.loads(Path(manifest_path).read_text())

    @pytest.mark.parametrize(
        "extra",
        [["--jobs", "1"], ["--backend", "pool", "--jobs", "1"]],
        ids=["default", "pool-jobs1"],
    )
    def test_jobs1_runs_in_process(self, extra, spawns, tmp_path, capsys):
        manifest = self._run(extra, tmp_path / "m.json")
        assert [row["source"] for row in manifest["jobs"]] == ["serial"] * 2
        assert manifest["workers"] == {}
        assert spawns == []

    def test_subprocess_jobs1_uses_one_worker(self, spawns, tmp_path, capsys):
        manifest = self._run(
            ["--backend", "subprocess", "--jobs", "1"], tmp_path / "m.json"
        )
        assert [row["source"] for row in manifest["jobs"]] == [
            "subprocess"
        ] * 2
        assert spawns == ["local0"]
        host = manifest["workers"]["hosts"]["local0"]
        assert (host["connects"], host["dispatches"]) == (1, 2)

    def test_arenas_published_only_when_workers_run(self, tmp_path,
                                                    monkeypatch):
        from repro.traces import format_trace_ref, record_benchmark

        # Arenas are opt-in: the default transport publishes nothing.
        monkeypatch.setenv("REPRO_TRANSPORT", "shm")

        refs = []
        for name in SUITE_NAMES:
            path = tmp_path / f"{name}.rtr"
            record_benchmark(name, path, scale=SMALL, chunk_instructions=20_000)
            refs.append(format_trace_ref(path))
        jobs = [SimulationJob(ref) for ref in refs]
        for backend, published in (("pool", 0), ("subprocess", 2)):
            engine = ExecutionEngine(jobs=1, store=NullStore(), backend=backend)
            engine.run(jobs)
            substrate = engine.telemetry.manifest()["substrate"]
            assert substrate["traces_published"] == published, backend


class TestLocalHosts:
    """Per-host counters and exactly-once publication on local workers."""

    def _engine(self, **kwargs):
        kwargs.setdefault("jobs", 2)
        kwargs.setdefault("store", NullStore())
        return ExecutionEngine(backend="subprocess", **kwargs)

    def test_deadline_knobs(self):
        from repro.engine import backends

        # Only a worker's start-up is bounded; a dispatch has no deadline.
        assert backends._READY_TIMEOUT_SECONDS == 10.0

    def test_host_counters_in_manifest(self):
        engine = self._engine(jobs=1)
        engine.run(small_jobs())
        host = engine.telemetry.manifest()["workers"]["hosts"]["local0"]
        assert host["connects"] == 1
        assert host["dispatches"] == len(SUITE_NAMES)
        assert host["completions"] == len(SUITE_NAMES)

    def test_results_cached_exactly_once(self, tmp_path):
        store = ResultStore(tmp_path / "worker-cache")
        engine = self._engine(store=store)
        engine.run(small_jobs())
        entries = sorted(p.name for p in store.directory.glob("*.pkl"))
        assert len(entries) == len(SUITE_NAMES)
        # Warm rerun: every job is a cache hit, no worker dispatch at all.
        rerun = self._engine(store=ResultStore(tmp_path / "worker-cache"))
        outcomes = rerun.run(small_jobs())
        assert all(o.source == "cached" for o in outcomes.values())
        assert sorted(p.name for p in store.directory.glob("*.pkl")) == entries

    def test_killed_host_mid_run_publishes_exactly_once(
        self, tmp_path, reference
    ):
        # gzip's worker dies after accepting the job; gzip finishes
        # in-process, each entry is published exactly once, and the
        # outcomes match the serial oracle.
        store = ResultStore(tmp_path / "chaos-cache")
        engine = self._engine(store=store)
        with broken_workers(gzip="crash"):
            outcomes = engine.run(small_jobs())
        gzip_job = SimulationJob("gzip", scale=SMALL)
        for job in small_jobs():
            expected = "serial-fallback" if job == gzip_job else "subprocess"
            assert outcomes[job].source == expected
            assert_results_identical(
                outcomes[job].annotated, reference[job].annotated
            )
        assert len(list(store.directory.glob("*.pkl"))) == len(SUITE_NAMES)
        profile = engine.telemetry.manifest()["workers"]
        assert sum(host["flaps"] for host in profile["hosts"].values()) == 1
        assert any(
            "worker died" in note and "in-process" in note
            for note in engine.telemetry.notes
        )
        more = engine.run(small_jobs())
        assert all(o.source == "cached" for o in more.values())


class _ScriptedWorkers:
    """Stands in for the worker backend; returns a programmed report."""

    name = "subprocess"
    source = "subprocess"

    def __init__(self, behavior):
        self.behavior = behavior
        self.calls = []

    def snapshot(self):
        return {}

    def run(self, jobs):
        self.calls.append(list(jobs))
        return self.behavior(jobs)


def _broken(jobs):
    return PoolReport(
        leftovers=list(jobs),
        dispatched=set(jobs),
        notes=["backend exploded"],
    )


def _scripted_engine(behavior):
    engine = ExecutionEngine(jobs=2, store=NullStore(), backend="subprocess")
    engine.workers = _ScriptedWorkers(behavior)
    return engine


class TestSupervisor:
    """What the workers do not return runs in-process."""

    def test_degrades_to_next_backend_with_attempts_intact(self, reference):
        engine = _scripted_engine(_broken)
        outcomes = engine.run(small_jobs())
        for job in small_jobs():
            # Serial numbers its rerun after the worker attempt.
            assert outcomes[job].source == "serial-fallback"
            assert outcomes[job].attempts == 2
            assert_results_identical(
                outcomes[job].annotated, reference[job].annotated
            )
        assert engine.telemetry.notes == ["backend exploded"]
        assert engine.telemetry.workers == {"hosts": {}}

    def test_exhausted_jobs_skip_remaining_backends(self):
        # Jobs the workers never got (every host dropped) run in-process
        # as attempt 1, and the workers are not asked again.
        def no_hosts(jobs):
            return PoolReport(leftovers=list(jobs))

        engine = _scripted_engine(no_hosts)
        job = SimulationJob("gzip", scale=SMALL)
        outcome = engine.run_one(job)
        assert outcome.source == "serial-fallback"
        assert outcome.attempts == 1
        assert engine.workers.calls == [[job]]


class TestSubprocessBackend:
    def test_flapping_worker_respawned_transparently(self, reference):
        # gzip's worker dies once.  The single host respawns a worker and
        # runs ammp on it; gzip finishes in-process as attempt 2.
        engine = ExecutionEngine(jobs=1, store=NullStore(), backend="subprocess")
        with broken_workers(gzip="crash"):
            outcomes = engine.run(small_jobs())
        gzip_job = SimulationJob("gzip", scale=SMALL)
        ammp_job = SimulationJob("ammp", scale=SMALL)
        assert outcomes[ammp_job].source == "subprocess"
        assert outcomes[ammp_job].attempts == 1
        assert outcomes[gzip_job].attempts == 2
        assert any("worker died" in note for note in engine.telemetry.notes)
        host = engine.telemetry.workers["hosts"]["local0"]
        assert (host["flaps"], host["connects"]) == (1, 2)
        assert host["completions"] == 1
        for job in small_jobs():
            assert_results_identical(
                outcomes[job].annotated, reference[job].annotated
            )

    def test_persistent_flapping_exhausts_retries_then_serial(self, reference):
        # gzip kills every worker that runs it.  Its one worker dispatch
        # is its whole worker budget: it is never sent to a worker again
        # and finishes in-process.
        engine = ExecutionEngine(jobs=1, store=NullStore(), backend="subprocess")
        with broken_workers(gzip="crash"):
            outcomes = engine.run(small_jobs())
        gzip_job = SimulationJob("gzip", scale=SMALL)
        assert outcomes[gzip_job].source == "serial-fallback"
        assert outcomes[gzip_job].attempts == 2
        host = engine.telemetry.workers["hosts"]["local0"]
        assert host["dispatches"] == len(SUITE_NAMES)
        assert host["flaps"] == 1
        [note] = engine.telemetry.notes
        assert note.startswith("host local0 worker died (exit ")
        assert note.endswith(f"running gzip@{SMALL}; running it in-process")
        assert_results_identical(
            outcomes[gzip_job].annotated, reference[gzip_job].annotated
        )

    @pytest.mark.parametrize(
        "modes", [{}, {"gzip": "crash"}], ids=["clean", "worker-died"]
    )
    def test_worker_pipes_closed_after_the_run(self, monkeypatch, modes):
        # Both pipes of every worker are closed once its process has
        # exited, so the garbage collector finds no open file to warn of.
        import gc
        import sys
        import warnings

        leaked = []
        monkeypatch.setattr(sys, "unraisablehook", leaked.append)
        with warnings.catch_warnings(), broken_workers(**modes):
            warnings.simplefilter("error", ResourceWarning)
            engine = ExecutionEngine(
                jobs=1, backend="subprocess", store=NullStore()
            )
            engine.run([SimulationJob("gzip", scale=SMALL)])
            del engine
            gc.collect()
        assert [str(hook.exc_value) for hook in leaked] == []

    @pytest.mark.parametrize(
        "script",
        ["raise SystemExit(3)", "import time; time.sleep(30)"],
        ids=["exits-at-once", "never-ready"],
    )
    def test_worker_start_failure_drops_the_host(
        self, reference, monkeypatch, script
    ):
        import sys

        from repro.engine import backends

        def broken_spawn():
            return [sys.executable, "-c", script], None

        monkeypatch.setattr(backends, "_spawn_command", broken_spawn)
        monkeypatch.setattr(backends, "_READY_TIMEOUT_SECONDS", 0.5)
        engine = ExecutionEngine(jobs=2, store=NullStore(), backend="subprocess")
        outcomes = engine.run(small_jobs())
        for job in small_jobs():
            assert outcomes[job].source == "serial-fallback"
            assert outcomes[job].attempts == 1  # no worker ever ran it
            assert_results_identical(
                outcomes[job].annotated, reference[job].annotated
            )
        hosts = engine.telemetry.workers["hosts"]
        for host in hosts.values():
            # Each host tried one start, failed it and left the run.
            assert host["connect_failures"] == 1
            assert (host["connects"], host["dispatches"]) == (1, 0)
        assert any(
            "no worker host left" in note for note in engine.telemetry.notes
        )


class TestValidationGate:
    def test_clean_result_passes(self, reference):
        job = SimulationJob("gzip", scale=SMALL)
        assert check_result(reference[job].annotated) == []

    def test_spectrum_priced_energies_match_raw_sums(self):
        from repro.core.oracle import oracle_energy
        from repro.engine.validate import _gate_context, _gate_energies

        annotated = annotate_workload_trace(
            make_benchmark("gzip", scale=0.05).chunks()
        )
        model, _ = _gate_context()
        for cache in ("l1i", "l1d"):
            intervals = annotated.annotated_for(cache).intervals
            lengths = intervals.lengths
            baseline, oracle = _gate_energies(intervals.reduced())
            assert baseline == pytest.approx(
                float(model.active_energy_array(lengths).sum()), rel=1e-9
            )
            assert oracle == pytest.approx(
                oracle_energy(model, lengths), rel=1e-9
            )

    def test_never_raises_on_alien_payloads(self):
        assert check_result(object()) == [
            "payload carries no simulation result"
        ]

    def test_negative_cycles_caught(self, reference):
        job = SimulationJob("gzip", scale=SMALL)
        good = reference[job].annotated
        bad = replace(good, result=replace(good.result, cycles=-1))
        assert any("cycles" in v for v in check_result(bad))

    def test_overlapping_flags_caught(self, reference):
        job = SimulationJob("gzip", scale=SMALL)
        good = reference[job].annotated
        # A reduction never sets both flags, but a corrupt payload can.
        classes = good.l1i.classes | NEXTLINE | STRIDE
        bad = replace(good, l1i=replace(good.l1i, classes=classes))
        assert any("overlap" in v for v in check_result(bad))

    @pytest.mark.parametrize(
        "mangle, violation",
        [
            (lambda p: replace(p, lengths=p.lengths[::-1].copy()), "not sorted"),
            (
                lambda p: replace(p, counts=np.where(p.counts > 1, 0, p.counts)),
                "counts must be positive",
            ),
            (
                lambda p: replace(p, classes=p.classes | NEXTLINE | STRIDE),
                "next-line and stride flags overlap",
            ),
            (
                lambda p: replace(
                    p, classes=(p.classes & PREFETCH_FLAGS) | (3 << KIND_SHIFT)
                ),
                "unknown interval kinds",
            ),
        ],
        ids=["unsorted-lengths", "zero-count", "nextline-and-stride", "kind-3"],
    )
    def test_mangled_population_quarantined(
        self, reference, tmp_path, monkeypatch, mangle, violation
    ):
        import repro.engine.parallel as parallel

        job = SimulationJob("gzip", scale=SMALL)
        good = reference[job].annotated
        bad = replace(good, l1d=mangle(good.l1d))
        assert any(violation in v for v in check_result(bad))
        # A worker returns it; the parent's gate quarantines it and
        # reruns the job in-process.
        monkeypatch.setattr(parallel, "execute_job", lambda job: good)
        engine = ExecutionEngine(
            jobs=1, store=ResultStore(tmp_path), backend="subprocess"
        )
        engine.workers = _ScriptedWorkers(
            lambda jobs: PoolReport(
                completed={job: (bad, 0.0)}, dispatched={job}
            )
        )
        outcome = engine.run_one(job)
        assert outcome.source == "serial-fallback"
        assert outcome.attempts == 2
        (quarantine,) = engine.telemetry.quarantines
        assert any(violation in v for v in quarantine["violations"])
        cached = ResultStore(tmp_path).get(job.key())
        assert cached is not None and check_result(cached) == []

    def test_clean_raw_result_passes_the_job_gate(self):
        raw = annotate_workload_trace(make_benchmark("gzip", scale=SMALL).chunks())
        assert check_raw(raw) == []

    def test_misaligned_raw_flags_raise_in_the_job(self, monkeypatch):
        import repro.engine.jobs as jobs

        simulate = jobs.AnnotatingSimulator.run

        def misaligned(self, trace):
            raw = simulate(self, trace)
            # Constructors forbid this; a buggy annotator could not.
            object.__setattr__(raw.l1d, "tail", raw.l1d.tail[:-1])
            return raw

        monkeypatch.setattr(jobs.AnnotatingSimulator, "run", misaligned)
        with pytest.raises(InvalidResultError, match="tail flags misaligned"):
            jobs.execute_job(SimulationJob("gzip", scale=SMALL))

    def test_garbage_result_quarantined_and_retried(self, reference, tmp_path):
        # The worker's result is garbage; the in-process rerun is clean.
        cache = tmp_path / "gate-cache"
        engine = ExecutionEngine(
            jobs=1, store=ResultStore(cache), backend="subprocess"
        )
        job = SimulationJob("gzip", scale=SMALL)
        with broken_workers(gzip="garbage"):
            outcome = engine.run_one(job)
        assert outcome.attempts == 2
        quarantine = engine.telemetry.quarantines
        assert len(quarantine) == 1
        assert quarantine[0]["where"] == "subprocess"
        assert any("cycles" in v for v in quarantine[0]["violations"])
        # Only the clean rerun reached the cache, and it passes the gate.
        cached = ResultStore(cache).get(job.key())
        assert cached is not None and check_result(cached) == []
        assert_results_identical(outcome.annotated, reference[job].annotated)

    def test_persistent_garbage_never_cached(self, tmp_path):
        cache = tmp_path / "poisoned"
        engine = ExecutionEngine(jobs=1, store=ResultStore(cache))
        job = SimulationJob("gzip", scale=SMALL)
        with broken_in_process(gzip="garbage"):
            with pytest.raises(JobFailedError) as excinfo:
                engine.run_one(job)
        assert isinstance(excinfo.value.__cause__, InvalidResultError)
        assert engine.telemetry.failed == 1
        assert len(engine.telemetry.quarantines) == 1  # one attempt
        assert ResultStore(cache).get(job.key()) is None
        assert not ResultStore(cache).path_for(job.key()).exists()

    def test_gate_covers_subprocess_completions(self, reference):
        engine = ExecutionEngine(jobs=2, store=NullStore(), backend="subprocess")
        with broken_workers(gzip="garbage"):
            outcomes = engine.run(small_jobs())
        gzip_job = SimulationJob("gzip", scale=SMALL)
        assert outcomes[gzip_job].source == "serial-fallback"
        assert outcomes[gzip_job].attempts == 2
        quarantine = engine.telemetry.quarantines
        assert quarantine and quarantine[0]["where"] == "subprocess"
        assert_results_identical(
            outcomes[gzip_job].annotated, reference[gzip_job].annotated
        )


class TestStoreQuarantine:
    def _poison(self, store, key):
        path = store.path_for(key)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2] + b"\xde\xad\xbe\xef")

    def test_cache_info_reports_quarantined_entries(self, capsys):
        store = ResultStore()  # resolves the isolated REPRO_CACHE_DIR
        store.put("feed", [1, 2, 3])
        self._poison(store, "feed")
        fresh = ResultStore()
        assert fresh.get("feed") is None
        assert fresh.quarantined == 1
        assert main(["cache", "info"]) == 0
        out = capsys.readouterr().out
        assert "quarantined:     1 corrupt entry" in out
        assert str(fresh.quarantine_dir) in out

    def test_cache_clear_sweeps_quarantine(self, capsys):
        store = ResultStore()
        store.put("feed", [1, 2, 3])
        self._poison(store, "feed")
        ResultStore().get("feed")
        assert main(["cache", "clear"]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert main(["cache", "info"]) == 0
        assert "quarantined:     0" in capsys.readouterr().out

    def test_quarantine_lands_in_the_run_manifest(self, tmp_path):
        cache = tmp_path / "manifested"
        job = SimulationJob("gzip", scale=SMALL)
        seed = ExecutionEngine(jobs=1, store=ResultStore(cache))
        seed.run_one(job)
        self._poison(seed.store, job.key())
        engine = ExecutionEngine(jobs=1, store=ResultStore(cache))
        engine.run_one(job)
        manifest = engine.telemetry.manifest()
        assert manifest["totals"]["cache_quarantined"] == 1
        assert manifest["store"]["quarantined"] == 1
        assert manifest["store"]["corruption_events"][0]["key"] == job.key()


class TestGracefulDegradation:
    """The acceptance criterion: a dead worker never changes the report."""

    def test_degraded_run_report_byte_identical(self, capsys):
        assert main([*CLI_BASE, "--jobs", "1", "--no-cache"]) == 0
        clean = capsys.readouterr().out
        manifest_path = resolve_cache_dir().parent / "degraded-manifest.json"
        with broken_workers(gzip="crash"):
            code = main(
                [
                    *CLI_BASE,
                    "--jobs",
                    "2",
                    "--backend",
                    "pool",
                    "--no-cache",
                    "--manifest",
                    str(manifest_path),
                ]
            )
        assert code == 0
        degraded = capsys.readouterr()
        assert degraded.out == clean
        manifest = json.loads(manifest_path.read_text())
        assert manifest["engine"]["backend"] == "pool"
        assert manifest["totals"]["fallbacks"] == 1
        assert sum(
            host["flaps"] for host in manifest["workers"]["hosts"].values()
        ) == 1
        gzip_row = next(
            row for row in manifest["jobs"] if row["benchmark"] == "gzip"
        )
        assert gzip_row["attempts"] == 2
