"""Framed-worker execution: engagement, one dispatch per job, the gate.

The engine promises that *where* a job runs — a local worker or
in-process — never changes *what* a run computes, only how it survives
infrastructure failure.  This module pins that promise down:

* every backend, and ``--jobs 1`` under ``pool``, produces bit-identical
  results and labels its sources;
* ``pool`` engages workers only for ``--jobs > 1`` and more than one
  pending job, ``subprocess`` always — the contract the benchmark
  workloads depend on;
* each fresh result is published to the cache exactly once, even when a
  worker dies mid-run;
* a job is sent to a worker at most once: one the workers do not
  return runs in-process as attempt 2, a slot spawns a fresh worker
  for its next job, and a slot whose worker cannot start ends;
* the invariant-validation gate quarantines garbage results before they
  can reach the cache, on every path;
* corrupt cache entries are quarantined (moved aside), surfaced in
  ``cache info``, and cleaned by ``cache clear``.
"""

import json
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import broken_in_process, broken_workers, run_recorded

from repro.cli import main
from repro.engine import (
    ExecutionEngine,
    InvalidResultError,
    JobFailedError,
    NullStore,
    PoolReport,
    ResultStore,
    SimulationJob,
    check_result,
    resolve_backend_name,
    resolve_cache_dir,
    run_workers,
)
from repro.core.intervals import (
    KIND_SHIFT,
    NEXTLINE,
    PREFETCH_FLAGS,
    STRIDE,
    IntervalRows,
)
from repro.engine.jobs import execute_job
from repro.errors import EngineError
from repro.prefetch.analysis import AnnotatingSimulator, _ChunkAnnotator
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
    monkeypatch.delenv("REPRO_TRANSPORT", raising=False)
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
    def test_argument_env_default_precedence(self):
        # The argument (--backend) is the only selector; the default is pool.
        assert resolve_backend_name() == "pool"
        assert resolve_backend_name("subprocess") == "subprocess"
        assert resolve_backend_name(" Pool ") == "pool"

    def test_invalid_backend_rejected(self):
        with pytest.raises(EngineError, match="--backend"):
            resolve_backend_name("quantum")
        with pytest.raises(EngineError, match="cloud"):
            ExecutionEngine(jobs=1, store=NullStore(), backend="cloud")

    def test_chain_shapes(self, spawns):
        # Every backend runs the same local workers: one slot per job, at
        # most --jobs of them, each slot starting one worker.
        assert len(run_workers(small_jobs(), 3).completed) == len(SUITE_NAMES)
        assert len(spawns) == len(SUITE_NAMES)
        assert len(run_workers(small_jobs(), 1).completed) == len(SUITE_NAMES)
        assert len(spawns) == len(SUITE_NAMES) + 1
        assert ExecutionEngine(jobs=1, store=NullStore()).backend == "pool"

    def test_serial_is_not_a_backend(self, capsys):
        # No workers is --jobs 1 under pool, not a backend of its own.
        assert main([*CLI_BASE, "--backend", "serial"]) == 2
        assert "invalid choice" in capsys.readouterr().err
        with pytest.raises(EngineError, match="pool, subprocess"):
            resolve_backend_name("serial")

    def test_cli_rejects_unknown_backend(self, capsys):
        assert main([*CLI_BASE, "--backend", "quantum"]) == 2
        assert "invalid choice" in capsys.readouterr().err


class TestBackendEquivalence:
    @pytest.mark.parametrize(
        ("backend", "jobs", "source"),
        [
            # No workers: --jobs 1 under pool runs every job in-process.
            pytest.param("pool", 1, "serial", id="serial-serial"),
            # Either backend's workers label their completions "worker".
            pytest.param("pool", 2, "worker", id="pool-parallel"),
            pytest.param("subprocess", 2, "worker", id="subprocess-subprocess"),
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
        assert "workers" not in engine.telemetry.manifest()

    def test_single_job_skips_the_pool(self):
        # One pending job is not worth a pool: plain serial, no fallback.
        engine = ExecutionEngine(jobs=4, store=NullStore(), backend="pool")
        outcome = engine.run_one(SimulationJob("gzip", scale=SMALL))
        assert outcome.source == "serial"
        assert engine.telemetry.fallbacks == 0


@pytest.fixture()
def spawns(monkeypatch):
    """Records one entry per worker process a slot starts."""
    from repro.engine import backends

    started = []
    real = backends._spawn_command

    def counting():
        started.append("worker")
        return real()

    monkeypatch.setattr(backends, "_spawn_command", counting)
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
        assert "workers" not in manifest
        assert spawns == []

    def test_subprocess_jobs1_uses_one_worker(self, spawns, tmp_path, capsys):
        manifest = self._run(
            ["--backend", "subprocess", "--jobs", "1"], tmp_path / "m.json"
        )
        assert [row["source"] for row in manifest["jobs"]] == ["worker"] * 2
        assert [row["attempts"] for row in manifest["jobs"]] == [1, 1]
        assert spawns == ["worker"]  # one worker took both jobs
        assert "workers" not in manifest

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
    """Worker reuse and exactly-once publication on local workers."""

    def _engine(self, **kwargs):
        kwargs.setdefault("jobs", 2)
        kwargs.setdefault("store", NullStore())
        return ExecutionEngine(backend="subprocess", **kwargs)

    def test_deadline_knobs(self):
        from repro.engine import backends

        # Only a worker's start-up is bounded; a dispatch has no deadline.
        assert backends._READY_TIMEOUT_SECONDS == 10.0

    def test_host_counters_in_manifest(self, spawns):
        # One slot, one worker, every job completed on it; the manifest
        # has rows and notes, and no per-worker section.
        engine = self._engine(jobs=1)
        outcomes = engine.run(small_jobs())
        assert len(spawns) == 1
        assert [(o.source, o.attempts) for o in outcomes.values()] == [
            ("worker", 1)
        ] * len(SUITE_NAMES)
        manifest = engine.telemetry.manifest()
        assert "workers" not in manifest
        assert manifest["notes"] == []

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
            expected = "serial-fallback" if job == gzip_job else "worker"
            assert outcomes[job].source == expected
            assert_results_identical(
                outcomes[job].annotated, reference[job].annotated
            )
        assert len(list(store.directory.glob("*.pkl"))) == len(SUITE_NAMES)
        assert sum(
            "worker died" in note and "in-process" in note
            for note in engine.telemetry.notes
        ) == 1
        more = engine.run(small_jobs())
        assert all(o.source == "cached" for o in more.values())


def _script_workers(monkeypatch, behavior):
    """Workers that return ``behavior(jobs)``; returns the calls made."""
    from repro.engine import backends

    calls = []

    def scripted(jobs, count):
        calls.append(list(jobs))
        return behavior(jobs)

    monkeypatch.setattr(backends, "run_workers", scripted)
    return calls


def _broken(jobs):
    return PoolReport(
        leftovers=list(jobs),
        dispatched=set(jobs),
        notes=["backend exploded"],
    )


def _scripted_engine():
    return ExecutionEngine(jobs=2, store=NullStore(), backend="subprocess")


class TestSupervisor:
    """What the workers do not return runs in-process."""

    def test_degrades_to_next_backend_with_attempts_intact(
        self, reference, monkeypatch
    ):
        _script_workers(monkeypatch, _broken)
        engine = _scripted_engine()
        outcomes = engine.run(small_jobs())
        for job in small_jobs():
            # Serial numbers its rerun after the worker attempt.
            assert outcomes[job].source == "serial-fallback"
            assert outcomes[job].attempts == 2
            assert_results_identical(
                outcomes[job].annotated, reference[job].annotated
            )
        assert engine.telemetry.notes == ["backend exploded"]

    def test_exhausted_jobs_skip_remaining_backends(self, monkeypatch):
        # Jobs the workers never got (every slot ended) run in-process
        # as attempt 1, and the workers are not asked again.
        def no_hosts(jobs):
            return PoolReport(leftovers=list(jobs))

        calls = _script_workers(monkeypatch, no_hosts)
        engine = _scripted_engine()
        job = SimulationJob("gzip", scale=SMALL)
        outcome = engine.run_one(job)
        assert outcome.source == "serial-fallback"
        assert outcome.attempts == 1
        assert calls == [[job]]


class TestSubprocessBackend:
    def test_flapping_worker_respawned_transparently(self, reference, spawns):
        # gzip's worker dies once.  The single slot spawns a new worker
        # and runs ammp on it; gzip finishes in-process as attempt 2.
        engine = ExecutionEngine(jobs=1, store=NullStore(), backend="subprocess")
        with broken_workers(gzip="crash"):
            outcomes = engine.run(small_jobs())
        gzip_job = SimulationJob("gzip", scale=SMALL)
        ammp_job = SimulationJob("ammp", scale=SMALL)
        assert outcomes[ammp_job].source == "worker"
        assert outcomes[ammp_job].attempts == 1
        assert outcomes[gzip_job].attempts == 2
        assert sum("worker died" in n for n in engine.telemetry.notes) == 1
        assert len(spawns) == 2  # the first worker, then its replacement
        for job in small_jobs():
            assert_results_identical(
                outcomes[job].annotated, reference[job].annotated
            )

    def test_persistent_flapping_exhausts_retries_then_serial(
        self, reference, spawns
    ):
        # gzip kills every worker that runs it.  Its one worker dispatch
        # is its whole worker budget: it is never sent to a worker again
        # and finishes in-process.
        engine = ExecutionEngine(jobs=1, store=NullStore(), backend="subprocess")
        with broken_workers(gzip="crash"):
            outcomes = engine.run(small_jobs())
        gzip_job = SimulationJob("gzip", scale=SMALL)
        assert outcomes[gzip_job].source == "serial-fallback"
        assert outcomes[gzip_job].attempts == 2
        ammp_job = SimulationJob("ammp", scale=SMALL)
        assert (outcomes[ammp_job].source, outcomes[ammp_job].attempts) == (
            "worker",
            1,
        )
        assert len(spawns) == 2
        [note] = engine.telemetry.notes
        assert note.startswith("worker died (exit ")
        assert note.endswith(f"running gzip@{SMALL}; running it in-process")
        assert_results_identical(
            outcomes[gzip_job].annotated, reference[gzip_job].annotated
        )

    def test_two_slots_share_one_queue(self, tmp_path, spawns):
        # Two slots race for three jobs and gzip kills its worker: the
        # slots left take the rest, each job is sent once, and each
        # result is cached once.
        jobs = [
            SimulationJob(name, scale=SMALL) for name in ("gzip", "ammp", "applu")
        ]
        serial = ExecutionEngine(jobs=1, store=NullStore()).run(jobs)
        store = ResultStore(tmp_path / "race-cache")
        engine = ExecutionEngine(jobs=2, store=store, backend="subprocess")
        with broken_workers(gzip="crash"):
            outcomes = engine.run(jobs)
        for job in jobs:
            expected = (
                ("serial-fallback", 2) if job.benchmark == "gzip" else ("worker", 1)
            )
            assert (outcomes[job].source, outcomes[job].attempts) == expected
            assert_results_identical(
                outcomes[job].annotated, serial[job].annotated
            )
        assert sum("worker died" in n for n in engine.telemetry.notes) == 1
        assert len(list(store.directory.glob("*.pkl"))) == len(jobs)
        assert 2 <= len(spawns) <= 3  # a respawn only if a job was left

    def test_slots_share_the_queue_under_stress(self, monkeypatch):
        # More slots than cores, a short switch interval and workers that
        # answer at once: every job is sent once and credited to itself.
        import sys
        import threading

        from repro.engine import backends

        spawn = backends._spawn_command

        def echo_spawn():
            _, env = spawn()
            return [sys.executable, "-c", _ECHO_WORKER], env

        monkeypatch.setattr(backends, "_spawn_command", echo_spawn)
        jobs = [SimulationJob("gzip", scale=0.01 * k) for k in range(1, 61)]
        reports = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(
                target=lambda: reports.append(run_workers(jobs, 6))
            )
            runner.start()
            runner.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        [report] = reports
        assert report.dispatched == set(jobs)
        payloads = {job: done[0] for job, done in report.completed.items()}
        assert payloads == {job: job.scale for job in jobs}
        assert report.leftovers == [] and report.notes == []

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

        started = []

        def broken_spawn():
            started.append(script)
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
        # Each slot tried one start, failed it and ended.
        assert len(started) == 2
        notes = engine.telemetry.notes
        assert sum("its slot is closed" in note for note in notes) == 2
        assert notes[-1] == "no worker left; 2 job(s) run in-process"


#: A worker that answers every job at once with the job's scale.
_ECHO_WORKER = """
import sys
from repro.engine.worker import read_frame, write_frame
write_frame(sys.stdout.buffer, "ready", {})
while True:
    frame = read_frame(sys.stdin.buffer)
    if frame is None or frame[0] == "exit":
        break
    reply = {"wall": 0.0, "payload": frame[1].scale}
    write_frame(sys.stdout.buffer, "result", reply)
"""


@contextmanager
def exit_markers(directory):
    """Workers started inside the block leave a file in ``directory``
    from an ``atexit`` hook; yields the list of workers started."""
    from repro.engine import backends

    spawn = backends._spawn_command
    started = []

    def marking_spawn():
        command, env = spawn()
        code = command.index("-c") + 1
        command[code] = (
            "import atexit, os; atexit.register(lambda: open(os.path.join("
            f"{str(directory)!r}, str(os.getpid())), 'w').close()); "
            + command[code]
        )
        started.append(command)
        return command, env

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(backends, "_spawn_command", marking_spawn)
        yield started


class TestWorkerExit:
    """Workers leave through the ``exit`` frame, so ``atexit`` hooks run
    (a traced benchmark run collects worker spans from one)."""

    def test_clean_workers_run_their_atexit_hooks(self, tmp_path):
        with exit_markers(tmp_path) as started:
            report = run_workers(small_jobs(), 2)
        assert len(report.completed) == len(SUITE_NAMES)
        assert len(started) == 2
        assert len(list(tmp_path.iterdir())) == len(started)

    def test_crashed_worker_skips_its_atexit_hooks(self, tmp_path):
        # os._exit skips the hooks; every other worker still runs them.
        markers = tmp_path / "markers"
        markers.mkdir()
        with broken_workers(gzip="crash"), exit_markers(markers) as started:
            report = run_workers(small_jobs(), 2)
        assert list(report.completed) == [SimulationJob("ammp", scale=SMALL)]
        assert len(list(markers.iterdir())) == len(started) - 1


class TestValidationGate:
    def test_clean_result_passes(self, reference):
        job = SimulationJob("gzip", scale=SMALL)
        assert check_result(reference[job].annotated) == []

    def test_spectrum_priced_energies_match_raw_sums(self):
        from repro.core.envelope import envelope_array
        from repro.core.modes import Mode
        from repro.engine.validate import _gate_context, _gate_energies

        annotated, raw = run_recorded(
            AnnotatingSimulator(), make_benchmark("gzip", scale=0.05).chunks()
        )
        model, _ = _gate_context()
        for cache in ("l1i", "l1d"):
            lengths = raw[cache].lengths
            baseline, oracle = _gate_energies(annotated.annotated_for(cache))
            assert baseline == pytest.approx(
                float(model.energy(Mode.ACTIVE, lengths).sum()), rel=1e-9
            )
            assert oracle == pytest.approx(
                float(envelope_array(model, lengths).sum()), rel=1e-9
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
        _script_workers(
            monkeypatch,
            lambda jobs: PoolReport(
                completed={job: (bad, 0.0)}, dispatched={job}
            ),
        )
        engine = ExecutionEngine(
            jobs=1, store=ResultStore(tmp_path), backend="subprocess"
        )
        outcome = engine.run_one(job)
        assert outcome.source == "serial-fallback"
        assert outcome.attempts == 2
        (quarantine,) = engine.telemetry.quarantines
        assert any(violation in v for v in quarantine["violations"])
        cached = ResultStore(tmp_path).get(job.key())
        assert cached is not None and check_result(cached) == []

    def test_clean_raw_result_passes_the_job_gate(self, monkeypatch):
        # Every chunk's intervals pass the per-chunk checks, then fold.
        fold = IntervalRows.fold
        folded = []

        def counting(self, lengths, *columns, **flags):
            fold(self, lengths, *columns, **flags)
            folded.append(len(lengths))

        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        monkeypatch.setattr(IntervalRows, "fold", counting)
        annotated = execute_job(SimulationJob("gzip", scale=SMALL))
        # Both caches chunk by chunk, then their tails.
        assert len(folded) > 4
        assert sum(folded) == len(annotated.l1i) + len(annotated.l1d)
        assert check_result(annotated) == []

    def test_misaligned_raw_flags_raise_in_the_job(self, monkeypatch):
        flags = _ChunkAnnotator.flags

        def dropping(self, *args):
            # A buggy annotator: one next-line flag short.
            nextline, stride = flags(self, *args)
            return nextline[:-1], stride

        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        monkeypatch.setattr(_ChunkAnnotator, "flags", dropping)
        with pytest.raises(
            InvalidResultError, match="next-line flags misaligned"
        ):
            execute_job(SimulationJob("gzip", scale=SMALL))

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
        assert quarantine[0]["where"] == "worker"
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
        assert quarantine and quarantine[0]["where"] == "worker"
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
        assert sum("worker died" in note for note in manifest["notes"]) == 1
        gzip_row = next(
            row for row in manifest["jobs"] if row["benchmark"] == "gzip"
        )
        assert gzip_row["attempts"] == 2
