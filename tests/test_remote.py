"""Remote workers: fault domains, the ladder, digest trace fetch.

Remote hosts run on the one framed-worker backend and honour its
standing invariant — reports are byte-identical whatever hosts, faults,
or degradation rungs a run went through.  This module pins it down over
the loopback ``exec`` transport (local subprocesses speaking the exact
remote protocol, no SSH needed); the plain remote-vs-serial oracle check
lives with the other backends in ``test_backends.py``:

* host-spec grammar and environment knobs;
* each ``REPRO_FAULTS`` network fault class lands the run on its
  expected ladder rung, results still byte-identical;
* killing (partitioning) a host mid-sweep publishes each cache entry
  exactly once and leaves the merged report byte-identical;
* traces are fetched by content digest and verified before first use —
  a corrupted stream is rejected, never mistaken for the real trace;
* the per-host circuit breaker escalates its half-open backoff and the
  flap counter decays over quiet periods (the satellite fixes).
"""

import json
import os

import numpy as np
import pytest

from repro.cli import main
from repro.engine import (
    CircuitBreaker,
    ExecutionEngine,
    FlapCounter,
    HostSpec,
    NullStore,
    ResultStore,
    RetryPolicy,
    SimulationJob,
    WorkerBackend,
    default_connect_timeout,
    parse_hosts,
    resolve_cache_dir,
)
from repro.errors import EngineError

SMALL = 0.02

SUITE_NAMES = ("gzip", "ammp")

FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.01)


def small_jobs():
    return [SimulationJob(name, scale=SMALL) for name in SUITE_NAMES]


@pytest.fixture(autouse=True)
def isolated_env(tmp_path, monkeypatch):
    """Each test gets its own cache dir and a clean engine environment."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    for var in (
        "REPRO_FAULTS",
        "REPRO_RETRIES",
        "REPRO_RETRY_DELAY",
        "REPRO_JOB_TIMEOUT",
        "REPRO_CACHE_MAX_MB",
        "REPRO_JOBS",
        "REPRO_BACKEND",
        "REPRO_HEARTBEAT",
        "REPRO_WATCHDOG",
        "REPRO_BREAKER_THRESHOLD",
        "REPRO_HOSTS",
        "REPRO_REMOTE_CONNECT_TIMEOUT",
        "REPRO_REMOTE_FETCH",
    ):
        monkeypatch.delenv(var, raising=False)
    return tmp_path


@pytest.fixture(scope="module")
def reference():
    """Clean serial outcomes to compare every remote run against."""
    engine = ExecutionEngine(jobs=1, store=NullStore())
    return engine.run(small_jobs())


def assert_results_identical(a, b):
    """Bit-identical comparison of two annotated simulation results."""
    assert a.result.cycles == b.result.cycles
    assert a.result.instructions == b.result.instructions
    assert a.result.stall_cycles == b.result.stall_cycles
    for cache in ("l1i", "l1d"):
        va, vb = a.annotated_for(cache), b.annotated_for(cache)
        assert np.array_equal(va.intervals.lengths, vb.intervals.lengths)
        assert np.array_equal(va.intervals.kinds, vb.intervals.kinds)
        assert np.array_equal(va.nextline, vb.nextline)
        assert np.array_equal(va.stride, vb.stride)
        assert np.array_equal(va.tail, vb.tail)


def remote_engine(faults=None, hosts="exec,exec", **kwargs):
    import os

    if faults is not None:
        os.environ["REPRO_FAULTS"] = faults
    kwargs.setdefault("jobs", 2)
    kwargs.setdefault("store", NullStore())
    kwargs.setdefault("retry", FAST_RETRY)
    return ExecutionEngine(backend="remote", hosts=hosts, **kwargs)


# ----------------------------------------------------------------------
# Host grammar + knobs
# ----------------------------------------------------------------------
class TestHostSpecs:
    def test_grammar(self):
        specs = parse_hosts("exec, exec:fast, ssh:alice@n1:/srv/repo, n2")
        assert specs == [
            HostSpec("exec", "exec0"),
            HostSpec("exec", "fast"),
            HostSpec("ssh", "n1", "alice@n1", "/srv/repo"),
            HostSpec("ssh", "n2", "n2"),
        ]
        assert specs[0].describe() == "exec:exec0"
        assert specs[2].describe() == "ssh:alice@n1:/srv/repo"

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_HOSTS", "exec:a,exec:b")
        assert [s.name for s in parse_hosts()] == ["a", "b"]
        assert parse_hosts("") == []

    def test_duplicate_labels_rejected(self):
        with pytest.raises(EngineError, match="duplicate"):
            parse_hosts("exec:a,exec:a")

    def test_malformed_specs_rejected(self):
        with pytest.raises(EngineError, match="exec"):
            parse_hosts("exec:")
        with pytest.raises(EngineError, match="host spec"):
            parse_hosts("ssh:")

    def test_remote_backend_requires_hosts(self):
        with pytest.raises(EngineError, match="REPRO_HOSTS"):
            ExecutionEngine(jobs=1, store=NullStore(), backend="remote")
        with pytest.raises(EngineError, match="at least one host"):
            WorkerBackend("remote", [])

    def test_deadline_knobs(self, monkeypatch):
        assert default_connect_timeout() == 10.0
        assert remote_engine(hosts="exec:a").workers.deadline is None
        monkeypatch.setenv("REPRO_REMOTE_CONNECT_TIMEOUT", "2.5")
        # The per-dispatch deadline is the engine's job timeout.
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "7")
        assert default_connect_timeout() == 2.5
        assert remote_engine(hosts="exec:a").workers.deadline == 7.0


# ----------------------------------------------------------------------
# Loopback equivalence
# ----------------------------------------------------------------------
class TestLoopbackExecution:
    def test_host_counters_in_manifest(self):
        engine = remote_engine(hosts="exec:only")
        engine.run(small_jobs())
        host = engine.telemetry.manifest()["workers"]["hosts"]["only"]
        assert host["connects"] == 1
        assert host["dispatches"] == len(SUITE_NAMES)
        assert host["completions"] == len(SUITE_NAMES)
        assert host["breaker_state"] == "closed"
        assert host["partitioned"] in (0, False)

    def test_results_cached_exactly_once(self, tmp_path):
        store = ResultStore(tmp_path / "remote-cache")
        engine = remote_engine(store=store)
        engine.run(small_jobs())
        entries = sorted(p.name for p in store.directory.glob("*.pkl"))
        assert len(entries) == len(SUITE_NAMES)
        # Warm rerun: every job is a cache hit, no remote dispatch at all.
        rerun = remote_engine(store=ResultStore(tmp_path / "remote-cache"))
        outcomes = rerun.run(small_jobs())
        assert all(o.source == "cached" for o in outcomes.values())
        assert sorted(p.name for p in store.directory.glob("*.pkl")) == entries


# ----------------------------------------------------------------------
# Degradation ladder per network fault class
# ----------------------------------------------------------------------
LADDER_CASES = [
    # (faults, expected final rung, expects a descent entry)
    ("conn-refused:exec0:attempt=1", "remote", False),
    ("conn-drop:exec0:attempt=1", "remote", False),
    ("garble:exec0:attempt=1", "remote", False),
    ("partition:exec0", "remote", False),  # exec1 survives
    ("conn-refused:exec0,conn-refused:exec1", "serial", True),
    ("partition:exec0,partition:exec1", "serial", True),
]


class TestDegradationLadder:
    @pytest.mark.parametrize("faults,rung,descends", LADDER_CASES)
    def test_fault_class_lands_on_expected_rung(
        self, reference, faults, rung, descends
    ):
        engine = remote_engine(faults=faults)
        outcomes = engine.run(small_jobs())
        for job in small_jobs():
            assert_results_identical(
                outcomes[job].annotated, reference[job].annotated
            )
        profile = engine.telemetry.manifest()["workers"]
        assert profile["final_rung"] == rung
        if descends:
            assert profile["ladder"], "expected a recorded ladder descent"
            assert profile["ladder"][0]["from"] == "remote"
        else:
            assert profile["rungs_used"] == ["remote"]

    def test_stall_is_caught_by_the_watchdog(self, reference, monkeypatch):
        monkeypatch.setenv("REPRO_WATCHDOG", "1.0")
        monkeypatch.setenv("REPRO_HEARTBEAT", "0.1")
        engine = remote_engine(faults="stall:exec0:attempt=1")
        outcomes = engine.run(small_jobs())
        for job in small_jobs():
            assert_results_identical(
                outcomes[job].annotated, reference[job].annotated
            )
        manifest = engine.telemetry.manifest()
        assert manifest["workers"]["final_rung"] == "remote"
        hangs = manifest["workers"]["hosts"]["exec0"]["hangs"]
        assert hangs and hangs[0]["kind"] == "hang"
        assert manifest["totals"]["heartbeat_events"] == len(hangs)

    def test_descents_record_breaker_transitions(self):
        engine = remote_engine(
            faults="conn-refused:exec0,conn-refused:exec1"
        )
        engine.run(small_jobs())
        profile = engine.telemetry.manifest()["workers"]
        transitions = [
            t
            for host in profile["hosts"].values()
            for t in host["breaker_transitions"]
        ]
        assert any(t["to"] == "open" for t in transitions)

    def test_killed_host_mid_run_publishes_exactly_once(
        self, tmp_path, reference
    ):
        # "Kill one fake host mid-sweep": partition takes exec0 down
        # after it accepted a job; exec1 finishes the sweep on the
        # remote rung, each entry is published exactly once, and the
        # merged outcome matches the serial oracle byte for byte.
        store = ResultStore(tmp_path / "chaos-cache")
        engine = remote_engine(faults="partition:exec0", store=store)
        outcomes = engine.run(small_jobs())
        for job in small_jobs():
            assert_results_identical(
                outcomes[job].annotated, reference[job].annotated
            )
        assert len(list(store.directory.glob("*.pkl"))) == len(SUITE_NAMES)
        profile = engine.telemetry.manifest()["workers"]
        assert profile["hosts"]["exec0"]["partitioned"]
        assert profile["final_rung"] == "remote"
        # The partitioned host stays benched on a later dispatch too.
        more = engine.run(small_jobs())
        assert all(o.source == "cached" for o in more.values())


# ----------------------------------------------------------------------
# Digest-verified trace fetch
# ----------------------------------------------------------------------
@pytest.fixture()
def recorded(tmp_path):
    from repro.traces import format_trace_ref, record_benchmark

    path = tmp_path / "gzip.rtr"
    info = record_benchmark(
        "gzip", path, scale=SMALL, chunk_instructions=20_000
    )
    return path, info, format_trace_ref(path)


class TestTraceFetch:
    def test_worker_fetches_by_digest_and_stages_once(
        self, tmp_path, monkeypatch, recorded
    ):
        path, info, ref = recorded
        monkeypatch.setenv("REPRO_REMOTE_FETCH", "always")
        job = SimulationJob(ref, scale=1.0)
        oracle = ExecutionEngine(jobs=1, store=NullStore()).run_one(job)
        engine = remote_engine(hosts="exec:fetcher", store=NullStore())
        outcome = engine.run_one(job)
        assert_results_identical(outcome.annotated, oracle.annotated)
        host = engine.telemetry.manifest()["workers"]["hosts"]["fetcher"]
        assert host["trace_fetches"] == 1
        assert host["trace_bytes_sent"] == path.stat().st_size
        staged = tmp_path / "cache" / "remote-staging" / f"{info.digest}.rtr"
        assert staged.exists()
        assert staged.read_bytes() == path.read_bytes()
        # Second run: the staged copy is served locally, no re-fetch.
        again = remote_engine(hosts="exec:fetcher", store=NullStore())
        again.run_one(job)
        host = again.telemetry.manifest()["workers"]["hosts"]["fetcher"]
        assert host["trace_fetches"] == 0

    def test_staged_bytes_count_against_the_cache_budget(
        self, tmp_path, monkeypatch, recorded
    ):
        path, info, ref = recorded
        monkeypatch.setenv("REPRO_REMOTE_FETCH", "always")
        store = ResultStore(tmp_path / "cache")
        engine = remote_engine(hosts="exec", store=store)
        engine.run_one(SimulationJob(ref, scale=1.0))
        info_payload = store.info()
        assert info_payload["trace_files"] == 1
        assert info_payload["trace_bytes"] == path.stat().st_size
        from repro.cli import cache_info_payload

        nested = cache_info_payload(store)["traces"]
        assert nested == {
            "files": info_payload["trace_files"],
            "bytes": info_payload["trace_bytes"],
        }

    def test_corrupted_stream_is_rejected(self, recorded):
        from repro.traces.fetch import (
            TraceFetchError,
            TraceStager,
            iter_trace_bytes,
            staged_trace_path,
        )

        path, info, _ = recorded
        stager = TraceStager(info.digest, path.stat().st_size)
        for block in iter_trace_bytes(path, 4096):
            stager.feed(block[::-1])  # garble every chunk in transit
        with pytest.raises(TraceFetchError, match="validation|digest"):
            stager.finish()
        assert not staged_trace_path(info.digest).exists()
        assert not list(staged_trace_path(info.digest).parent.glob(".fetch-*"))

    def test_wrong_trace_under_right_digest_is_rejected(self, recorded):
        from repro.traces.fetch import (
            TraceFetchError,
            TraceStager,
            iter_trace_bytes,
            staged_trace_path,
        )

        path, info, _ = recorded
        # A perfectly valid trace arriving under a different fetch
        # digest must not be staged under that digest's name.
        wrong = "0" * len(info.digest)
        stager = TraceStager(wrong, path.stat().st_size)
        for block in iter_trace_bytes(path):
            stager.feed(block)
        with pytest.raises(TraceFetchError, match="digest mismatch"):
            stager.finish()
        assert not staged_trace_path(wrong).exists()

    def test_truncated_stream_is_rejected(self, recorded):
        from repro.traces.fetch import TraceFetchError, TraceStager

        path, info, _ = recorded
        stager = TraceStager(info.digest, path.stat().st_size)
        stager.feed(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(TraceFetchError, match="received"):
            stager.finish()


# ----------------------------------------------------------------------
# Satellite fixes: breaker backoff escalation, flap-counter decay
# ----------------------------------------------------------------------
class TestBreakerBackoffEscalation:
    def test_failed_probe_escalates_instead_of_resetting(self):
        clock = {"now": 0.0}
        breaker = CircuitBreaker(
            "b", threshold=2, cooldown=10.0, clock=lambda: clock["now"]
        )
        breaker.record(["boom"])
        breaker.record(["boom"])
        assert breaker.state == "open"
        assert breaker.current_cooldown() == 10.0
        clock["now"] = 10.0
        assert breaker.allow()  # half-open probe
        assert breaker.state == "half-open"
        breaker.record(["still broken"])  # failed probe
        assert breaker.state == "open"
        # The next wait is the *next* backoff step, not the base again.
        assert breaker.current_cooldown() == 20.0
        clock["now"] = 20.0
        assert not breaker.allow()  # base cooldown is no longer enough
        clock["now"] = 30.0
        assert breaker.allow()
        breaker.record(["worse"])
        assert breaker.current_cooldown() == 40.0
        # A successful probe closes in one step and resets the schedule.
        clock["now"] = 70.0
        assert breaker.allow()
        breaker.record([])
        assert breaker.state == "closed"
        assert breaker.current_cooldown() == 10.0

    def test_backoff_exponent_is_capped(self):
        clock = {"now": 0.0}
        breaker = CircuitBreaker(
            "b", threshold=1, cooldown=1.0, clock=lambda: clock["now"]
        )
        breaker.record(["boom"])
        for _ in range(10):
            clock["now"] += breaker.current_cooldown()
            assert breaker.allow()
            breaker.record(["boom"])
        assert breaker.current_cooldown() == 2.0**6


class TestFlapCounterDecay:
    def test_decays_after_quiet_periods(self):
        clock = {"now": 0.0}
        flaps = FlapCounter(10.0, clock=lambda: clock["now"])
        assert flaps.value() == 0
        for _ in range(4):
            flaps.record()
        assert flaps.value() == 4
        clock["now"] = 9.9  # partial quiet period: no decay yet
        assert flaps.value() == 4
        clock["now"] = 10.0  # one full period: halves
        assert flaps.value() == 2
        clock["now"] = 20.0  # second period: halves again
        assert flaps.value() == 1
        clock["now"] = 30.0
        assert flaps.value() == 0

    def test_new_flap_restarts_the_quiet_clock(self):
        clock = {"now": 0.0}
        flaps = FlapCounter(10.0, clock=lambda: clock["now"])
        flaps.record()
        flaps.record()
        clock["now"] = 9.0
        assert flaps.record() == 3  # flap inside the period: no decay
        clock["now"] = 18.9  # only 9.9s since the last flap
        assert flaps.value() == 3
        clock["now"] = 19.0
        assert flaps.value() == 1  # 3 >> 1

    def test_rejects_negative_decay(self):
        with pytest.raises(ValueError, match="non-negative"):
            FlapCounter(-1.0)

    def test_zero_decay_never_decays(self):
        clock = {"now": 0.0}
        flaps = FlapCounter(0.0, clock=lambda: clock["now"])
        flaps.record()
        clock["now"] = 1e9
        assert flaps.value() == 1


# ----------------------------------------------------------------------
# Remote chaos (CI remote-chaos job)
# ----------------------------------------------------------------------
CLI_BASE = ["figure7", "--scale", str(SMALL), "--benchmarks", *SUITE_NAMES]


@pytest.mark.skipif(
    not os.environ.get("REPRO_CHAOS"),
    reason="remote chaos sweep only runs with REPRO_CHAOS=1 (CI)",
)
class TestRemoteChaos:
    """Full remote path under compound network chaos, through the CLI.

    Loopback exec hosts, every network fault class in one schedule,
    one fake host killed mid-sweep (sticky partition) — the report
    must still be byte-identical to a clean serial run, each cache
    entry must be published exactly once, and the manifest's ``workers``
    section must record every breaker transition and ladder descent.
    """

    def test_remote_chaos_run_matches_clean(self, capsys, monkeypatch):
        assert main([*CLI_BASE, "--jobs", "1", "--no-cache"]) == 0
        clean = capsys.readouterr().out
        monkeypatch.setenv("REPRO_RETRY_DELAY", "0.01")
        monkeypatch.setenv("REPRO_WATCHDOG", "1.0")
        monkeypatch.setenv("REPRO_HEARTBEAT", "0.1")
        # Compound chaos burns several attempts per job before a clean
        # dispatch lands; give the retry budget room so the run finishes
        # on the remote rung rather than exhausting into serial.
        monkeypatch.setenv("REPRO_RETRIES", "8")
        monkeypatch.setenv(
            "REPRO_FAULTS",
            "conn-refused:flaky:attempt=1,"
            "conn-drop:flaky:attempt=2,"
            "garble:flaky:attempt=3,"
            "stall:steady:attempt=1,"
            "partition:doomed",  # killed mid-sweep, never comes back
        )
        manifest_path = resolve_cache_dir().parent / "remote-chaos.json"
        assert (
            main(
                [
                    *CLI_BASE,
                    "--jobs",
                    "2",
                    "--backend",
                    "remote",
                    "--hosts",
                    "exec:flaky,exec:steady,exec:doomed",
                    "--manifest",
                    str(manifest_path),
                ]
            )
            == 0
        )
        chaos = capsys.readouterr()
        assert chaos.out == clean
        manifest = json.loads(manifest_path.read_text())
        profile = manifest["workers"]
        assert profile["hosts"]["doomed"]["partitioned"]
        # The surviving hosts finished the sweep on the remote rung.
        assert profile["final_rung"] == "remote"
        assert manifest["totals"]["jobs"] == len(SUITE_NAMES)
        assert manifest["totals"]["failed"] == 0
        # Exactly-once publication: one cache entry per job, and a warm
        # rerun with no faults serves everything from the cache while
        # reproducing the same bytes.
        cache = resolve_cache_dir()
        assert len(list(cache.glob("*.pkl"))) == len(SUITE_NAMES)
        monkeypatch.delenv("REPRO_FAULTS")
        assert main([*CLI_BASE, "--jobs", "1"]) == 0
        assert capsys.readouterr().out == clean

    def test_all_hosts_dead_descends_and_still_matches(
        self, capsys, monkeypatch
    ):
        assert main([*CLI_BASE, "--jobs", "1", "--no-cache"]) == 0
        clean = capsys.readouterr().out
        monkeypatch.setenv("REPRO_RETRY_DELAY", "0.01")
        monkeypatch.setenv(
            "REPRO_FAULTS", "partition:a,partition:b"
        )
        manifest_path = resolve_cache_dir().parent / "remote-descend.json"
        assert (
            main(
                [
                    *CLI_BASE,
                    "--jobs",
                    "2",
                    "--backend",
                    "remote",
                    "--hosts",
                    "exec:a,exec:b",
                    "--no-cache",
                    "--manifest",
                    str(manifest_path),
                ]
            )
            == 0
        )
        assert capsys.readouterr().out == clean
        manifest = json.loads(manifest_path.read_text())
        profile = manifest["workers"]
        assert profile["ladder"], "expected recorded ladder descents"
        assert profile["ladder"][0]["from"] == "remote"
        assert profile["final_rung"] == "serial"
