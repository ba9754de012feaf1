"""Multi-daemon coordination: leases, fencing, exactly-once publish.

The contract under test is the tentpole invariant of the serving layer:
N daemons sharing one cache directory never lose a ticket and never
publish one twice — across contention, crash-reclamation and a "dead"
peer resuming mid-write.  The kill -9 chaos test at the bottom drives
three real daemon processes through a SIGKILL and proves the merged
sweep report is byte-identical to a single offline run.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import time
from http.client import HTTPConnection
from pathlib import Path

import pytest

from repro.engine import (
    EngineFleet,
    ExecutionEngine,
    ResultStore,
    SimulationJob,
    merge_worker_sections,
)
from repro.errors import EngineError
from repro.service import ServiceConfig, ServiceThread
from repro.service.client import (
    ServiceClient,
    ServiceError,
    ServiceRejected,
)
from repro.service.coordinate import (
    COORDINATION_SUBDIR,
    EVENT_PUBLISH,
    EVENT_RECLAIMED,
    CoordinationError,
    CoordinationLog,
    FencingCounter,
    LeaseManager,
    LeasedStore,
)
from repro.sweep import SweepSpec, merge as sweep_merge

SMALL = 0.02


@pytest.fixture(autouse=True)
def isolated_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_RETRY_DELAY", "0.01")
    for var in (
        "REPRO_FAULTS",
        "REPRO_RETRIES",
        "REPRO_JOB_TIMEOUT",
        "REPRO_CACHE_MAX_MB",
        "REPRO_JOBS",
        "REPRO_BACKEND",
    ):
        monkeypatch.delenv(var, raising=False)
    return tmp_path


def backdate(path: Path, seconds: float) -> None:
    """Age a file's mtime: how tests manufacture stale leases."""
    past = time.time() - seconds
    os.utime(path, (past, past))


# ----------------------------------------------------------------------
# Fencing tokens
# ----------------------------------------------------------------------
class TestFencingCounter:
    def test_tokens_are_unique_and_strictly_increasing(self, tmp_path):
        alpha = FencingCounter(tmp_path / "fence")
        beta = FencingCounter(tmp_path / "fence")  # same directory
        minted = [alpha.mint("a"), beta.mint("b"), alpha.mint("a")]
        assert minted == sorted(minted)
        assert len(set(minted)) == 3

    def test_prune_keeps_only_the_largest(self, tmp_path):
        counter = FencingCounter(tmp_path / "fence")
        for _ in range(4):
            last = counter.mint("p")
        assert counter.prune() == 3
        # Monotonicity survives the prune: the next token is larger.
        assert counter.mint("p") == last + 1


# ----------------------------------------------------------------------
# Leases
# ----------------------------------------------------------------------
class TestLeaseManager:
    def test_acquire_is_exclusive_between_peers(self, tmp_path):
        alpha = LeaseManager(tmp_path, "alpha")
        beta = LeaseManager(tmp_path, "beta")
        lease = alpha.acquire("k1")
        assert lease is not None and lease.peer_id == "alpha"
        assert beta.acquire("k1") is None
        assert beta.contended == 1
        holder = beta.holder("k1")
        assert holder["peer"] == "alpha" and not holder["stale"]

    def test_release_frees_the_key_for_the_next_peer(self, tmp_path):
        alpha = LeaseManager(tmp_path, "alpha")
        beta = LeaseManager(tmp_path, "beta")
        first = alpha.acquire("k1")
        alpha.release(first)
        assert alpha.holder("k1") is None
        second = beta.acquire("k1")
        assert second is not None
        assert second.token > first.token

    def test_stale_lease_is_reclaimed_with_a_larger_token(self, tmp_path):
        log_dir = tmp_path / "log"
        alpha = LeaseManager(
            tmp_path, "alpha", log=CoordinationLog(log_dir, "alpha")
        )
        beta = LeaseManager(
            tmp_path, "beta", log=CoordinationLog(log_dir, "beta")
        )
        dead = alpha.acquire("k1")
        backdate(dead.path, 3600)
        taken = beta.acquire("k1")
        assert taken is not None
        assert taken.token > dead.token
        assert beta.reclaimed == 1
        # The tombstone records the dead lease; the log records the event.
        assert (tmp_path / "broken" / f"k1.{dead.token}.lease").exists()
        events = CoordinationLog.scan(log_dir)
        reclaims = [e for e in events if e["event"] == EVENT_RECLAIMED]
        assert reclaims == [
            {
                "event": EVENT_RECLAIMED,
                "peer": "beta",
                "key": "k1",
                "token": dead.token,
                "dead_peer": "alpha",
            }
        ]

    def test_reclaimed_holder_discovers_the_fence_on_heartbeat(
        self, tmp_path
    ):
        alpha = LeaseManager(tmp_path, "alpha")
        beta = LeaseManager(tmp_path, "beta")
        dead = alpha.acquire("k1")
        backdate(dead.path, 3600)
        assert beta.acquire("k1") is not None
        # The wrongly-declared-dead peer resumes: its heartbeat fails,
        # its lease is marked fenced, and releasing it is a no-op that
        # leaves the new owner's lease intact.
        assert alpha.heartbeat(dead) is False
        assert dead.fenced and alpha.fenced == 1
        alpha.release(dead)
        assert beta.holder("k1")["peer"] == "beta"

    def test_heartbeat_refreshes_the_mtime(self, tmp_path):
        manager = LeaseManager(tmp_path, "alpha", ttl=5.0)
        lease = manager.acquire("k1")
        backdate(lease.path, 60)
        assert manager.holder("k1")["stale"]
        assert manager.heartbeat(lease) is True
        assert not manager.holder("k1")["stale"]

    def test_ttl_must_be_positive(self, tmp_path):
        with pytest.raises(CoordinationError):
            LeaseManager(tmp_path, "alpha", ttl=0.0)

    def test_sweep_prunes_tombstones_tokens_and_orphans(self, tmp_path):
        manager = LeaseManager(tmp_path, "alpha", ttl=0.1)
        dead = manager.acquire("gone")
        backdate(dead.path, 3600)
        other = LeaseManager(tmp_path, "beta", ttl=0.1)
        reclaimed = other.acquire("gone")
        other.release(reclaimed)
        tombstone = tmp_path / "broken" / f"gone.{dead.token}.lease"
        backdate(tombstone, 3600)
        orphan = manager.acquire("orphan")
        backdate(orphan.path, 3600)
        counts = manager.sweep(ttl=60.0)
        assert counts["broken"] == 1
        assert counts["orphaned"] == 1
        assert counts["fence"] >= 1
        assert not tombstone.exists()
        assert manager.holder("orphan") is None


# ----------------------------------------------------------------------
# Guarded publish
# ----------------------------------------------------------------------
class TestLeasedStore:
    def coordinated(self, tmp_path, peer):
        coordination = tmp_path / "cache" / "service" / COORDINATION_SUBDIR
        manager = LeaseManager(
            coordination,
            peer,
            log=CoordinationLog(coordination / "log", peer),
        )
        store = LeasedStore(
            ResultStore(tmp_path / "cache"),
            manager,
            log=manager.log,
        )
        return manager, store

    def test_unclaimed_writes_pass_straight_through(self, tmp_path):
        _, store = self.coordinated(tmp_path, "alpha")
        assert store.put("plain", {"v": 1}) is True
        assert store.get("plain") == {"v": 1}
        assert store.published == 0

    def test_claimed_write_publishes_once_then_fences(self, tmp_path):
        manager, store = self.coordinated(tmp_path, "alpha")
        lease = manager.acquire("k1")
        store.claim("k1", lease)
        assert store.put("k1", {"v": 1}) is True
        assert store.published == 1
        assert store.marker_path("k1").exists()
        # A second write to the already-published key is fenced, and the
        # first bytes stay.
        assert store.put("k1", {"v": 2}) is False
        assert store.fenced_publishes == 1
        assert store.get("k1") == {"v": 1}

    def test_stale_writer_loses_at_the_publish_rename(self, tmp_path):
        manager_a, store_a = self.coordinated(tmp_path, "alpha")
        manager_b, store_b = self.coordinated(tmp_path, "beta")
        dead = manager_a.acquire("k1")
        store_a.claim("k1", dead)
        backdate(dead.path, 3600)
        # Beta reclaims and publishes; the resumed alpha then tries to
        # publish its (identical, but fenced) bytes and is refused.
        taken = manager_b.acquire("k1")
        store_b.claim("k1", taken)
        assert store_b.put("k1", {"winner": "beta"}) is True
        assert store_a.put("k1", {"winner": "alpha"}) is False
        assert store_a.fenced_publishes == 1
        assert dead.fenced
        assert store_b.get("k1") == {"winner": "beta"}
        # Exactly one publish event across both peers' logs.
        events = CoordinationLog.scan(manager_a.log.directory)
        publishes = [e for e in events if e["event"] == EVENT_PUBLISH]
        assert len(publishes) == 1 and publishes[0]["peer"] == "beta"

    def test_crashed_winner_marker_is_repaired_by_the_new_holder(
        self, tmp_path
    ):
        manager, store = self.coordinated(tmp_path, "alpha")
        ghost_token = manager.fence.mint("ghost")
        store.markers_dir.mkdir(parents=True, exist_ok=True)
        store.marker_path("k1").write_text(
            json.dumps({"peer": "ghost", "token": ghost_token}) + "\n",
            encoding="utf-8",
        )
        # The ghost crashed between marker and cache write: the current
        # lease holder (strictly larger token) repairs and publishes.
        lease = manager.acquire("k1")
        assert lease.token > ghost_token
        store.claim("k1", lease)
        assert store.put("k1", {"v": 1}) is True
        assert store.repaired_publishes == 1
        assert store.get("k1") == {"v": 1}
        marker = json.loads(store.marker_path("k1").read_text())
        assert marker == {"peer": "alpha", "token": lease.token}

    def test_sweep_markers_keeps_unsatisfied_markers(self, tmp_path):
        manager, store = self.coordinated(tmp_path, "alpha")
        lease = manager.acquire("k1")
        store.claim("k1", lease)
        store.put("k1", {"v": 1})
        store.markers_dir.mkdir(parents=True, exist_ok=True)
        store.marker_path("pending").write_text(
            json.dumps({"peer": "ghost", "token": 1}), encoding="utf-8"
        )
        backdate(store.marker_path("k1"), 3600)
        backdate(store.marker_path("pending"), 3600)
        # The satisfied marker ages out; the crashed-winner witness stays.
        assert store.sweep_markers(ttl=60.0) == 1
        assert not store.marker_path("k1").exists()
        assert store.marker_path("pending").exists()


class TestCoordinationLog:
    def test_scan_merges_peers_and_tolerates_torn_lines(self, tmp_path):
        alpha = CoordinationLog(tmp_path, "alpha")
        beta = CoordinationLog(tmp_path, "beta")
        alpha.record("lease-acquired", "k1", token=1)
        beta.record("publish", "k1", token=2)
        with open(beta.path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "torn')  # crash mid-append
        events = CoordinationLog.scan(tmp_path)
        assert {e["event"] for e in events} == {"lease-acquired", "publish"}
        assert all(e["key"] == "k1" for e in events)


# ----------------------------------------------------------------------
# Engine fleet
# ----------------------------------------------------------------------
class TestEngineFleet:
    def test_slots_share_one_store(self, tmp_path):
        fleet = EngineFleet(
            2, store=ResultStore(tmp_path / "fleet"), backend="serial"
        )
        job = SimulationJob("gzip", scale=SMALL)
        first = fleet.run_one(job)
        second = fleet.run_one(job)
        assert first.simulated
        assert second.source == "cached"
        assert len(fleet.engines) == 1  # recycled, not regrown

    def test_concurrent_checkout_grows_distinct_slots(self, tmp_path):
        fleet = EngineFleet(
            2, store=ResultStore(tmp_path / "fleet"), backend="serial"
        )
        one, two = fleet.acquire(), fleet.acquire()
        assert one is not two
        fleet.release(one)
        fleet.release(two)
        assert fleet.acquire() in (one, two)

    def test_fleet_requires_at_least_one_slot(self):
        with pytest.raises(EngineError):
            EngineFleet(0)

    def test_merge_breaker_snapshots_takes_the_most_degraded_state(self):
        opened = {"breaker": "host:local0", "to": "open"}
        merged = merge_worker_sections(
            [
                {
                    "hosts": {
                        "local0": {
                            "breaker_state": "open",
                            "breaker_transitions": [opened],
                            "flaps": 3,
                            "partitioned": False,
                        }
                    },
                    "ladder": [{"from": "subprocess", "to": "serial"}],
                    "rungs_used": ["subprocess", "serial"],
                    "final_rung": "serial",
                },
                {},  # a slot whose workers never engaged
                {
                    "hosts": {
                        "local0": {
                            "breaker_state": "closed",
                            "breaker_transitions": [],
                            "flaps": 1,
                            "partitioned": False,
                        },
                        "local1": {"breaker_state": "half-open"},
                    },
                    "ladder": [],
                    "rungs_used": ["subprocess"],
                    "final_rung": "subprocess",
                },
            ]
        )
        hosts = merged["hosts"]
        assert hosts["local0"]["breaker_state"] == "open"
        assert hosts["local1"]["breaker_state"] == "half-open"
        assert hosts["local0"]["breaker_transitions"] == [opened]
        assert hosts["local0"]["flaps"] == 4
        assert merged["rungs_used"] == ["subprocess", "serial", "subprocess"]
        assert merged["final_rung"] == "subprocess"
        assert merge_worker_sections([{}, {}]) == {}


# ----------------------------------------------------------------------
# Client retry / backoff / failover
# ----------------------------------------------------------------------
class _ScriptedClient(ServiceClient):
    """A client whose submit_jobs outcomes are scripted for the tests."""

    def __init__(self, outcomes, urls=("http://127.0.0.1:1",), **kwargs):
        super().__init__(list(urls), **kwargs)
        self.outcomes = list(outcomes)
        self.attempts = 0

    def submit_jobs(self, jobs):
        self.attempts += 1
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


class TestClientRetry:
    def test_backoff_schedule_is_deterministic_and_capped(self):
        delays = [
            ServiceClient.backoff_delay(n, base=0.25, cap=4.0)
            for n in range(1, 7)
        ]
        assert delays == [0.25, 0.5, 1.0, 2.0, 4.0, 4.0]

    def test_retry_after_hint_floors_the_delay(self):
        assert ServiceClient.backoff_delay(1, hint=3.0) == 3.0
        assert ServiceClient.backoff_delay(1, hint=90.0, cap=30.0) == 30.0

    def test_rejections_are_retried_with_the_servers_hint(self):
        ok = {"items": []}
        client = _ScriptedClient(
            [
                ServiceRejected("full", retry_after=1.5),
                ServiceRejected("full", retry_after=0.1),
                ok,
            ]
        )
        slept = []
        assert (
            client.submit_with_retry(
                [], max_attempts=5, sleep=slept.append
            )
            is ok
        )
        assert client.attempts == 3
        assert client.retries == 2
        assert slept[0] == 1.5  # the hint floors attempt 1's 0.25 base

    def test_exhausted_attempts_raise_the_last_rejection(self):
        client = _ScriptedClient(
            [ServiceRejected("full", retry_after=0.1)] * 2
        )
        with pytest.raises(ServiceRejected):
            client.submit_with_retry(
                [], max_attempts=2, sleep=lambda _delay: None
            )

    def test_unreachable_peer_fails_over_to_the_next_url(self):
        ok = {"items": []}
        client = _ScriptedClient(
            [ServiceError("down", status=0), ok],
            urls=("http://127.0.0.1:1", "http://127.0.0.1:2"),
        )
        assert client.submit_with_retry([], sleep=lambda _delay: None) is ok
        assert client.failovers == 1
        assert client.url == "http://127.0.0.1:2"

    def test_application_errors_are_never_retried(self):
        client = _ScriptedClient([ServiceError("bad spec", status=400)])
        with pytest.raises(ServiceError):
            client.submit_with_retry([], sleep=lambda _delay: None)
        assert client.attempts == 1

    def test_client_rejects_empty_url_lists_and_bad_schemes(self):
        with pytest.raises(ServiceError):
            ServiceClient([])
        with pytest.raises(ServiceError):
            ServiceClient("ftp://example/")
        with pytest.raises(ServiceError):
            ServiceClient("x", timeout=1.0).submit_with_retry(
                [], max_attempts=0
            )


# ----------------------------------------------------------------------
# Daemons coordinating through one cache directory
# ----------------------------------------------------------------------
def coordinated_config(tmp_path, **overrides):
    kwargs = dict(
        port=0,
        jobs=2,
        backend="serial",
        cache_dir=str(tmp_path / "cache"),
        max_queue=32,
        poll_interval=0.05,
    )
    kwargs.update(overrides)
    return ServiceConfig(**kwargs)


def shared_coordination_dir(tmp_path) -> Path:
    return tmp_path / "cache" / "service" / COORDINATION_SUBDIR


class TestCoordinatedDaemons:
    def test_peer_leased_key_resolves_from_the_shared_store(self, tmp_path):
        """A key leased by a peer is watched, not recomputed."""
        job = SimulationJob("gzip", scale=SMALL)
        key = job.key()
        peer = LeaseManager(shared_coordination_dir(tmp_path), "fake-peer")
        lease = peer.acquire(key)
        thread = ServiceThread(
            coordinated_config(tmp_path, peer_id="watcher")
        ).start()
        try:
            client = ServiceClient(f"http://127.0.0.1:{thread.port}")
            response = client.submit_jobs(
                [{"benchmark": "gzip", "scale": SMALL}]
            )
            ticket_id = response["items"][0]["ticket"]
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                names = [
                    e.get("event")
                    for e in client.ticket(ticket_id)["events"]
                ]
                if "remote-wait" in names:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("daemon never entered remote-wait")
            # The "peer" publishes into the shared store; the watcher's
            # ticket resolves from those bytes without computing.
            engine = ExecutionEngine(
                jobs=1,
                backend="serial",
                store=ResultStore(tmp_path / "cache"),
            )
            engine.run_one(job)
            document = client.wait(ticket_id)
            assert document["result"]["execution"]["source"] == "remote"
            assert thread.daemon.remote_resolved == 1
            assert thread.daemon.computed_jobs == 0
        finally:
            peer.release(lease)
            thread.stop()

    def test_dead_peers_lease_is_taken_over_and_computed(self, tmp_path):
        """A stale lease is reclaimed mid-watch; the work completes here."""
        job = SimulationJob("gzip", scale=SMALL)
        key = job.key()
        peer = LeaseManager(shared_coordination_dir(tmp_path), "dead-peer")
        peer.acquire(key)  # never heartbeats: goes stale in lease_ttl
        thread = ServiceThread(
            coordinated_config(
                tmp_path, peer_id="survivor", lease_ttl=0.3
            )
        ).start()
        try:
            client = ServiceClient(f"http://127.0.0.1:{thread.port}")
            response = client.submit_jobs(
                [{"benchmark": "gzip", "scale": SMALL}]
            )
            document = client.wait(response["items"][0]["ticket"])
            assert document["state"] == "done"
            daemon = thread.daemon
            assert daemon.reclaimed_takeovers == 1
            assert daemon.leases.reclaimed == 1
            assert daemon.computed_jobs == 1
            events = CoordinationLog.scan(
                shared_coordination_dir(tmp_path) / "log"
            )
            assert any(e["event"] == EVENT_RECLAIMED for e in events)
            publishes = [
                e
                for e in events
                if e["event"] == EVENT_PUBLISH and e["key"] == key
            ]
            assert len(publishes) == 1
        finally:
            thread.stop()

    def test_two_daemons_compute_a_shared_key_exactly_once(self, tmp_path):
        """Cross-daemon coalescing: one publish however many daemons ask."""
        alpha = ServiceThread(
            coordinated_config(tmp_path, peer_id="alpha")
        ).start()
        beta = ServiceThread(
            coordinated_config(tmp_path, peer_id="beta")
        ).start()
        try:
            batch = [{"benchmark": "ammp", "scale": SMALL}]
            documents = []
            for thread in (alpha, beta):
                client = ServiceClient(f"http://127.0.0.1:{thread.port}")
                response = client.submit_jobs(batch)
                item = response["items"][0]
                if item["status"] == "cached":
                    documents.append(item["result"])
                else:
                    documents.append(
                        client.wait(item["ticket"])["result"]["result"]
                    )
            assert documents[0] == documents[1]
            key = SimulationJob("ammp", scale=SMALL).key()
            events = CoordinationLog.scan(
                shared_coordination_dir(tmp_path) / "log"
            )
            publishes = [
                e
                for e in events
                if e["event"] == EVENT_PUBLISH and e["key"] == key
            ]
            assert len(publishes) == 1
        finally:
            alpha.stop()
            beta.stop()

    def test_gc_prunes_tickets_and_markers_and_counts_it(self, tmp_path):
        thread = ServiceThread(
            coordinated_config(tmp_path, peer_id="janitor")
        ).start()
        try:
            client = ServiceClient(f"http://127.0.0.1:{thread.port}")
            response = client.submit_jobs(
                [{"benchmark": "gzip", "scale": SMALL}]
            )
            client.wait(response["items"][0]["ticket"])
            time.sleep(0.05)
            swept = client.gc(ttl=0.01)
            assert swept["tickets"] == 1
            assert swept["markers"] == 1
            counters = client.metricz()
            assert counters["repro_service.coordination.gc.runs"] == 1
            assert (
                counters[
                    "repro_service.coordination.gc.pruned_tickets"
                ]
                == 1
            )
            with pytest.raises(ServiceError) as caught:
                client.ticket(response["items"][0]["ticket"])
            assert caught.value.status == 404
        finally:
            thread.stop()

    def test_gc_rejects_a_non_numeric_ttl(self, tmp_path):
        thread = ServiceThread(coordinated_config(tmp_path)).start()
        try:
            connection = HTTPConnection("127.0.0.1", thread.port, timeout=10)
            connection.request(
                "POST",
                "/v1/gc",
                body=json.dumps({"ttl": "soon"}).encode(),
                headers={"Content-Type": "application/json"},
            )
            assert connection.getresponse().status == 400
            connection.close()
        finally:
            thread.stop()

    def test_idle_sse_stream_carries_keepalive_comments(self, tmp_path):
        """An idle (remote-waiting) ticket's SSE stream stays warm."""
        job = SimulationJob("gzip", scale=SMALL)
        key = job.key()
        peer = LeaseManager(shared_coordination_dir(tmp_path), "slow-peer")
        lease = peer.acquire(key)
        thread = ServiceThread(
            coordinated_config(tmp_path, sse_keepalive=0.05)
        ).start()
        try:
            client = ServiceClient(f"http://127.0.0.1:{thread.port}")
            response = client.submit_jobs(
                [{"benchmark": "gzip", "scale": SMALL}]
            )
            ticket_id = response["items"][0]["ticket"]
            connection = HTTPConnection("127.0.0.1", thread.port, timeout=10)
            connection.request("GET", f"/v1/tickets/{ticket_id}/events")
            stream = connection.getresponse()
            assert stream.status == 200
            saw_keepalive = False
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                line = stream.readline().decode("utf-8")
                if line.startswith(": keepalive"):
                    saw_keepalive = True
                    break
            connection.close()
            assert saw_keepalive
            assert thread.daemon.sse_keepalives >= 1
        finally:
            peer.release(lease)
            thread.stop()

    def test_disconnected_sse_client_is_reaped(self, tmp_path):
        job = SimulationJob("gzip", scale=SMALL)
        peer = LeaseManager(shared_coordination_dir(tmp_path), "slow-peer")
        lease = peer.acquire(job.key())
        thread = ServiceThread(
            coordinated_config(tmp_path, sse_keepalive=0.05)
        ).start()
        try:
            client = ServiceClient(f"http://127.0.0.1:{thread.port}")
            response = client.submit_jobs(
                [{"benchmark": "gzip", "scale": SMALL}]
            )
            ticket_id = response["items"][0]["ticket"]
            raw = socket.create_connection(
                ("127.0.0.1", thread.port), timeout=10
            )
            raw.sendall(
                f"GET /v1/tickets/{ticket_id}/events HTTP/1.1\r\n"
                "Host: x\r\n\r\n".encode()
            )
            raw.recv(4096)  # the SSE head (and maybe first events)
            raw.close()  # walk away mid-stream
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if thread.daemon.sse_reaped >= 1:
                    break
                time.sleep(0.02)
            assert thread.daemon.sse_reaped >= 1
        finally:
            peer.release(lease)
            thread.stop()


# ----------------------------------------------------------------------
# CLI validation
# ----------------------------------------------------------------------
class TestServeCliValidation:
    def test_duplicate_weight_names_are_refused(self, capsys):
        from repro.cli import main

        code = main(
            ["serve", "--weight", "a=1", "--weight", "a=2", "--port", "0"]
        )
        assert code == 2
        assert "--weight" in capsys.readouterr().err

    def test_bad_peer_id_is_refused_naming_the_flag(self, capsys):
        from repro.cli import main

        code = main(["serve", "--peer-id", "../escape", "--port", "0"])
        assert code == 2
        assert "--peer-id" in capsys.readouterr().err

    def test_non_positive_lease_ttl_is_refused(self, capsys):
        from repro.cli import main

        code = main(["serve", "--lease-ttl", "0", "--port", "0"])
        assert code == 2
        assert "--lease-ttl" in capsys.readouterr().err

    def test_gc_verb_rejects_non_positive_ttl(self, capsys):
        from repro.cli import main

        code = main(["submit", "gc", "--ticket-ttl", "-1"])
        assert code == 2
        assert "--ticket-ttl" in capsys.readouterr().err


# ----------------------------------------------------------------------
# kill -9 chaos: three real daemons, one murdered mid-run
# ----------------------------------------------------------------------
def wait_for_daemon(url_socket: Path, deadline: float = 30.0) -> None:
    limit = time.monotonic() + deadline
    while time.monotonic() < limit:
        if url_socket.exists():
            try:
                ServiceClient(f"unix:{url_socket}", timeout=5).status()
                return
            except ServiceError:
                pass
        time.sleep(0.05)
    raise AssertionError(f"daemon at {url_socket} never became ready")


@pytest.mark.skipif(
    not os.environ.get("REPRO_CHAOS"),
    reason="multi-daemon kill -9 chaos runs with REPRO_CHAOS=1 (CI)",
)
class TestKillNineChaos:
    def test_fleet_survives_sigkill_with_exactly_once_publishes(
        self, tmp_path
    ):
        cache = tmp_path / "cache"
        import repro

        env = dict(os.environ)
        env["REPRO_CACHE_DIR"] = str(cache)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH", "")) if p
        )
        sockets = [tmp_path / f"peer{i}.sock" for i in range(3)]
        daemons = []
        for index, sock_path in enumerate(sockets):
            daemons.append(
                subprocess.Popen(
                    [
                        sys.executable,
                        "-c",
                        "from repro.cli import main; "
                        "raise SystemExit(main("
                        f"['serve', '--socket', {str(sock_path)!r}, "
                        f"'--peer-id', 'chaos-{index}', "
                        "'--lease-ttl', '0.5', '--jobs', '2', "
                        "'--backend', 'serial']))",
                    ],
                    env=env,
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL,
                )
            )
        try:
            for sock_path in sockets:
                wait_for_daemon(sock_path)
            urls = [f"unix:{sock_path}" for sock_path in sockets]
            spec = SweepSpec(
                "chaos",
                benchmarks=("gzip", "ammp"),
                scales=(SMALL,),
                nodes=(70, 100, 130, 180),
            )
            # The sweep goes to daemon 0; overlapping job batches go to
            # daemon 2 — the one about to die — through retrying clients
            # that fail over to the survivors.
            sweep_client = ServiceClient(urls[0], timeout=120)
            sweep_ticket = sweep_client.submit_sweep(spec.to_dict())
            doomed_first = ServiceClient(
                [urls[2], urls[0], urls[1]], timeout=120
            )
            doomed_first.submit_with_retry(
                [
                    {"benchmark": "gzip", "scale": SMALL},
                    {"benchmark": "ammp", "scale": SMALL},
                ],
                max_attempts=8,
                sleep=lambda _delay: time.sleep(0.05),
            )
            time.sleep(0.2)  # let daemon 2 claim leases mid-run
            os.kill(daemons[2].pid, signal.SIGKILL)
            daemons[2].wait(timeout=10)
            # The survivors reclaim whatever the dead peer held and the
            # retrying client lands its next batch on a live peer.
            response = doomed_first.submit_with_retry(
                [{"benchmark": "gzip", "scale": SMALL}],
                max_attempts=8,
                sleep=lambda _delay: time.sleep(0.05),
            )
            assert doomed_first.failovers >= 1
            item = response["items"][0]
            if item["status"] != "cached":
                doomed_first.wait(item["ticket"], timeout=120)
            served = sweep_client.wait(
                sweep_ticket["ticket"], timeout=120
            )["result"]

            offline = sweep_merge(spec, cache_dir=tmp_path / "offline")
            assert served["report"] == offline.report
            assert (
                served["report_sha256"]
                == offline.manifest["report_sha256"]
            )

            events = CoordinationLog.scan(
                cache / "service" / COORDINATION_SUBDIR / "log"
            )
            publishes = [
                e for e in events if e["event"] == EVENT_PUBLISH
            ]
            by_key = {}
            for event in publishes:
                by_key.setdefault(event["key"], []).append(event)
            doubled = {
                key: peers
                for key, peers in by_key.items()
                if len(peers) > 1
            }
            assert not doubled, f"keys published twice: {doubled}"
        finally:
            for daemon in daemons:
                if daemon.poll() is None:
                    daemon.kill()
                daemon.wait(timeout=10)
