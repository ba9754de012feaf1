"""The leakage-analysis service: admission, coalescing, tickets, HTTP.

The contract under test: serving changes *where* results come from,
never *what* they are.  N concurrent clients asking for the same
content address get byte-identical result documents from exactly one
computation; a full admission queue refuses fast (429 + Retry-After)
instead of queueing unboundedly; a drained daemon journals its promises
and a restarted one keeps them without recomputing or losing anything;
and a sweep served over HTTP produces the same report bytes as the
offline ``sweep merge`` CLI.
"""

import json
import os
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.cli import EXIT_REJECTED, main
from repro.engine import ExecutionEngine, ResultStore, SimulationJob
from repro.errors import ReproError
from repro.service import (
    AdmissionFull,
    AdmissionQueue,
    CoalesceRegistry,
    ServiceConfig,
    ServiceDaemon,
    ServiceThread,
    TicketRegistry,
    WorkItem,
    dumps_stable,
)
from repro.service.client import ServiceClient, ServiceError, ServiceRejected
from repro.service.protocol import (
    flatten_counters,
    job_result_payload,
    parse_job_batch,
    parse_job_spec,
    parse_metricz,
    render_metricz,
    ProtocolError,
)
from repro.service.tickets import TicketError
from repro.sweep import SweepSpec, expand, merge as sweep_merge

#: Small enough that one simulation takes well under a second.
SMALL = 0.02


@pytest.fixture(autouse=True)
def isolated_env(tmp_path, monkeypatch):
    """Each test gets its own cache dir and a clean engine environment."""
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


def service_config(tmp_path, **overrides):
    kwargs = dict(
        port=0,
        jobs=2,
        backend="serial",
        cache_dir=str(tmp_path / "cache"),
        max_queue=32,
    )
    kwargs.update(overrides)
    return ServiceConfig(**kwargs)


@pytest.fixture()
def service(tmp_path):
    """A running daemon on an ephemeral port, stopped afterwards."""
    thread = ServiceThread(service_config(tmp_path)).start()
    yield thread
    thread.stop()


def offline_result(tmp_path, benchmark, scale=SMALL):
    """The result document a clean offline engine produces for one job."""
    job = SimulationJob(benchmark, scale=scale)
    engine = ExecutionEngine(
        jobs=1,
        backend="serial",
        store=ResultStore(tmp_path / "offline-cache"),
    )
    return job_result_payload(job, engine.run_one(job).annotated)


# ----------------------------------------------------------------------
# Admission queue
# ----------------------------------------------------------------------
class TestAdmissionQueue:
    def test_bounded_admission_raises_when_full(self):
        queue = AdmissionQueue(limit=2)
        queue.admit(WorkItem("t1", "k1", "a"))
        queue.admit(WorkItem("t2", "k2", "a"))
        assert not queue.can_admit(1)
        with pytest.raises(AdmissionFull) as caught:
            queue.admit(WorkItem("t3", "k3", "a"))
        assert caught.value.depth == 2
        assert caught.value.limit == 2
        assert queue.rejected == 1

    def test_internal_items_bypass_the_bound(self):
        queue = AdmissionQueue(limit=1)
        queue.admit(WorkItem("t1", "k1", "a"))
        queue.admit(WorkItem("t2", "k2", "daemon", internal=True))
        assert queue.depth == 1
        assert queue.internal_depth == 1

    def test_round_robin_between_equal_clients(self):
        queue = AdmissionQueue(limit=16)
        for index in range(3):
            queue.admit(WorkItem(f"a{index}", f"ka{index}", "alice"))
        for index in range(3):
            queue.admit(WorkItem(f"b{index}", f"kb{index}", "bob"))
        order = [queue.pop().ticket_id for _ in range(6)]
        # Stride scheduling with equal weights interleaves the clients
        # even though alice enqueued her whole burst first.
        assert order == ["a0", "b0", "a1", "b1", "a2", "b2"]

    def test_weighted_clients_drain_proportionally(self):
        queue = AdmissionQueue(limit=16, weights={"heavy": 2.0})
        for index in range(4):
            queue.admit(WorkItem(f"h{index}", f"kh{index}", "heavy"))
            queue.admit(WorkItem(f"l{index}", f"kl{index}", "light"))
        order = [queue.pop().client for _ in range(6)]
        assert order.count("heavy") == 4
        assert order.count("light") == 2

    def test_pop_order_is_deterministic(self):
        def fill(queue):
            for client in ("zeta", "alpha", "mid"):
                for index in range(2):
                    queue.admit(
                        WorkItem(f"{client}{index}", f"k{client}{index}", client)
                    )
            return [queue.pop().ticket_id for _ in range(6)]

        assert fill(AdmissionQueue(limit=16)) == fill(AdmissionQueue(limit=16))

    def test_new_client_starts_at_the_pass_floor(self):
        queue = AdmissionQueue(limit=16)
        for index in range(4):
            queue.admit(WorkItem(f"a{index}", f"ka{index}", "alice"))
        assert queue.pop().ticket_id == "a0"
        assert queue.pop().ticket_id == "a1"
        # A latecomer must not get credit for its idle past: it starts at
        # the current floor and interleaves, rather than draining first.
        queue.admit(WorkItem("b0", "kb0", "bob"))
        queue.admit(WorkItem("b1", "kb1", "bob"))
        order = [queue.pop().ticket_id for _ in range(4)]
        assert order.count("a2") == 1 and order.count("b0") == 1
        assert order[:2] in (["a2", "b0"], ["b0", "a2"])

    def test_pending_preview_matches_pop_order(self):
        queue = AdmissionQueue(limit=16)
        for client in ("bob", "alice"):
            for index in range(2):
                queue.admit(
                    WorkItem(f"{client}{index}", f"k{client}{index}", client)
                )
        preview = [item.ticket_id for item in queue.pending()]
        popped = [queue.pop().ticket_id for _ in range(4)]
        assert preview == popped

    def test_snapshot_counts(self):
        queue = AdmissionQueue(limit=4, weights={"alice": 2.0})
        queue.admit(WorkItem("t1", "k1", "alice"))
        queue.reject_batch("bob", 3)
        snapshot = queue.snapshot()
        assert snapshot["depth"] == 1
        assert snapshot["admitted"] == 1
        assert snapshot["rejected"] == 3
        assert snapshot["clients"]["alice"]["weight"] == 2.0

    def test_rejects_nonpositive_limit(self):
        with pytest.raises(ReproError, match="admission limit"):
            AdmissionQueue(limit=0)


# ----------------------------------------------------------------------
# Coalescing registry
# ----------------------------------------------------------------------
class TestCoalesceRegistry:
    def test_leader_then_followers(self):
        registry = CoalesceRegistry()
        assert registry.leader_for("k") is None
        registry.begin("k", "t-leader")
        assert registry.leader_for("k") == "t-leader"
        assert registry.attach("k", "t-f1") == "t-leader"
        assert registry.attach("k", "t-f2") == "t-leader"
        assert registry.complete("k") == ["t-f1", "t-f2"]
        assert registry.leader_for("k") is None
        assert registry.computations == 1
        assert registry.coalesced == 2

    def test_watchers_are_deduplicated_and_cleared(self):
        registry = CoalesceRegistry()
        registry.begin("k", "t-leader")
        registry.watch("k", "t-sweep")
        registry.watch("k", "t-sweep")
        assert registry.watchers("k") == ["t-sweep"]
        registry.complete("k")
        assert registry.watchers("k") == []

    def test_in_flight_tracks_leaders(self):
        registry = CoalesceRegistry()
        registry.begin("k1", "t1")
        registry.begin("k2", "t2")
        assert registry.in_flight == 2
        registry.complete("k1")
        assert registry.in_flight == 1


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_job_spec_round_trip_shares_sweep_content_address(self):
        job = parse_job_spec({"benchmark": "gzip", "scale": SMALL})
        spec = SweepSpec("s", benchmarks=("gzip",), scales=(SMALL,))
        point_keys = [point.key() for point in expand(spec)]
        assert job.key() in point_keys

    @pytest.mark.parametrize(
        "body, match",
        [
            ("not-a-dict", "must be an object"),
            ({}, "needs a 'benchmark'"),
            ({"benchmark": "gzip", "bogus": 1}, "unknown fields"),
            ({"benchmark": "gzip", "scale": "big"}, "must be a number"),
            ({"benchmark": "nonsense"}, "nonsense"),
        ],
    )
    def test_bad_job_specs_are_refused(self, body, match):
        with pytest.raises(ProtocolError, match=match):
            parse_job_spec(body)

    def test_batch_needs_a_nonempty_jobs_array(self):
        with pytest.raises(ProtocolError, match="'jobs'"):
            parse_job_batch({"jobs": []})
        with pytest.raises(ProtocolError, match="'jobs'"):
            parse_job_batch({})

    def test_dumps_stable_is_byte_stable(self):
        a = dumps_stable({"b": 1, "a": {"y": 2, "x": 3}})
        b = dumps_stable({"a": {"x": 3, "y": 2}, "b": 1})
        assert a == b
        assert a.endswith("\n")

    def test_metricz_round_trip(self):
        counters = flatten_counters(
            {"a": {"b": 2, "flag": True}, "c": 1.5, "name": "skipped"}
        )
        assert counters == {"a.b": 2, "a.flag": 1, "c": 1.5}
        assert parse_metricz(render_metricz(counters)) == counters


# ----------------------------------------------------------------------
# Tickets
# ----------------------------------------------------------------------
class TestTickets:
    def test_lifecycle_and_terminal_guard(self, tmp_path):
        registry = TicketRegistry(tmp_path / "tickets")
        ticket = registry.create("job", {"benchmark": "gzip"}, "k" * 64, "a")
        assert ticket.state == "queued"
        registry.transition(ticket, "running")
        registry.transition(ticket, "done", result={"answer": 42})
        with pytest.raises(TicketError, match="terminal"):
            registry.transition(ticket, "running")

    def test_persistence_survives_a_new_registry(self, tmp_path):
        directory = tmp_path / "tickets"
        first = TicketRegistry(directory)
        queued = first.create("job", {"benchmark": "gzip"}, "a" * 64, "cli")
        done = first.create("job", {"benchmark": "ammp"}, "b" * 64, "cli")
        first.transition(done, "done", result={"ok": True})

        second = TicketRegistry(directory)
        resumable = second.load()
        assert [ticket.id for ticket in resumable] == [queued.id]
        restored = second.get(done.id)
        assert restored.state == "done"
        assert restored.result == {"ok": True}
        # Sequence numbers keep advancing across restarts.
        third = second.create("job", {"benchmark": "gzip"}, "c" * 64, "cli")
        assert third.seq > done.seq

    def test_malformed_ticket_files_are_skipped(self, tmp_path):
        directory = tmp_path / "tickets"
        registry = TicketRegistry(directory)
        registry.create("job", {"benchmark": "gzip"}, "a" * 64, "cli")
        (directory / "t999999-torn.json").write_text("{torn", encoding="utf-8")
        fresh = TicketRegistry(directory)
        assert len(fresh.load()) == 1

    def test_event_sequence_numbers(self, tmp_path):
        registry = TicketRegistry(tmp_path / "tickets")
        ticket = registry.create("job", {}, "k" * 64, "a")
        registry.add_event(ticket, {"event": "one"})
        registry.add_event(ticket, {"event": "two"})
        assert [e["seq"] for e in ticket.events] == [1, 2]
        assert [e["event"] for e in ticket.payload(events_after=1)["events"]] == [
            "two"
        ]


# ----------------------------------------------------------------------
# The daemon end to end
# ----------------------------------------------------------------------
class TestServiceEndToEnd:
    def test_submit_wait_and_cached_resubmit(self, service, tmp_path):
        client = ServiceClient(
            f"http://127.0.0.1:{service.port}", client="t1"
        )
        response = client.submit_jobs(
            [{"benchmark": "gzip", "scale": SMALL}]
        )
        item = response["items"][0]
        assert item["status"] == "queued"
        ticket = client.wait(item["ticket"])
        served = ticket["result"]["result"]
        assert served == offline_result(tmp_path, "gzip")

        again = client.submit_jobs([{"benchmark": "gzip", "scale": SMALL}])
        cached = again["items"][0]
        assert cached["status"] == "cached"
        assert dumps_stable(cached["result"]) == dumps_stable(served)

    def test_unknown_ticket_and_path_are_404(self, service):
        client = ServiceClient(f"http://127.0.0.1:{service.port}")
        with pytest.raises(ServiceError) as caught:
            client.ticket("t-does-not-exist")
        assert caught.value.status == 404
        with pytest.raises(ServiceError) as caught:
            client._request("GET", "/v2/nope")
        assert caught.value.status == 404

    def test_malformed_bodies_are_400(self, service):
        client = ServiceClient(f"http://127.0.0.1:{service.port}")
        with pytest.raises(ServiceError) as caught:
            client.submit_jobs([{"benchmark": "gzip", "bogus": 1}])
        assert caught.value.status == 400

    def test_full_queue_rejects_whole_batch_with_retry_after(self, tmp_path):
        thread = ServiceThread(
            service_config(tmp_path, max_queue=1)
        ).start()
        try:
            client = ServiceClient(f"http://127.0.0.1:{thread.port}")
            with pytest.raises(ServiceRejected) as caught:
                client.submit_jobs(
                    [
                        {"benchmark": "gzip", "scale": SMALL},
                        {"benchmark": "ammp", "scale": SMALL},
                        {"benchmark": "mesa", "scale": SMALL},
                    ]
                )
            assert caught.value.retry_after > 0
            # No tickets were created for the refused batch.
            assert thread.daemon.tickets.counts()["queued"] == 0
        finally:
            thread.stop()

    def test_coalescing_one_computation_many_clients(self, service, tmp_path):
        base = f"http://127.0.0.1:{service.port}"
        batch = [
            {"benchmark": "gzip", "scale": SMALL},
            {"benchmark": "ammp", "scale": SMALL},
        ]

        def submit(index):
            client = ServiceClient(base, client=f"client-{index}")
            response = client.submit_jobs(batch)
            documents = []
            for item in response["items"]:
                if item["status"] == "cached":
                    documents.append(item["result"])
                else:
                    documents.append(
                        client.wait(item["ticket"])["result"]["result"]
                    )
            return [dumps_stable(doc) for doc in documents]

        with ThreadPoolExecutor(max_workers=4) as pool:
            outcomes = list(pool.map(submit, range(4)))

        # Byte-identical results for every client...
        for outcome in outcomes[1:]:
            assert outcome == outcomes[0]
        # ...matching a clean offline engine...
        assert outcomes[0][0] == dumps_stable(offline_result(tmp_path, "gzip"))
        assert outcomes[0][1] == dumps_stable(offline_result(tmp_path, "ammp"))
        # ...from exactly one computation per content address.
        metricz = ServiceClient(base).metricz()
        assert metricz["repro_service.coalesce.computations"] == 2
        daemon = service.daemon
        total = (
            daemon.coalesce.coalesced + daemon.immediate_cache_hits
        )
        assert total == 4 * 2 - 2  # every non-leader request was free

    def test_coalescing_determinism_under_faults(self, tmp_path, monkeypatch):
        expected = dumps_stable(offline_result(tmp_path, "gzip"))
        monkeypatch.setenv("REPRO_FAULTS", "raise:gzip@*:attempt=1")
        thread = ServiceThread(service_config(tmp_path)).start()
        try:
            base = f"http://127.0.0.1:{thread.port}"

            def submit(index):
                client = ServiceClient(base, client=f"chaos-{index}")
                response = client.submit_jobs(
                    [{"benchmark": "gzip", "scale": SMALL}]
                )
                item = response["items"][0]
                if item["status"] == "cached":
                    return dumps_stable(item["result"])
                return dumps_stable(
                    client.wait(item["ticket"])["result"]["result"]
                )

            with ThreadPoolExecutor(max_workers=3) as pool:
                outcomes = list(pool.map(submit, range(3)))
            assert outcomes == [expected] * 3
            assert thread.daemon.coalesce.computations == 1
        finally:
            thread.stop()

    def test_sse_event_stream_reaches_done(self, service):
        client = ServiceClient(f"http://127.0.0.1:{service.port}")
        response = client.submit_jobs([{"benchmark": "gzip", "scale": SMALL}])
        item = response["items"][0]
        events = list(client.events(item["ticket"]))
        names = [event.get("event") for event in events]
        assert names[-1] == "end"
        assert events[-1]["state"] == "done"
        assert "admitted" in names
        assert "done" in names

    def test_status_and_metricz_agree(self, service):
        client = ServiceClient(f"http://127.0.0.1:{service.port}")
        client.submit_jobs([{"benchmark": "gzip", "scale": SMALL}])
        document = client.status()
        assert document["protocol_version"] == 2
        assert document["service"]["admission"]["limit"] == 32
        counters = client.metricz()
        assert (
            counters["repro_service.admission.limit"]
            == document["service"]["admission"]["limit"]
        )

    def test_draining_daemon_rejects_writes_serves_reads(self, service):
        client = ServiceClient(f"http://127.0.0.1:{service.port}")
        client.drain()
        with pytest.raises(ServiceError) as caught:
            client.submit_jobs([{"benchmark": "gzip", "scale": SMALL}])
        assert caught.value.status == 503
        assert client.status()["service"]["draining"] is True


class TestSweepOverService:
    def test_served_sweep_report_byte_equals_offline_merge(
        self, service, tmp_path
    ):
        client = ServiceClient(f"http://127.0.0.1:{service.port}")
        spec = SweepSpec(
            "served",
            benchmarks=("gzip", "ammp"),
            scales=(SMALL,),
            nodes=(70, 180),
        )
        response = client.submit_sweep(spec.to_dict())
        ticket = client.wait(response["ticket"])
        served_report = ticket["result"]["report"]

        offline = sweep_merge(spec, cache_dir=tmp_path / "offline-sweep")
        assert served_report == offline.report
        assert (
            ticket["result"]["report_sha256"]
            == offline.manifest["report_sha256"]
        )

    def test_sweep_points_coalesce_with_job_submissions(self, service):
        client = ServiceClient(f"http://127.0.0.1:{service.port}")
        client.submit_jobs([{"benchmark": "gzip", "scale": SMALL}])
        spec = SweepSpec("overlap", benchmarks=("gzip",), scales=(SMALL,))
        response = client.submit_sweep(spec.to_dict())
        ticket = client.wait(response["ticket"])
        assert ticket["state"] == "done"
        # The grid point reused the job submission's computation: the
        # daemon never computed the same content address twice.
        daemon = service.daemon
        keys = {point.key() for point in expand(spec)}
        assert daemon.coalesce.computations == len(keys)

    def test_conflicting_sweep_spec_is_409(self, service):
        client = ServiceClient(f"http://127.0.0.1:{service.port}")
        first = SweepSpec("pinned", benchmarks=("gzip",), scales=(SMALL,))
        client.wait(client.submit_sweep(first.to_dict())["ticket"])
        conflicting = SweepSpec(
            "pinned", benchmarks=("ammp",), scales=(SMALL,)
        )
        with pytest.raises(ServiceError) as caught:
            client.submit_sweep(conflicting.to_dict())
        assert caught.value.status == 409


#: The CI chaos matrix sets REPRO_CHAOS_BACKEND to pool/subprocess/serial;
#: locally the default exercises the full degradation chain.
CHAOS_BACKEND = os.environ.get("REPRO_CHAOS_BACKEND", "pool")


@pytest.mark.skipif(
    not os.environ.get("REPRO_CHAOS"),
    reason="chaos sweep only runs with REPRO_CHAOS=1 (CI chaos job)",
)
class TestServiceChaos:
    """Chaos through the serving path: faults on, answers unchanged."""

    def test_served_results_survive_chaos(self, tmp_path, monkeypatch):
        expected = {
            name: dumps_stable(offline_result(tmp_path, name))
            for name in ("gzip", "ammp")
        }
        monkeypatch.setenv("REPRO_RETRY_DELAY", "0.01")
        monkeypatch.setenv(
            "REPRO_FAULTS",
            "raise:gzip@*:attempt=1,partial:gzip@*,corrupt:ammp@*",
        )
        thread = ServiceThread(
            service_config(tmp_path, backend=CHAOS_BACKEND)
        ).start()
        try:
            base = f"http://127.0.0.1:{thread.port}"

            def submit(index):
                client = ServiceClient(base, client=f"chaos-{index}")
                response = client.submit_jobs(
                    [
                        {"benchmark": "gzip", "scale": SMALL},
                        {"benchmark": "ammp", "scale": SMALL},
                    ]
                )
                documents = []
                for item in response["items"]:
                    if item["status"] == "cached":
                        documents.append(item["result"])
                    else:
                        documents.append(
                            client.wait(item["ticket"])["result"]["result"]
                        )
                return [dumps_stable(doc) for doc in documents]

            with ThreadPoolExecutor(max_workers=3) as pool:
                outcomes = list(pool.map(submit, range(3)))
            for outcome in outcomes:
                assert outcome == [expected["gzip"], expected["ammp"]]
            assert thread.daemon.coalesce.computations == 2
        finally:
            thread.stop()


class TestDrainAndResume:
    def test_restart_resumes_journaled_tickets_without_rework(self, tmp_path):
        config = service_config(tmp_path)
        # A daemon that admitted work and "crashed" before computing any
        # of it: tickets are journaled, the scheduler never ran.
        crashed = ServiceDaemon(config)
        response = crashed.submit_jobs(
            [
                SimulationJob("gzip", scale=SMALL),
                SimulationJob("ammp", scale=SMALL),
                SimulationJob("gzip", scale=SMALL),  # duplicate: coalesces
            ],
            client="resumer",
        )
        ticket_ids = [
            item["ticket"] for item in response["items"] if "ticket" in item
        ]
        assert len(ticket_ids) == 3
        assert crashed.tickets.counts()["queued"] == 3

        thread = ServiceThread(config).start()
        try:
            client = ServiceClient(f"http://127.0.0.1:{thread.port}")
            documents = [
                client.wait(ticket_id)["result"]["result"]
                for ticket_id in ticket_ids
            ]
            # Every promise kept, nothing computed twice.
            assert dumps_stable(documents[0]) == dumps_stable(documents[2])
            assert documents[0] == offline_result(tmp_path, "gzip")
            assert documents[1] == offline_result(tmp_path, "ammp")
            assert thread.daemon.coalesce.computations == 2
            assert thread.daemon.resumed_tickets == 3
        finally:
            thread.stop()

    def test_drain_journals_queued_tickets_and_writes_profile(self, tmp_path):
        config = service_config(tmp_path)
        daemon = ServiceDaemon(config)
        daemon.submit_jobs(
            [SimulationJob("gzip", scale=SMALL)], client="drained"
        )
        # Graceful stop without ever starting the loop: the ticket stays
        # journaled as queued and the ServiceProfile lands in manifest v7.
        import asyncio

        asyncio.run(daemon.stop())
        manifest_path = tmp_path / "cache" / "service" / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        assert manifest["manifest_version"] == 10
        assert manifest["coordination"]["peer_id"] == daemon.peer_id
        assert manifest["service"]["tickets"]["queued"] == 1
        assert manifest["service"]["draining"] is True

        registry = TicketRegistry(tmp_path / "cache" / "service" / "tickets")
        assert [t.state for t in registry.load()] == ["queued"]


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
class TestServiceCli:
    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "repro-leakage" in capsys.readouterr().out

    def test_cache_info_json_is_stable_machine_output(self, capsys):
        assert main(["cache", "info", "--json"]) == 0
        first = capsys.readouterr().out
        document = json.loads(first)
        assert set(document) == {
            "bytes",
            "directory",
            "entries",
            "max_bytes",
            "quarantined",
            "sharing",
            "trace_bytes",
            "trace_files",
            "traces",
        }
        assert document["traces"] == {
            "files": document["trace_files"],
            "bytes": document["trace_bytes"],
        }
        assert main(["cache", "info", "--json"]) == 0
        assert capsys.readouterr().out == first

    def test_cache_clear_rejects_json(self, capsys):
        assert main(["cache", "clear", "--json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_sweep_status_json(self, capsys):
        spec_args = [
            "--sweep-name", "cli-status",
            "--benchmarks", "gzip",
            "--scales", str(SMALL),
        ]
        assert main(["sweep", "run"] + spec_args + ["--backend", "serial"]) == 0
        capsys.readouterr()
        assert main(["sweep", "status"] + spec_args + ["--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["sweep"] == "cli-status"
        assert document["completed"] == document["grid_jobs"]
        assert document["missing"] == []

    def test_submit_against_dead_endpoint_fails_cleanly(self, capsys):
        code = main(
            [
                "submit", "status",
                "--url", "http://127.0.0.1:9",  # discard port: nothing there
                "--timeout", "2",
            ]
        )
        assert code == 2
        assert "unreachable" in capsys.readouterr().err

    def test_submit_jobs_round_trip(self, service, capsys):
        url = f"http://127.0.0.1:{service.port}"
        code = main(
            [
                "submit", "jobs", "gzip",
                "--scale", str(SMALL),
                "--url", url,
                "--client", "cli",
            ]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["jobs"][0]["result"]["benchmark"] == "gzip"

    def test_submit_rejection_exit_code(self, tmp_path, capsys):
        thread = ServiceThread(service_config(tmp_path, max_queue=1)).start()
        try:
            url = f"http://127.0.0.1:{thread.port}"
            code = main(
                [
                    "submit", "jobs", "gzip", "ammp", "mesa",
                    "--scale", str(SMALL),
                    "--url", url,
                ]
            )
            assert code == EXIT_REJECTED
            assert "retry after" in capsys.readouterr().err
        finally:
            thread.stop()

    def test_run_output_write_failure_is_exit_2(self, tmp_path, capsys):
        target = tmp_path / "not-a-dir" / "deep" / "report.txt"
        code = main(
            [
                "run", "table1",
                "--output", str(target),
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err
