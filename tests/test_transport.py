"""Zero-copy trace transport and the mmap trace-reader path.

The transport layer (:mod:`repro.engine.transport`) is opt-in and *advisory*: every
test here asserts two things at once — that the fast path (shared-memory
or on-disk arenas, mmap chunk views) produces bit-identical chunks to
the buffered reader, and that every failure mode falls back to the
reader instead of surfacing.  The lifecycle tests pin the ownership
rule: the publishing parent unlinks segments when a dispatch completes,
so a worker killed mid-chunk can never leak one.
"""

import json
import logging
import os
import tempfile

import numpy as np
import pytest
from conftest import broken_workers

from repro.cpu.trace import merge_chunks
from repro.engine import config, transport
from repro.cli import dumps_stable
from repro.engine.jobs import SimulationJob, job_result_payload
from repro.engine.parallel import ExecutionEngine
from repro.engine.store import NullStore
from repro.errors import EngineError
from repro.traces.format import TraceRecording, record_benchmark

SMALL = 0.03


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """A codec-none gzip trace recorded once for the module (read-only)."""
    path = tmp_path_factory.mktemp("transport") / "gzip.rtr"
    record_benchmark("gzip", path, scale=SMALL, chunk_instructions=20_000,
                     codec="none")
    return path


@pytest.fixture(scope="module")
def reference_chunks(recorded):
    return list(TraceRecording(recorded).chunks())


@pytest.fixture(autouse=True)
def clean_registry():
    transport.REGISTRY.reset()
    yield
    transport.REGISTRY.reset()


def assert_chunks_equal(actual, expected):
    __tracebackhide__ = True
    assert [len(c) for c in actual] == [len(c) for c in expected]
    a, b = merge_chunks(actual), merge_chunks(expected)
    assert np.array_equal(a.pcs, b.pcs)
    assert np.array_equal(a.data_addresses, b.data_addresses)
    assert np.array_equal(a.data_kinds, b.data_kinds)


class TestModeResolution:
    def test_env_selects_mode(self, monkeypatch):
        monkeypatch.setenv(config.ENV_TRANSPORT, "disk")
        assert config.resolve_transport_mode() == "disk"

    def test_auto_streams(self, monkeypatch):
        monkeypatch.delenv(config.ENV_TRANSPORT, raising=False)
        assert config.resolve_transport_mode() == "pickle"
        assert config.resolve_transport_mode("auto") == "pickle"

    def test_unknown_mode_names_the_variable(self):
        with pytest.raises(EngineError, match="REPRO_TRANSPORT"):
            config.resolve_transport_mode("carrier-pigeon")


@pytest.mark.parametrize("mode", ("shm", "disk"))
class TestArenaRoundTrip:
    def test_overlay_matches_reader_and_boundaries(
        self, recorded, reference_chunks, mode
    ):
        arena = transport.REGISTRY.acquire(str(recorded), mode)
        assert arena is not None and arena.mode == mode
        try:
            overlay = transport.overlay_chunks(str(recorded))
            assert overlay is not None
            assert_chunks_equal(list(overlay), reference_chunks)
        finally:
            transport.REGISTRY.release(str(recorded))

    def test_release_reclaims_segment(self, recorded, mode):
        arena = transport.REGISTRY.acquire(str(recorded), mode)
        segment, handle = arena.segment, arena.handle_path
        transport.REGISTRY.release(str(recorded))
        assert transport.REGISTRY.active_segments() == []
        assert not handle.exists()
        if mode == "disk":
            assert not os.path.exists(segment)
        else:
            from multiprocessing import shared_memory

            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=segment, create=False)

    def test_refcounted_across_concurrent_publishers(self, recorded, mode):
        first = transport.REGISTRY.acquire(str(recorded), mode)
        second = transport.REGISTRY.acquire(str(recorded), mode)
        assert second is first  # published once, shared
        transport.REGISTRY.release(str(recorded))
        assert transport.REGISTRY.active_segments() == [first.segment]
        transport.REGISTRY.release(str(recorded))
        assert transport.REGISTRY.active_segments() == []

    def test_views_survive_parent_unlink(self, recorded, reference_chunks,
                                         mode):
        # A worker mid-chunk when the parent reclaims the arena must be
        # able to finish its read: unlinking removes the name, not the
        # attached mapping.
        transport.REGISTRY.acquire(str(recorded), mode)
        chunks = list(transport.overlay_chunks(str(recorded)))
        transport.REGISTRY.release(str(recorded))
        assert_chunks_equal(chunks, reference_chunks)


class TestWorkerFallback:
    def test_no_manifest_dir_falls_back(self, recorded, monkeypatch):
        monkeypatch.delenv(transport.ENV_TRANSPORT_DIR, raising=False)
        assert transport.overlay_chunks(str(recorded)) is None

    def test_missing_handle_falls_back(self, recorded, monkeypatch,
                                       tmp_path):
        monkeypatch.setenv(transport.ENV_TRANSPORT_DIR, str(tmp_path))
        assert transport.overlay_chunks(str(recorded)) is None

    def test_corrupt_handle_falls_back(self, recorded, monkeypatch,
                                       tmp_path):
        monkeypatch.setenv(transport.ENV_TRANSPORT_DIR, str(tmp_path))
        handle = tmp_path / transport.handle_name(str(recorded))
        handle.write_text("{not json")
        assert transport.overlay_chunks(str(recorded)) is None

    def test_vanished_segment_falls_back_with_warning(
        self, recorded, monkeypatch, tmp_path, caplog
    ):
        monkeypatch.setenv(transport.ENV_TRANSPORT_DIR, str(tmp_path))
        handle = tmp_path / transport.handle_name(str(recorded))
        handle.write_text(json.dumps({
            "version": transport.HANDLE_VERSION,
            "mode": "shm",
            "trace_path": str(recorded),
            "segment": "psm_repro_gone",
            "instructions": 10,
            "chunk_offsets": [0],
        }))
        with caplog.at_level(logging.WARNING, logger="repro.engine.transport"):
            assert transport.overlay_chunks(str(recorded)) is None
        assert any("streaming from disk" in r.message for r in caplog.records)

    def test_publish_failure_is_advisory(self, tmp_path, caplog):
        missing = tmp_path / "nothing.rtr"
        with caplog.at_level(logging.WARNING, logger="repro.engine.transport"):
            assert transport.REGISTRY.acquire(str(missing), "shm") is None
        assert transport.REGISTRY.active_segments() == []
        assert any("publishing" in r.message for r in caplog.records)


class TestMmapReader:
    def test_codec_none_chunks_match_gzip_codec(self, recorded, tmp_path,
                                                reference_chunks):
        gz = tmp_path / "gzip.rtr"
        record_benchmark("gzip", gz, scale=SMALL, chunk_instructions=20_000,
                         codec="gzip")
        assert_chunks_equal(
            reference_chunks, list(TraceRecording(gz).chunks())
        )

    def test_chunks_are_zero_copy_views(self, reference_chunks):
        # Strided views into the record array, not materialized copies:
        # the element stride equals the 17-byte on-disk record size.
        assert reference_chunks[0].pcs.strides == (17,)

    def test_mmap_failure_falls_back_identically(self, recorded, monkeypatch,
                                                 reference_chunks, caplog):
        from repro.traces import format as fmt

        def refuse(*args, **kwargs):
            raise OSError("mmap disabled for the test")

        monkeypatch.setattr(fmt.mmap, "mmap", refuse)
        monkeypatch.setattr(fmt, "_MMAP_WARNED", False)
        with caplog.at_level(logging.WARNING, logger="repro.traces.format"):
            first = list(TraceRecording(recorded).chunks())
            second = list(TraceRecording(recorded).chunks())
        assert_chunks_equal(first, reference_chunks)
        assert_chunks_equal(second, reference_chunks)
        # Logged once per process, not once per read.
        warnings = [r for r in caplog.records if "falling back" in r.message]
        assert len(warnings) == 1


class TestEngineEndToEnd:
    def reference(self, ref):
        os.environ[config.ENV_TRANSPORT] = "pickle"
        try:
            engine = ExecutionEngine(jobs=1, store=NullStore())
            return engine.run_one(SimulationJob(ref)).annotated.result
        finally:
            os.environ.pop(config.ENV_TRANSPORT, None)

    @pytest.mark.parametrize("mode", ("pickle", "shm", "disk"))
    def test_pool_results_identical_across_transports(
        self, recorded, monkeypatch, mode
    ):
        ref = f"trace:{recorded}"
        expected = self.reference(ref)
        monkeypatch.setenv(config.ENV_TRANSPORT, mode)
        engine = ExecutionEngine(jobs=2, backend="pool", store=NullStore())
        # Two pending jobs: the pool engages its workers (and publishes
        # the trace); one job alone would run in-process.  The second is
        # ammp: gzip at SMALL shares the trace's content address, so the
        # engine would run the pair as one job.
        job = SimulationJob(ref)
        outcome = engine.run([job, SimulationJob("ammp", scale=SMALL)])[job]
        assert outcome.source == "parallel"
        assert outcome.annotated.result == expected
        assert transport.REGISTRY.active_segments() == []
        assert engine.telemetry.substrate["transport"] == mode
        substrate = engine.telemetry.manifest()["substrate"]
        assert substrate["transport"] == mode
        assert substrate["traces_published"] == (0 if mode == "pickle" else 1)

    def test_killed_pool_worker_leaks_nothing_and_job_completes(
        self, recorded, monkeypatch
    ):
        # kill -9 semantics: the worker os._exit()s mid-job on the first
        # attempt, after the parent published the arena.  The job then
        # runs in-process; the parent — sole owner of the segment — still
        # unlinks it when the dispatch settles.
        ref = f"trace:{recorded}"
        expected = self.reference(ref)
        monkeypatch.setenv(config.ENV_TRANSPORT, "shm")
        engine = ExecutionEngine(jobs=2, backend="subprocess", store=NullStore())
        with broken_workers(**{ref: "crash"}):
            outcome = engine.run_one(SimulationJob(ref))
        # The worker could not have finished it: the job completed on
        # its second attempt, in-process.
        assert (outcome.source, outcome.attempts) == ("serial-fallback", 2)
        assert outcome.annotated.result == expected
        assert transport.REGISTRY.active_segments() == []

    def test_default_subprocess_job_streams_and_matches_shm(
        self, recorded, monkeypatch
    ):
        ref = f"trace:{recorded}"
        results = {}
        for mode in (None, "shm"):
            if mode is None:
                monkeypatch.delenv(config.ENV_TRANSPORT, raising=False)
            else:
                monkeypatch.setenv(config.ENV_TRANSPORT, mode)
            engine = ExecutionEngine(jobs=1, backend="subprocess",
                                     store=NullStore())
            outcome = engine.run_one(SimulationJob(ref))
            assert outcome.source == "subprocess"
            substrate = engine.telemetry.manifest()["substrate"]
            results[mode] = (outcome.annotated, substrate)
        default, shm = results[None], results["shm"]
        assert default[1]["transport"] == "pickle"
        assert default[1]["traces_published"] == 0
        assert shm[1]["traces_published"] == 1
        assert default[0].result == shm[0].result
        job = SimulationJob(ref)
        assert dumps_stable(job_result_payload(job, default[0])) == (
            dumps_stable(job_result_payload(job, shm[0]))
        )

    def test_shm_dispatch_leaves_no_handle_directory(
        self, recorded, monkeypatch, tmp_path
    ):
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setenv("TMPDIR", str(scratch))
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        monkeypatch.setenv(config.ENV_TRANSPORT, "shm")
        monkeypatch.delenv(transport.ENV_TRANSPORT_DIR, raising=False)
        engine = ExecutionEngine(jobs=1, backend="subprocess",
                                 store=NullStore())
        engine.run_one(SimulationJob(f"trace:{recorded}"))
        substrate = engine.telemetry.manifest()["substrate"]
        assert substrate["traces_published"] == 1
        assert list(scratch.iterdir()) == []
        assert transport.ENV_TRANSPORT_DIR not in os.environ

    def test_subprocess_workers_inherit_transport(self, recorded,
                                                  monkeypatch):
        ref = f"trace:{recorded}"
        expected = self.reference(ref)
        monkeypatch.setenv(config.ENV_TRANSPORT, "shm")
        engine = ExecutionEngine(jobs=2, backend="subprocess",
                                 store=NullStore())
        outcome = engine.run_one(SimulationJob(ref))
        assert outcome.annotated.result == expected
        assert transport.REGISTRY.active_segments() == []
