"""Real-trace ingestion: format, registry, streaming equality.

The contract under test: *where a workload comes from never changes
what it computes*.  A benchmark recorded to disk and streamed back
shares the synthetic original's content address and serializes to the
byte-identical result document; a foreign trace is keyed by a
chunking- and codec-independent content digest; corruption anywhere in
a trace file is detected and named before it can poison a simulation.
"""

import gc
import hashlib
import json
import re
import struct
import sys
import threading
import time
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.cache.kernel import validate_chunk, validated_chunks
from repro.cli import dumps_stable, main
from repro.cpu.pipeline import PipelineConfig
from repro.cpu.trace import LOAD, NO_ACCESS, STORE, TraceChunk, merge_chunks
from repro.engine import ExecutionEngine, NullStore, ResultStore, SimulationJob
from repro.engine.jobs import SOURCE_CACHED, job_result_payload
from repro.errors import (
    ConfigurationError,
    EngineError,
    TraceError,
    TraceFormatError,
    TraceValidationError,
    WorkloadRefError,
)
from repro.prefetch.analysis import annotate_workload_trace
from repro.sweep import SweepSpec
from repro.traces import (
    ConversionReport,
    TraceRecording,
    TraceWriter,
    check_workload,
    convert_gem5_text,
    format_trace_ref,
    is_trace_ref,
    parse_trace_ref,
    record_benchmark,
    record_chunks,
    trace_info,
)
from repro.traces import format as trace_format
from repro.workloads.benchmarks import make_benchmark

#: Small enough that one simulation takes well under a second.
SMALL = 0.02


@pytest.fixture(autouse=True)
def isolated_env(tmp_path, monkeypatch):
    """Each test gets its own cache dir."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path


@pytest.fixture(scope="module")
def gzip_chunks():
    """The synthetic gzip workload's chunks, materialized once."""
    return list(make_benchmark("gzip", scale=SMALL).chunks())


@pytest.fixture(scope="module")
def recorded(tmp_path_factory, gzip_chunks):
    """A gzip trace recorded once for the whole module (read-only!)."""
    path = tmp_path_factory.mktemp("traces") / "gzip.rtr"
    info = record_benchmark("gzip", path, scale=SMALL, chunk_instructions=20_000)
    return info


def serial_engine(tmp_path):
    return ExecutionEngine(jobs=1, store=ResultStore(tmp_path / "engine-cache"))


# ----------------------------------------------------------------------
# On-disk format
# ----------------------------------------------------------------------
class TestFormat:
    def test_round_trip_is_byte_identical(self, tmp_path, gzip_chunks):
        path = tmp_path / "rt.rtr"
        info = record_chunks(gzip_chunks, path)
        original = merge_chunks(gzip_chunks)
        restored = merge_chunks(TraceRecording(path).chunks())
        assert np.array_equal(original.pcs, restored.pcs)
        assert np.array_equal(original.data_addresses, restored.data_addresses)
        assert np.array_equal(original.data_kinds, restored.data_kinds)
        assert info.codec == "gzip"
        assert info.instructions == len(original)
        assert info.file_bytes == path.stat().st_size

    def test_digest_is_independent_of_chunking_and_codec(
        self, tmp_path, gzip_chunks, monkeypatch
    ):
        # The compression level stands in for the codec: the digest is
        # over the uncompressed payloads.
        a = record_chunks(gzip_chunks, tmp_path / "a.rtr", chunk_instructions=7_000)
        monkeypatch.setattr(trace_format, "GZIP_LEVEL", 1)
        b = record_chunks(gzip_chunks, tmp_path / "b.rtr", chunk_instructions=50_000)
        assert a.digest == b.digest
        assert a.instructions == b.instructions
        assert a.chunks != b.chunks

    def test_writer_rechunks_to_exact_size(self, tmp_path, gzip_chunks):
        info = record_chunks(
            gzip_chunks, tmp_path / "re.rtr", chunk_instructions=10_000
        )
        sizes = [len(c) for c in TraceRecording(info.path).chunks()]
        assert all(n == 10_000 for n in sizes[:-1])
        assert 0 < sizes[-1] <= 10_000
        assert sum(sizes) == info.instructions

    def test_writer_abort_leaves_nothing_behind(self, tmp_path, gzip_chunks):
        writer = TraceWriter(tmp_path / "aborted.rtr")
        writer.append(gzip_chunks[0])
        writer.abort()
        assert list(tmp_path.iterdir()) == []

    def test_writer_context_exception_aborts(self, tmp_path, gzip_chunks):
        with pytest.raises(RuntimeError):
            with TraceWriter(tmp_path / "boom.rtr") as writer:
                writer.append(gzip_chunks[0])
                raise RuntimeError("producer died")
        assert list(tmp_path.iterdir()) == []

    def test_not_a_trace_file(self, tmp_path):
        bogus = tmp_path / "bogus.rtr"
        bogus.write_bytes(b"this is not a trace file at all........")
        with pytest.raises(TraceFormatError):
            TraceRecording(bogus)

    def test_truncated_file_is_detected(self, tmp_path, recorded):
        data = Path(recorded.path).read_bytes()
        clipped = tmp_path / "clipped.rtr"
        clipped.write_bytes(data[: len(data) // 2])
        with pytest.raises(TraceFormatError):
            TraceRecording(clipped).validate()

    def test_missing_trailer_is_detected(self, tmp_path, recorded):
        data = Path(recorded.path).read_bytes()
        cut = tmp_path / "cut.rtr"
        cut.write_bytes(data[:-16])
        with pytest.raises(TraceFormatError):
            TraceRecording(cut).info()

    def test_corrupt_chunk_payload_is_detected(self, tmp_path, gzip_chunks):
        # Payloads dominate the file, so a flipped byte in the middle
        # lands in chunk data and fails to inflate or trips its digest.
        info = record_chunks(gzip_chunks, tmp_path / "flip.rtr")
        data = bytearray(Path(info.path).read_bytes())
        data[len(data) // 2] ^= 0xFF
        Path(info.path).write_bytes(bytes(data))
        with pytest.raises(TraceFormatError):
            TraceRecording(info.path).validate()

    def test_validate_passes_on_good_file(self, recorded):
        info = TraceRecording(recorded.path).validate()
        assert info.digest == recorded.digest
        assert info.instructions == recorded.instructions

    def test_unknown_codec_is_a_config_error(self, tmp_path, gzip_chunks):
        # A header naming any codec but gzip, such as zstd or the
        # uncompressed none, is refused before any chunk is read.
        path = Path(record_chunks(gzip_chunks, tmp_path / "z.rtr").path)
        data = path.read_bytes()
        assert data.count(b'"codec":"gzip"') == 1
        for codec in ("zstd", "none"):
            path.write_bytes(data.replace(b'"codec":"gzip"', f'"codec":"{codec}"'.encode()))
            with pytest.raises(ConfigurationError, match=f"unknown trace codec '{codec}'"):
                TraceRecording(path)


# ----------------------------------------------------------------------
# One-chunk read-ahead of the buffered reader
# ----------------------------------------------------------------------
def _frames(path):
    """``(metadata, payload start, payload stop)`` of every frame in a trace."""
    data = Path(path).read_bytes()
    pos = len(trace_format.MAGIC)
    frames = []
    while True:
        (length,) = struct.unpack_from("<I", data, pos)
        meta = json.loads(data[pos + 4 : pos + 4 + length])
        pos += 4 + length
        stop = pos + meta.get("payload_bytes", 0)
        frames.append((meta, pos, stop))
        if meta["kind"] == "end":
            return frames
        pos = stop


def _payload_spans(path):
    """``(start, stop)`` byte offsets of every chunk payload in a trace."""
    return [(start, stop) for meta, start, stop in _frames(path) if meta["kind"] == "chunk"]


def _helper_threads():
    return [t for t in threading.enumerate() if t.name.startswith("rtr-read-ahead")]


class TestReadAhead:
    CHUNK = 4_000

    @pytest.fixture
    def gzip_trace(self, tmp_path, gzip_chunks):
        info = record_chunks(gzip_chunks, tmp_path / "ra.rtr", chunk_instructions=self.CHUNK)
        return Path(info.path)

    @pytest.fixture(autouse=True)
    def no_helper_leaks(self):
        before = set(threading.enumerate())
        yield
        assert _helper_threads() == []
        assert set(threading.enumerate()) <= before

    @pytest.mark.parametrize("chunk_instructions", [1_000, 7_919, 65_536])
    def test_chunks_bit_identical_to_sequential_decode(
        self, tmp_path, gzip_chunks, chunk_instructions
    ):
        info = record_chunks(
            gzip_chunks, tmp_path / "seq.rtr", chunk_instructions=chunk_instructions
        )
        merged = merge_chunks(gzip_chunks)
        chunks = list(TraceRecording(info.path).chunks())
        assert len(chunks) == info.chunks
        for index, chunk in enumerate(chunks):
            start = index * chunk_instructions
            expected = merged.slice(start, min(start + chunk_instructions, len(merged)))
            for column in ("pcs", "data_addresses", "data_kinds"):
                actual, reference = getattr(chunk, column), getattr(expected, column)
                assert actual.dtype == reference.dtype
                assert actual.flags.c_contiguous
                assert np.array_equal(actual, reference)

    @pytest.mark.parametrize("position", ["first", "middle", "last"])
    def test_corrupt_chunk_raises_after_exactly_k_chunks(self, gzip_trace, position):
        path = gzip_trace
        spans = _payload_spans(path)
        k = {"first": 0, "middle": len(spans) // 2, "last": len(spans) - 1}[position]
        start, stop = spans[k]
        data = bytearray(path.read_bytes())
        data[(start + stop) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        # A plain sequential walk of the file (no read-ahead) names the error.
        with pytest.raises(TraceFormatError) as sequential, path.open("rb") as fh:
            list(TraceRecording(path)._payloads(fh))
        yielded = 0
        with pytest.raises(TraceFormatError) as streamed:
            for _ in TraceRecording(path).chunks():
                yielded += 1
        assert yielded == k
        assert str(streamed.value) == str(sequential.value)
        assert f"chunk {k} " in str(streamed.value)

    def test_truncated_file_still_raises(self, gzip_trace):
        path = gzip_trace
        spans = _payload_spans(path)
        k = len(spans) // 2
        data = path.read_bytes()
        path.write_bytes(data[: spans[k][0] + 3])
        yielded = 0
        with pytest.raises(TraceFormatError, match=f"chunk {k} truncated"):
            for _ in TraceRecording(path).chunks():
                yielded += 1
        assert yielded == k

    def test_whole_trace_digest_mismatch_still_raises(self, gzip_trace):
        path = gzip_trace
        recording = TraceRecording(path)
        digest = recording.info().digest
        forged = ("0" if digest[0] != "0" else "1") + digest[1:]
        data = path.read_bytes()
        assert data.count(digest.encode()) == 1
        path.write_bytes(data.replace(digest.encode(), forged.encode()))
        yielded = 0
        with pytest.raises(TraceFormatError, match="whole-trace digest mismatch"):
            for _ in TraceRecording(path).chunks():
                yielded += 1
        assert yielded == recording.info().chunks

    def test_decodes_at_most_one_chunk_ahead(self, gzip_trace, monkeypatch):
        calls = []
        real = trace_format._decode_chunk

        def counted(raw, path, index):
            calls.append(index)
            return real(raw, path, index)

        monkeypatch.setattr(trace_format, "_decode_chunk", counted)
        stream = TraceRecording(gzip_trace).chunks()
        assert calls == []  # nothing happens before the first request
        yielded = 0
        for _ in stream:
            yielded += 1
            time.sleep(0.005)  # room for a runaway helper to overtake
            assert len(calls) <= yielded + 1
        assert calls == list(range(yielded))

    def test_close_after_one_chunk_joins_the_helper(self, gzip_trace):
        stream = TraceRecording(gzip_trace).chunks()
        next(stream)
        assert len(_helper_threads()) == 1
        stream.close()
        assert _helper_threads() == []

    def test_abandoned_generator_joins_the_helper(self, gzip_trace):
        stream = TraceRecording(gzip_trace).chunks()
        next(stream)
        del stream
        gc.collect()
        assert _helper_threads() == []

    def test_consumer_exception_joins_the_helper(self, gzip_trace):
        with pytest.raises(RuntimeError, match="consumer failed"):
            for index, _ in enumerate(TraceRecording(gzip_trace).chunks()):
                if index == 2:
                    raise RuntimeError("consumer failed")
        assert _helper_threads() == []


# ----------------------------------------------------------------------
# Write-behind compression of the writer
# ----------------------------------------------------------------------
def _raw_chunks(chunks, chunk_instructions):
    """The raw record bytes of each chunk the writer should emit."""
    merged = merge_chunks(chunks)
    rec = np.empty(len(merged), dtype=trace_format.RECORD_DTYPE)
    rec["pc"] = merged.pcs
    rec["daddr"] = merged.data_addresses
    rec["kind"] = merged.data_kinds
    return [
        rec[start : start + chunk_instructions].tobytes()
        for start in range(0, len(rec), chunk_instructions)
    ]


def _writer_threads():
    return [t for t in threading.enumerate() if t.name.startswith("rtr-write-behind")]


def _synthetic_chunk(accesses):
    pcs = (np.arange(accesses, dtype=np.int64) * 4) % (1 << 20)
    addrs = np.where(pcs % 8 == 0, pcs * 3 + 1, -1).astype(np.int64)
    return TraceChunk(pcs, addrs, np.where(addrs >= 0, LOAD, NO_ACCESS).astype(np.uint8))


class TestWriteBehind:
    CHUNK = 4_000

    @pytest.fixture(autouse=True)
    def no_writer_leaks(self):
        yield
        assert _writer_threads() == []

    @pytest.fixture
    def expected(self, gzip_chunks):
        return _raw_chunks(gzip_chunks, self.CHUNK)

    def test_payloads_are_zlib_at_the_writer_level_in_index_order(
        self, tmp_path, gzip_chunks, expected
    ):
        info = record_chunks(gzip_chunks, tmp_path / "wb.rtr", chunk_instructions=self.CHUNK)
        data = Path(info.path).read_bytes()
        chunks = [(m, data[a:b]) for m, a, b in _frames(info.path) if m["kind"] == "chunk"]
        assert [meta["index"] for meta, _ in chunks] == list(range(len(expected)))
        for (meta, payload), raw in zip(chunks, expected):
            assert payload == zlib.compress(raw, trace_format.GZIP_LEVEL)
            assert meta["sha256"] == hashlib.sha256(raw).hexdigest()
            assert meta["instructions"] * trace_format.RECORD_DTYPE.itemsize == len(raw)

    def test_frames_stay_in_order_under_thread_churn(self, tmp_path, monkeypatch, gzip_chunks):
        # More helpers than cores, tiny chunks and a short switch interval:
        # a frame written out of order or a lost digest update would show.
        monkeypatch.setattr(trace_format, "WRITE_BEHIND", 8)
        expected = _raw_chunks(gzip_chunks, 257)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            info = record_chunks(gzip_chunks, tmp_path / "churn.rtr", chunk_instructions=257)
        finally:
            sys.setswitchinterval(interval)
        data = Path(info.path).read_bytes()
        assert [data[a:b] for a, b in _payload_spans(info.path)] == [
            zlib.compress(raw, trace_format.GZIP_LEVEL) for raw in expected
        ]
        assert info.digest == hashlib.sha256(b"".join(expected)).hexdigest()

    def test_end_digest_is_sha256_over_the_raw_chunks(self, tmp_path, gzip_chunks, expected):
        info = record_chunks(gzip_chunks, tmp_path / "wb.rtr", chunk_instructions=self.CHUNK)
        end = _frames(info.path)[-1][0]
        assert end["digest"] == info.digest == hashlib.sha256(b"".join(expected)).hexdigest()
        assert end["chunks"] == len(expected)

    @pytest.mark.parametrize("usage", ["bare", "context"])
    def test_helper_error_surfaces_and_leaves_nothing(
        self, tmp_path, monkeypatch, gzip_chunks, expected, usage
    ):
        def compress(raw):
            if bytes(raw) == expected[3]:
                raise zlib.error("Error -2 while compressing data")
            return zlib.compress(raw, trace_format.GZIP_LEVEL)

        monkeypatch.setattr(trace_format, "_compress", compress)
        out = tmp_path / "out"
        with pytest.raises(zlib.error, match="^Error -2 while compressing data$"):
            if usage == "context":
                record_chunks(gzip_chunks, out / "bad.rtr", chunk_instructions=self.CHUNK)
            else:
                writer = TraceWriter(out / "bad.rtr", chunk_instructions=self.CHUNK)
                for chunk in gzip_chunks:
                    writer.append(chunk)
                writer.close()
        assert list(out.iterdir()) == []
        assert _writer_threads() == []

    def test_level6_file_reads_back_the_same_chunks_and_digest(
        self, tmp_path, monkeypatch, gzip_chunks, expected
    ):
        current = record_chunks(gzip_chunks, tmp_path / "l4.rtr", chunk_instructions=self.CHUNK)
        monkeypatch.setattr(trace_format, "GZIP_LEVEL", 6)
        old = record_chunks(gzip_chunks, tmp_path / "l6.rtr", chunk_instructions=self.CHUNK)
        monkeypatch.undo()
        data = Path(old.path).read_bytes()
        spans = _payload_spans(old.path)
        assert [data[a:b] for a, b in spans] == [zlib.compress(raw, 6) for raw in expected]
        assert TraceRecording(old.path).validate().digest == current.digest
        restored = list(TraceRecording(old.path).chunks())
        reference = list(TraceRecording(current.path).chunks())
        assert len(restored) == len(reference) == len(expected)
        for a, b in zip(restored, reference):
            for column in ("pcs", "data_addresses", "data_kinds"):
                assert np.array_equal(getattr(a, column), getattr(b, column))

    def test_one_big_append_writes_the_same_bytes_as_many_small_ones(self, tmp_path):
        big = _synthetic_chunk(10 * 65_536 + 123)
        one = record_chunks([big], tmp_path / "one.rtr")
        assert one.chunks == 11
        for piece in (65_536, 7_919):
            small = [big.slice(start, start + piece) for start in range(0, len(big), piece)]
            many = record_chunks(small, tmp_path / f"many-{piece}.rtr")
            assert Path(one.path).read_bytes() == Path(many.path).read_bytes()

    def test_big_append_copies_each_access_once(self, tmp_path, monkeypatch):
        # Stored payloads: the compressed ones in flight are not the
        # copies this bound is about.
        monkeypatch.setattr(trace_format, "_compress", lambda raw: raw)
        big = _synthetic_chunk(32 * 65_536)
        chunk_bytes = 65_536 * trace_format.RECORD_DTYPE.itemsize
        writer = TraceWriter(tmp_path / "big.rtr")
        tracemalloc.start()
        try:
            writer.append(big)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            writer.close()
        # The record buffer being filled, the chunks in flight and one
        # spare: never a copy of the 32-chunk input.
        assert peak < (trace_format.WRITE_BEHIND + 2) * chunk_bytes


# ----------------------------------------------------------------------
# Workload registry and refs
# ----------------------------------------------------------------------
class TestRegistry:
    def test_ref_round_trip(self, tmp_path):
        ref = format_trace_ref(tmp_path / "t.rtr")
        assert is_trace_ref(ref)
        assert parse_trace_ref(ref) == str(tmp_path / "t.rtr")
        assert format_trace_ref(parse_trace_ref(ref)) == ref

    def test_malformed_ref_is_named(self):
        with pytest.raises(WorkloadRefError):
            parse_trace_ref("gzip")

    def test_unknown_benchmark_names_the_alternatives(self):
        with pytest.raises(WorkloadRefError, match="unknown benchmark.*'gzip'"):
            check_workload("quake3", 1.0)

    def test_recorded_paper_trace_shares_the_synthetic_content_address(
        self, recorded
    ):
        synthetic = SimulationJob("gzip", scale=SMALL)
        traced = SimulationJob(format_trace_ref(recorded.path))
        assert synthetic.key() == traced.key()
        assert synthetic.canonical_workload() == traced.canonical_workload()

    def test_foreign_trace_is_keyed_by_digest_not_chunking(
        self, tmp_path, gzip_chunks
    ):
        # No provenance: the identity must come from the content digest,
        # so re-chunking keeps the key.
        a = record_chunks(gzip_chunks, tmp_path / "fa.rtr", chunk_instructions=9_000)
        b = record_chunks(gzip_chunks, tmp_path / "fb.rtr", chunk_instructions=30_000)
        job_a = SimulationJob(format_trace_ref(a.path))
        job_b = SimulationJob(format_trace_ref(b.path))
        assert job_a.key() == job_b.key()
        # ...and differs from the provenance-carrying recording's key.
        assert job_a.key() != SimulationJob("gzip", scale=SMALL).key()

    def test_trace_ref_requires_unit_scale(self, recorded):
        with pytest.raises(EngineError, match="scale"):
            SimulationJob(format_trace_ref(recorded.path), scale=0.5)

    def test_missing_trace_file_fails_at_job_construction(self, tmp_path, recorded):
        # A ref has no window grammar, so in a stale window ref the
        # "#1:20000" is part of a path that does not exist.
        for path in (tmp_path / "nope.rtr", f"{recorded.path}#1:20000"):
            with pytest.raises(EngineError, match=re.escape(f"{path} does not exist")):
                SimulationJob(f"trace:{path}")

    def test_trace_info_caches_by_stat(self, recorded):
        first = trace_info(recorded.path)
        second = trace_info(recorded.path)
        assert first is second

    def test_sweep_spec_resolves_trace_refs(self, recorded):
        ref = format_trace_ref(recorded.path)
        spec = SweepSpec(name="traced", benchmarks=("gzip", ref))
        assert spec.simulation_points == 2

    def test_sweep_spec_rejects_scaled_trace_refs(self, recorded):
        ref = format_trace_ref(recorded.path)
        with pytest.raises(ConfigurationError, match="scale"):
            SweepSpec(name="traced", benchmarks=(ref,), scales=(0.5,))

    def test_sweep_spec_rejects_missing_trace(self, tmp_path):
        ref = format_trace_ref(tmp_path / "missing.rtr")
        with pytest.raises(ConfigurationError, match="does not exist"):
            SweepSpec(name="traced", benchmarks=(ref,))


class TestContentAddresses:
    """``SimulationJob.key()`` pinned to literals: a change here moves cache entries."""

    GZIP_002 = "dfd2cc71b5215ad021fdc266305fe858f70db3664688f018d29465ced557cc1c"

    def test_paper_benchmark_at_full_scale(self):
        assert SimulationJob("gzip").key() == (
            "af2433011657da52352cd755dfca0db0467ae4d205cde520e8b2eeb79a6e80e4"
        )

    def test_scaled_benchmark_with_a_pipeline(self):
        job = SimulationJob(
            "gzip", scale=0.5, pipeline=PipelineConfig(base_cpi=0.8)
        )
        assert job.key() == (
            "a98c93e4b930316827a0f76d6915f5b21f3cac9d1eed669cde502b2f8c3cd587"
        )

    def test_recorded_trace_keeps_the_synthetic_key(self, recorded):
        assert SimulationJob("gzip", scale=SMALL).key() == self.GZIP_002
        assert SimulationJob(format_trace_ref(recorded.path)).key() == self.GZIP_002

    def test_foreign_trace_is_keyed_by_digest(self, tmp_path, gzip_chunks):
        info = record_chunks(gzip_chunks, tmp_path / "foreign.rtr", chunk_instructions=9_000)
        assert info.digest == (
            "d98a1643a0402fe916fbe5a04daa8b094b385c9fd1bc8554a35b2cdb0095f859"
        )
        assert SimulationJob(format_trace_ref(info.path)).key() == (
            "d891fbd020dec340bf9085feb1f91101e58b3a36d22428605b64b433a6c11d5b"
        )


# ----------------------------------------------------------------------
# Streaming equality: recorded == inline, through engine and protocol
# ----------------------------------------------------------------------
class TestStreamingEquality:
    def test_recorded_trace_payload_is_byte_identical_to_inline(
        self, tmp_path, recorded
    ):
        engine = serial_engine(tmp_path)
        synthetic = SimulationJob("gzip", scale=SMALL)
        traced = SimulationJob(format_trace_ref(recorded.path))
        doc_syn = job_result_payload(synthetic, engine.run_one(synthetic).annotated)
        doc_tr = job_result_payload(traced, engine.run_one(traced).annotated)
        assert dumps_stable(doc_syn) == dumps_stable(doc_tr)

    def test_trace_job_hits_the_synthetic_cache_entry(self, tmp_path, recorded):
        # Same content address -> the trace job is served from the cache
        # entry the synthetic run wrote.
        engine = serial_engine(tmp_path)
        engine.run_one(SimulationJob("gzip", scale=SMALL))
        outcome = engine.run_one(SimulationJob(format_trace_ref(recorded.path)))
        assert outcome.source == SOURCE_CACHED

    def test_damaged_paper_trace_is_served_its_benchmarks_result(self, tmp_path):
        # A recording whose header names a paper benchmark has that
        # benchmark's content address, so a cache hit answers without
        # reading the payload: the result served is the benchmark's own.
        # `trace validate` (TraceRecording.validate) is the check that
        # finds the damage.
        engine = serial_engine(tmp_path)
        synthetic = SimulationJob("gzip", scale=SMALL)
        clean = engine.run_one(synthetic)
        info = record_benchmark("gzip", tmp_path / "damaged.rtr", scale=SMALL)
        data = bytearray(Path(info.path).read_bytes())
        data[len(data) // 2] ^= 0xFF
        Path(info.path).write_bytes(bytes(data))
        traced = SimulationJob(format_trace_ref(info.path))
        outcome = engine.run_one(traced)
        assert outcome.source == SOURCE_CACHED
        assert dumps_stable(job_result_payload(traced, outcome.annotated)) == (
            dumps_stable(job_result_payload(synthetic, clean.annotated))
        )
        with pytest.raises(TraceFormatError):
            TraceRecording(info.path).validate()

    def test_jobs_sharing_a_content_address_simulate_once(self, recorded):
        # No store to hit: the second job is served from the first one's
        # result within the same run.
        engine = ExecutionEngine(jobs=1, store=NullStore())
        synthetic = SimulationJob("gzip", scale=SMALL)
        traced = SimulationJob(format_trace_ref(recorded.path))
        outcomes = engine.run([synthetic, traced])
        assert outcomes[synthetic].simulated
        assert outcomes[traced].source == SOURCE_CACHED
        assert outcomes[traced].annotated is outcomes[synthetic].annotated
        assert (engine.telemetry.simulated, engine.telemetry.cached) == (1, 1)


# ----------------------------------------------------------------------
# Kernel entry validation
# ----------------------------------------------------------------------
class TestKernelValidation:
    def good_chunk(self):
        pcs = np.arange(64, dtype=np.int64) * 4
        addrs = np.where(pcs % 16 == 0, pcs * 2, -1).astype(np.int64)
        kinds = np.where(addrs >= 0, LOAD, NO_ACCESS).astype(np.uint8)
        return TraceChunk(pcs, addrs, kinds)

    def test_good_chunk_passes(self):
        chunk = self.good_chunk()
        assert validate_chunk(chunk, 0) is chunk

    def test_non_chunk_object_is_named(self):
        with pytest.raises(TraceValidationError, match="TraceChunk"):
            validate_chunk(np.arange(8), 3)

    def test_wrong_dtype_is_named_with_chunk_index(self):
        chunk = self.good_chunk()
        chunk.pcs = chunk.pcs.astype(np.float64)
        with pytest.raises(TraceValidationError, match="trace chunk 2"):
            validate_chunk(chunk, 2)

    def test_shape_mismatch(self):
        chunk = self.good_chunk()
        chunk.data_kinds = chunk.data_kinds[:-1]
        with pytest.raises(TraceValidationError):
            validate_chunk(chunk)

    def test_unknown_kind_code(self):
        chunk = self.good_chunk()
        chunk.data_kinds = chunk.data_kinds.copy()
        chunk.data_kinds[5] = STORE + 7
        with pytest.raises(TraceValidationError):
            validate_chunk(chunk)

    def test_access_without_address(self):
        chunk = self.good_chunk()
        chunk.data_kinds = chunk.data_kinds.copy()
        chunk.data_kinds[1] = LOAD  # addr stays -1
        with pytest.raises(TraceValidationError):
            validate_chunk(chunk)

    def test_address_without_access(self):
        chunk = self.good_chunk()
        chunk.data_addresses = chunk.data_addresses.copy()
        chunk.data_addresses[1] = 4096  # kind stays NO_ACCESS
        with pytest.raises(TraceValidationError, match="non-memory instructions"):
            validate_chunk(chunk)

    def test_access_without_address_is_reported_first(self):
        chunk = self.good_chunk()
        chunk.data_addresses = chunk.data_addresses.copy()
        chunk.data_kinds = chunk.data_kinds.copy()
        chunk.data_addresses[1] = 4096  # an address without an access
        chunk.data_kinds[2] = LOAD  # and an access without an address
        with pytest.raises(TraceValidationError, match="must carry a data"):
            validate_chunk(chunk)

    def test_negative_pc(self):
        chunk = self.good_chunk()
        chunk.pcs = chunk.pcs.copy()
        chunk.pcs[0] = -8
        with pytest.raises(TraceValidationError):
            validate_chunk(chunk)

    def test_simulate_trace_validates_on_both_paths(self):
        for kernel in ("batched", "scalar"):
            chunk = self.good_chunk()
            chunk.pcs = chunk.pcs.astype(np.int32)
            with pytest.raises(TraceValidationError):
                annotate_workload_trace([chunk], kernel=kernel)

    def test_validated_chunks_is_lazy(self):
        stream = validated_chunks([self.good_chunk(), object()])
        next(stream)  # first chunk is fine
        with pytest.raises(TraceValidationError, match="trace chunk 1"):
            next(stream)

    def test_validation_error_is_a_simulation_error(self):
        from repro.errors import SimulationError

        assert issubclass(TraceValidationError, SimulationError)


# ----------------------------------------------------------------------
# gem5 text adapter
# ----------------------------------------------------------------------
GEM5_SAMPLE = """\
  1000: system.cpu T0 : 0x4008a0    : addi  a0, a0, 1  : IntAlu :  D=0x0000000000000005
  1500: system.cpu T0 : 0x4008a4    : ld  a1, 0(a0)  : MemRead :  D=0x00000000000000aa A=0x80004000
  2000: system.cpu T0 : 0x4008a8    : sd  a1, 8(a0)  : MemWrite :  D=0x00000000000000aa A=0x80004008
this line is not an instruction record
  2500: system.cpu T0 : 0x4008ac    : beq  a1, zero  : IntAlu :
"""


class TestGem5Adapter:
    def write_sample(self, tmp_path, text=GEM5_SAMPLE):
        source = tmp_path / "gem5.trace"
        source.write_text(text, encoding="utf-8")
        return source

    def test_conversion_counts_and_simulates(self, tmp_path):
        source = self.write_sample(tmp_path)
        report = convert_gem5_text(source, tmp_path / "gem5.rtr")
        assert isinstance(report, ConversionReport)
        assert report.instructions == 4
        assert report.loads == 1
        assert report.stores == 1
        assert report.skipped_lines == 1
        chunk = merge_chunks(TraceRecording(report.info.path).chunks())
        assert list(chunk.data_kinds) == [NO_ACCESS, LOAD, STORE, NO_ACCESS]
        assert chunk.data_addresses[1] == 0x80004000
        result = annotate_workload_trace(chunk).result
        assert result.instructions == 4

    def test_conversion_stamps_provenance(self, tmp_path):
        source = self.write_sample(tmp_path)
        report = convert_gem5_text(source, tmp_path / "gem5.rtr")
        assert report.info.provenance["adapter"] == "gem5-text"
        assert report.info.provenance["source"] == "gem5.trace"

    def test_converted_trace_is_a_valid_workload(self, tmp_path):
        source = self.write_sample(tmp_path)
        report = convert_gem5_text(source, tmp_path / "gem5.rtr")
        job = SimulationJob(format_trace_ref(report.info.path))
        assert "trace" in job.fingerprint()

    def test_unrecognizable_input_is_an_error(self, tmp_path):
        source = self.write_sample(tmp_path, text="nothing here\nat all\n")
        with pytest.raises(TraceError, match="no gem5 Exec instructions"):
            convert_gem5_text(source, tmp_path / "empty.rtr")

    def test_missing_source_is_an_error(self, tmp_path):
        with pytest.raises(TraceError):
            convert_gem5_text(tmp_path / "absent.trace", tmp_path / "x.rtr")


# ----------------------------------------------------------------------
# Cache accounting for trace artifacts
# ----------------------------------------------------------------------
class TestTraceStoreAccounting:
    def test_info_counts_trace_artifacts(self, tmp_path):
        store = ResultStore(tmp_path / "acct")
        assert store.info()["trace_files"] == 0
        store.traces_dir.mkdir(parents=True)
        (store.traces_dir / "a.rtr").write_bytes(b"x" * 1000)
        (store.traces_dir / "b.rtr").write_bytes(b"y" * 500)
        info = store.info()
        assert info["trace_files"] == 2
        assert info["trace_bytes"] == 1500

    def test_traces_count_toward_the_limit_but_are_never_evicted(
        self, tmp_path
    ):
        # The cache has no size bound: trace artifacts count in its
        # usage, and result writes next to them evict nothing.
        store = ResultStore(tmp_path / "acct")
        store.traces_dir.mkdir(parents=True)
        trace = store.traces_dir / "precious.rtr"
        trace.write_bytes(b"t" * 4096)
        for i in range(3):
            store.put(f"{i:064x}", {"payload": "p" * 256})
        assert trace.exists()
        assert store.evictions == 0
        info = store.info()
        assert (info["trace_files"], info["trace_bytes"]) == (1, 4096)
        assert info["entries"] == 3

    def test_cli_cache_info_reports_traces(self, tmp_path, capsys):
        store = ResultStore()  # REPRO_CACHE_DIR from the fixture
        store.traces_dir.mkdir(parents=True)
        (store.traces_dir / "t.rtr").write_bytes(b"z" * 2048)
        assert main(["cache", "info", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["trace_files"] == 1
        assert document["trace_bytes"] == 2048
        assert main(["cache", "info"]) == 0
        assert "traces:" in capsys.readouterr().out


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
class TestTraceCli:
    def test_record_info_validate_cycle(self, tmp_path, capsys):
        out = tmp_path / "cli.rtr"
        assert main(
            ["trace", "record", "gzip", "--scale", str(SMALL), "--output", str(out)]
        ) == 0
        assert "digest:" in capsys.readouterr().out
        assert main(["trace", "info", str(out), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["provenance"] == {"benchmark": "gzip", "scale": SMALL}
        assert main(["trace", "validate", str(out)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_record_rejects_unknown_benchmark(self, tmp_path, capsys):
        code = main(["trace", "record", "quake3", "--output", str(tmp_path / "x.rtr")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_validate_reports_corruption(self, tmp_path, capsys, recorded):
        clipped = tmp_path / "clipped.rtr"
        clipped.write_bytes(Path(recorded.path).read_bytes()[:-40])
        assert main(["trace", "validate", str(clipped)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_convert_and_run_through_sweep_ref(self, tmp_path, capsys):
        source = tmp_path / "gem5.trace"
        source.write_text(GEM5_SAMPLE, encoding="utf-8")
        out = tmp_path / "gem5.rtr"
        argv = ["trace", "convert", str(source), "--output", str(out), "--json"]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["instructions"] == 4
        assert out.exists()
        argv = ["sweep", "run", "--sweep-name", "gem5-sample",
                "--benchmarks", f"trace:{out}", "--experiments", "distributions"]
        assert main(argv) == 0
        assert f"trace:{out}" in capsys.readouterr().out

    def test_run_accepts_trace_refs(self, tmp_path, capsys):
        out = tmp_path / "run.rtr"
        record_benchmark("gzip", out, scale=SMALL)
        assert main(["run", "distributions", "--benchmarks", f"trace:{out}"]) == 0
        assert f"trace:{out}" in capsys.readouterr().out

    def test_run_rejects_a_codec_none_recording(self, tmp_path, capsys):
        # Recordings whose header names the uncompressed codec none are
        # refused before any job runs; they must be recorded again.
        out = tmp_path / "none.rtr"
        record_benchmark("gzip", out, scale=SMALL)
        out.write_bytes(out.read_bytes().replace(b'"codec":"gzip"', b'"codec":"none"'))
        code = main(["run", "figure9", "--jobs", "1", "--benchmarks", f"trace:{out}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("error:") == 1
        assert captured.err.startswith("error:")
        assert "unknown trace codec 'none'" in captured.err
        assert list((tmp_path / "cache").rglob("*.pkl")) == []

    def test_run_rejects_unknown_refs_cleanly(self, tmp_path, capsys):
        code = main(
            ["run", "distributions", "--benchmarks", f"trace:{tmp_path / 'no.rtr'}"]
        )
        assert code == 2
        assert "does not exist" in capsys.readouterr().err
