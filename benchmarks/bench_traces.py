"""Benches: trace ingestion throughput (disk -> chunks -> kernel).

Not paper artifacts — these track the streaming reader's cost so the
"recorded traces simulate as fast as synthetic ones" property stays
visible.  Two read variants are measured: OS-cached (repeat streams of
one file, the steady state of a sweep re-reading its workloads) and
cold (page cache dropped with ``posix_fadvise(DONTNEED)`` before every
round, the first pass over a freshly fetched trace).
"""

import os

import pytest

from repro.prefetch.analysis import annotate_workload_trace
from repro.traces import TraceRecording, record_benchmark

#: Recording scale: gzip at 0.05 is ~228K instructions, enough that
#: per-chunk overheads are amortized but a round stays sub-second.
RECORD_SCALE = 0.05


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    path = tmp_path_factory.mktemp("bench-traces") / "gzip.rtr"
    return record_benchmark("gzip", path, scale=RECORD_SCALE)


def stream_accesses(path) -> int:
    """Full verified read: frames, checksums, decode; returns accesses."""
    return sum(len(chunk) for chunk in TraceRecording(path).chunks())


def drop_page_cache(path) -> None:
    """Evict the file from the OS page cache (no root needed)."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
        os.posix_fadvise(fd, 0, 0, os.POSIX_FADV_DONTNEED)
    finally:
        os.close(fd)


def test_trace_stream_throughput_cached(benchmark, recorded):
    """Accesses/s streamed from an OS-cached trace file."""
    accesses = benchmark.pedantic(
        stream_accesses, args=(recorded.path,), rounds=5, iterations=1
    )
    assert accesses == recorded.instructions
    benchmark.extra_info["accesses"] = accesses
    benchmark.extra_info["accesses_per_second"] = round(
        accesses / benchmark.stats.stats.mean
    )


def test_trace_stream_throughput_cold(benchmark, recorded):
    """Accesses/s streamed after dropping the page cache each round."""
    accesses = benchmark.pedantic(
        stream_accesses,
        args=(recorded.path,),
        setup=lambda: drop_page_cache(recorded.path),
        rounds=5,
        iterations=1,
    )
    assert accesses == recorded.instructions
    benchmark.extra_info["accesses"] = accesses
    benchmark.extra_info["accesses_per_second"] = round(
        accesses / benchmark.stats.stats.mean
    )


def test_trace_record_throughput(benchmark, tmp_path):
    """Accesses/s captured through the recording writer (gzip codec)."""
    counter = iter(range(1_000_000))

    def record():
        dest = tmp_path / f"rec-{next(counter)}.rtr"
        return record_benchmark("gzip", dest, scale=RECORD_SCALE)

    info = benchmark.pedantic(record, rounds=5, iterations=1)
    assert info.instructions > 100_000
    benchmark.extra_info["accesses_per_second"] = round(
        info.instructions / benchmark.stats.stats.mean
    )


def test_trace_streamed_simulation_matches_inline_cost(benchmark, recorded):
    """End-to-end: stream from disk straight into the batched kernel."""

    def run():
        return annotate_workload_trace(TraceRecording(recorded.path).chunks())

    result = benchmark.pedantic(run, rounds=5, iterations=1).result
    assert result.instructions == recorded.instructions
    benchmark.extra_info["instructions"] = result.instructions
