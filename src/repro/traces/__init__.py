"""Real-trace ingestion: recorded trace files, adapters, workload refs.

The data front door of the reproduction.  :mod:`~repro.traces.format`
defines the versioned chunked on-disk trace format (streaming writer and
reader); :mod:`~repro.traces.adapters` converts external dumps (gem5
Exec text traces) into it; :mod:`~repro.traces.registry` makes recorded
traces and paper benchmarks interchangeable workload refs through four
functions (check, identity, chunks, label).

Every name is re-exported lazily, on first use.  The engine resolves
each job's workload through :mod:`~repro.traces.registry`, so a run of
the paper suite imports that module and nothing else from here.
"""

from __future__ import annotations

from importlib import import_module

#: Re-exported name -> the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(("ConversionReport", "convert_gem5_text"), "adapters"),
    **dict.fromkeys(
        (
            "DEFAULT_CHUNK_INSTRUCTIONS",
            "FORMAT_VERSION",
            "RECORD_DTYPE",
            "TRACE_SUFFIX",
            "TraceInfo",
            "TraceRecording",
            "TraceWriter",
            "record_benchmark",
            "record_chunks",
        ),
        "format",
    ),
    **dict.fromkeys(
        (
            "TRACE_SCHEME",
            "check_workload",
            "describe_workload",
            "format_trace_ref",
            "is_trace_ref",
            "parse_trace_ref",
            "trace_info",
            "trace_store_dir",
            "workload_chunks",
            "workload_identity",
        ),
        "registry",
    ),
}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


__all__ = sorted(_EXPORTS)
