"""Helper steps of the benchmark that need the ``repro`` package.

``run.py`` starts each step as its own process, with ``PYTHONPATH``
pointing at the checkout's ``src`` (and at ``hook`` for ``traced``), so
the benchmark process itself never imports the program::

    python3 perfbench/tasks.py native
    python3 perfbench/tasks.py record --seed 0 --out DIR
    python3 perfbench/tasks.py intervals --cache DIR
    python3 perfbench/tasks.py traced --spans FILE --worker-spans DIR -- run figure9

Every step prints one JSON document on stdout, except ``traced``, which
prints what the CLI prints and exits with its exit code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import sys
import time
from pathlib import Path

#: The seed that reproduces the paper suite: every generator keeps its
#: own built-in seed and recordings carry paper provenance.
PAPER_SEED = 0


def generator_seed(seed: int, benchmark: str) -> int:
    """The generator seed one benchmark gets under a non-paper seed."""
    digest = hashlib.sha256(f"{seed}:{benchmark}".encode()).digest()
    return int.from_bytes(digest[:4], "big") % 1_000_000_007


def native_step() -> dict:
    """Build (or load) the compiled residual library."""
    from repro.cache import native

    return {"compiled": native.load_native() is not None}


def record_step(seed: int, out: Path) -> dict:
    """Record the six benchmarks of ``seed`` to ``out/<name>.rtr``.

    The paper seed records through ``record_benchmark``, so the traces
    carry paper provenance and share the synthetic runs' cache keys.
    Any other seed re-seeds each generator and records without
    provenance, so its traces are keyed by content digest.
    """
    from repro.traces.format import record_benchmark, record_chunks
    from repro.workloads.benchmarks import BENCHMARK_FACTORIES, BENCHMARK_NAMES

    out.mkdir(parents=True, exist_ok=True)
    recorded = {}
    for name in BENCHMARK_NAMES:
        path = out / f"{name}.rtr"
        if seed == PAPER_SEED:
            info = record_benchmark(name, path)
        else:
            workload = BENCHMARK_FACTORIES[name](
                scale=1.0, seed=generator_seed(seed, name)
            )
            info = record_chunks(workload.chunks(), path)
        recorded[name] = {"file": path.name, "bytes": info.file_bytes}
    return recorded


def intervals_step(cache: Path) -> dict:
    """Simulated statistics of every result in a result-cache directory."""
    stats = {}
    for path in sorted(cache.glob("*.pkl")):
        header_line, _, payload = path.read_bytes().partition(b"\n")
        header = json.loads(header_line)
        if header.get("checksum") != hashlib.sha256(payload).hexdigest():
            raise SystemExit(f"{path}: checksum mismatch")
        # The cache holds pickles this program wrote in this run.
        result = pickle.loads(payload).result
        stats[path.stem] = {
            "instructions": int(result.instructions),
            "cycles": int(result.cycles),
            "icache_intervals": len(result.l1i_intervals),
            "dcache_intervals": len(result.l1d_intervals),
        }
    return stats


def traced_step(spans: str, worker_spans: str, argv: list) -> int:
    """Run the CLI in this process with every layer wrapped in spans."""
    import spantrace

    tracer = spantrace.Tracer()
    record = tracer.begin("cli.import")
    import repro.cli

    tracer.end(record)
    record = tracer.begin("trace.install")
    spantrace.install(tracer)
    tracer.end(record)
    os.environ["PERFBENCH_WORKER_SPANS"] = worker_spans
    record = tracer.begin("cli.main")
    try:
        code = repro.cli.main(argv)
        sys.stdout.flush()
    finally:
        tracer.end(record)
        tracer.dump(spans)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tasks.py")
    steps = parser.add_subparsers(dest="step", required=True)
    steps.add_parser("native")
    record = steps.add_parser("record")
    record.add_argument("--seed", type=int, required=True)
    record.add_argument("--out", type=Path, required=True)
    intervals = steps.add_parser("intervals")
    intervals.add_argument("--cache", type=Path, required=True)
    traced = steps.add_parser("traced")
    traced.add_argument("--spans", required=True)
    traced.add_argument("--worker-spans", required=True)
    traced.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)

    if args.step == "traced":
        cli = args.cli[1:] if args.cli[:1] == ["--"] else args.cli
        return traced_step(args.spans, args.worker_spans, cli)
    started = time.perf_counter()
    if args.step == "native":
        document = native_step()
    elif args.step == "record":
        document = record_step(args.seed, args.out)
    else:
        document = intervals_step(args.cache)
    print(json.dumps({"seconds": time.perf_counter() - started, "result": document}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
