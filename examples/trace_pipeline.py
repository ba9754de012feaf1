"""Trace pipeline: record, convert, and sweep recorded workloads.

Demonstrates the full real-trace path end to end:

1. record a scaled synthetic benchmark to a ``.rtr`` trace file,
2. convert the bundled gem5 Exec-style text fixture into the same format,
3. run both — plus the inline synthetic for comparison — through one
   sweep context, resolving every workload through the registry.

The recorded benchmark shares the synthetic original's content address,
so its sweep job is a cache hit if the synthetic ran first (and vice
versa); the converted gem5 trace is keyed by its content digest.

Run:  python examples/trace_pipeline.py  [scale]
"""

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cli import dumps_stable
from repro.engine import ExecutionEngine, ResultStore, SimulationJob
from repro.engine.jobs import job_result_payload
from repro.traces import convert_gem5_text, format_trace_ref, record_benchmark
from repro.sweep import SweepSpec, sweep_suites

FIXTURE = Path(__file__).resolve().parent / "data" / "gem5_exec_sample.txt"


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.05
    with tempfile.TemporaryDirectory(prefix="trace-pipeline-") as tmp:
        pipeline(scale, Path(tmp))


def pipeline(scale: float, workdir: Path) -> None:
    """Record, convert and sweep inside ``workdir``."""
    engine = ExecutionEngine(jobs=1, store=ResultStore(workdir / "cache"))

    # 1. Record a scaled benchmark: synthetic chunks -> chunked, checksummed
    #    on-disk trace.  The provenance header remembers (gzip, scale).
    recorded = record_benchmark("gzip", workdir / "gzip.rtr", scale=scale)
    print(
        f"recorded  {recorded.path}\n"
        f"  {recorded.instructions:,} instructions, {recorded.chunks} chunk(s), "
        f"{recorded.file_bytes / 1024:.0f} KB ({recorded.codec})\n"
        f"  digest {recorded.digest[:16]}…"
    )

    # 2. Convert the bundled gem5 Exec text dump into the same format.
    report = convert_gem5_text(FIXTURE, workdir / "gem5.rtr")
    print(
        f"converted {report.info.path}\n"
        f"  {report.instructions:,} instructions "
        f"({report.loads} loads, {report.stores} stores), "
        f"{report.skipped_lines} non-instruction line(s) skipped"
    )

    # 3. The recorded benchmark and the inline synthetic share one content
    #    address: the engine computes the pair once.
    synthetic = SimulationJob("gzip", scale=scale)
    traced = SimulationJob(format_trace_ref(recorded.path))
    assert synthetic.key() == traced.key()
    doc_a = job_result_payload(synthetic, engine.run_one(synthetic).annotated)
    outcome = engine.run_one(traced)
    doc_b = job_result_payload(traced, outcome.annotated)
    assert dumps_stable(doc_a) == dumps_stable(doc_b)
    print(
        f"\nrecorded == inline: byte-identical result documents "
        f"(second run came from '{outcome.source}')"
    )

    # 4. One sweep over synthetic and recorded workloads alike.  Trace
    #    refs carry their own length, so the grid pins scale to 1.0 and
    #    the synthetic comparison point rides along as a trace ref too.
    spec = SweepSpec(
        name="trace-pipeline",
        benchmarks=(
            format_trace_ref(recorded.path),
            format_trace_ref(report.info.path),
        ),
        scales=(1.0,),
    )
    print(f"\n{spec.describe()}")
    (suite,) = sweep_suites(spec, engine)
    for name in suite.benchmark_names:
        job = suite.job_for(name)
        outcome = engine.run_one(job)
        result = outcome.annotated.result
        print(
            f"  {job.describe():<40} {result.instructions:>9,} instr  "
            f"IPC {result.ipc:.2f}  [{outcome.source}]"
        )


if __name__ == "__main__":
    main()
