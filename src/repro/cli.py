"""Command-line interface: ``repro-leakage`` / ``python -m repro``.

Four subcommands::

    repro-leakage run <experiment> [...]   # tables/figures (the default)
    repro-leakage cache {info,clear}       # result-cache maintenance
    repro-leakage sweep {plan,run}         # parameter sweeps
    repro-leakage trace {record,info,validate,convert}  # traces

The historical flat forms keep working — a bare experiment name implies
``run``::

    repro-leakage list
    repro-leakage table1
    repro-leakage figure8 --scale 0.5
    repro-leakage all --scale 0.5 --output results.txt

Simulations go through the execution engine: benchmark jobs fan out over
``--jobs`` / ``REPRO_JOBS`` local worker processes, engaged as
``--backend`` / ``REPRO_BACKEND`` says (``pool`` when more than one
worker and one job, ``subprocess`` always); ``--jobs 1`` under ``pool``
runs every job in-process.  Each job goes to a worker at most once; a
job the workers do not return — an error frame or a dead worker — runs
once in-process.  Every fresh result passes an invariant-validation
gate before caching, results are cached on disk under
``~/.cache/repro-leakage`` (``REPRO_CACHE_DIR`` overrides,
``--no-cache`` bypasses), and a telemetry footer — exportable as JSON
via ``--manifest`` — reports where the time went, including every
degradation.  The report on stdout is byte-identical whatever the
worker count, cache state, worker failures or rerun; telemetry goes to
stderr.  A job that fails in-process fails the
command: one ``error:`` line names it, the footer and ``--manifest``
still record the run, and the exit code is 1.  The result cache is the
only progress record: rerunning a failed or interrupted command against
the same cache simulates only the jobs it had not finished.

A sweep expands a declarative spec (benchmarks × scales × pipelines ×
technology nodes) into engine jobs, runs them all in one engine run and
prints the report; a rerun against the same cache simulates nothing::

    repro-leakage sweep plan --sweep-name scaling --scales 0.25 --save s.json
    repro-leakage sweep run --spec s.json --jobs 4 --csv out/

Exit codes are uniform across every command: 0 success, 1 a simulation
job failed, 2 usage or runtime error (details on stderr), 130
interrupted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING, Dict, List, Optional

from .engine import (
    BACKEND_NAMES,
    ExecutionEngine,
    JobFailedError,
    NullStore,
    ResultStore,
)
from .errors import ReproError
from .experiments.runner import experiment_names, run_all, run_experiment
from .experiments.suite import SuiteRunner
from .traces.registry import check_workload, is_trace_ref
from .workloads.benchmarks import BENCHMARK_NAMES

if TYPE_CHECKING:
    from .sweep import SweepSpec

#: Top-level subcommands; anything else on the command line is treated
#: as an experiment name and routed to ``run`` (historical flat form).
COMMANDS = ("run", "cache", "sweep", "trace")

#: Exit code when a simulation job failed in-process.
EXIT_JOB_FAILED = 1

#: Exit code when the user interrupts a command (SIGINT convention).
EXIT_INTERRUPTED = 130


class _BackCompatParser(argparse.ArgumentParser):
    """Argument parser that keeps the historical flat CLI working.

    ``repro-leakage table1 --scale 0.5`` predates the subcommands; when
    the first positional token is not a known command, ``run`` is
    inserted so old invocations, scripts and muscle memory stay valid.
    """

    def parse_args(self, args=None, namespace=None):  # type: ignore[override]
        argv = list(sys.argv[1:] if args is None else args)
        return super().parse_args(_normalize_argv(argv), namespace)


def _normalize_argv(argv: List[str]) -> List[str]:
    for token in argv:
        if token.startswith("-"):
            continue
        if token in COMMANDS:
            return argv
        return ["run"] + argv
    return argv


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (``run`` / ``cache`` / ``sweep``)."""
    parser = _BackCompatParser(
        prog="repro-leakage",
        description=(
            "Reproduce 'On the Limits of Leakage Power Reduction in Caches' "
            "(HPCA 2005): oracle leakage limits, technology sweeps and "
            "prefetch-guided approximations."
        ),
        epilog=(
            "A bare experiment name ('repro-leakage table1') is shorthand "
            "for 'repro-leakage run table1'."
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {_version()}",
    )
    commands = parser.add_subparsers(
        dest="command", metavar="command", required=True
    )
    _add_run_parser(commands)
    _add_cache_parser(commands)
    _add_sweep_parser(commands)
    _add_trace_parser(commands)
    return parser


def _version() -> str:
    from . import __version__

    return __version__


def _add_run_parser(commands) -> None:
    run = commands.add_parser(
        "run",
        help="run one experiment, 'all', or 'list' to enumerate them",
        description="Regenerate one of the paper's tables or figures.",
    )
    run.add_argument(
        "experiment",
        help="experiment name, 'all', or 'list' to enumerate experiments",
    )
    run.add_argument(
        # Catches stray positionals ('repro-leakage table1 info') so the
        # error can point at the command they belong to.
        "extra",
        nargs="*",
        help=argparse.SUPPRESS,
    )
    run.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="workload scale factor (1.0 = calibration length, ~2M "
        "instructions per benchmark; smaller is faster)",
    )
    run.add_argument(
        "--benchmarks",
        nargs="*",
        default=None,
        help=f"restrict the suite to these workloads: benchmark names "
        f"(from: {BENCHMARK_NAMES}) or 'trace:<path>' refs to recorded "
        "traces (trace refs need --scale 1.0)",
    )
    run.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="simulation worker processes (default: REPRO_JOBS or the CPU count)",
    )
    run.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default=None,
        help="execution backend (default: REPRO_BACKEND or 'pool'): pool "
        "runs --jobs local workers when --jobs > 1 and more than one job "
        "is pending, else in-process; subprocess always ships jobs to "
        "--jobs local workers.  Jobs workers cannot finish run "
        "in-process, so a run always completes",
    )
    run.add_argument(
        "--kernel",
        choices=("auto", "scalar", "batched", "compiled"),
        default=None,
        help="simulation kernel (default: REPRO_KERNEL or 'auto'); auto "
        "prefers the compiled residual loop and degrades to the "
        "pure-python batched kernel — results are bit-identical either way",
    )
    run.add_argument(
        "--transport",
        choices=("auto", "pickle", "shm", "disk"),
        default=None,
        help="recorded-trace transport to workers (default: REPRO_TRANSPORT "
        "or 'auto' = pickle); pickle streams the trace file in each worker, "
        "decoding one chunk ahead; shm/disk are opt-in zero-copy arenas the "
        "parent publishes first, pending deletion",
    )
    run.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the on-disk result cache (neither read nor write it)",
    )
    run.add_argument(
        "--manifest",
        default=None,
        metavar="PATH",
        help="write the run telemetry manifest as JSON to this file",
    )
    run.add_argument(
        "--output",
        default=None,
        help="also write the report to this file",
    )
    run.add_argument(
        "--csv",
        default=None,
        metavar="DIR",
        help="also export every table as CSV into this directory",
    )
    run.set_defaults(handler=run_command)


def _add_cache_parser(commands) -> None:
    cache = commands.add_parser(
        "cache",
        help="inspect or empty the on-disk result cache",
        description=(
            "Result-cache maintenance.  'info' reports location, size, "
            "quarantined entries and recorded traces; 'clear' empties the "
            "cache."
        ),
    )
    cache.add_argument(
        "action",
        nargs="?",
        choices=("info", "clear"),
        default="info",
        help="info (default) or clear",
    )
    cache.add_argument(
        "--json",
        action="store_true",
        help="machine-readable 'info' output",
    )
    cache.set_defaults(handler=cache_command)


def _add_spec_arguments(parser) -> None:
    parser.add_argument(
        "--spec",
        default=None,
        metavar="FILE",
        help="sweep spec as JSON (see repro.sweep.spec)",
    )
    parser.add_argument(
        "--sweep-name",
        default=None,
        metavar="NAME",
        help="build the spec from flags instead: the sweep's name",
    )
    parser.add_argument(
        "--benchmarks",
        nargs="*",
        default=None,
        help="benchmark axis (default: the full suite)",
    )
    parser.add_argument(
        "--scales",
        nargs="*",
        type=float,
        default=None,
        help="workload-scale axis (default: 1.0)",
    )
    parser.add_argument(
        "--nodes",
        nargs="*",
        type=int,
        default=None,
        help="technology-node axis in nm (default: 70 100 130 180)",
    )


def _add_sweep_parser(commands) -> None:
    sweep = commands.add_parser(
        "sweep",
        help="parameter sweeps over the experiment grid",
        description=(
            "Expand a declarative spec (benchmarks x scales x pipelines x "
            "technology nodes) into engine jobs, run them all in one engine "
            "run and print the sweep report."
        ),
    )
    verbs = sweep.add_subparsers(dest="verb", metavar="verb", required=True)

    plan = verbs.add_parser(
        "plan", help="expand the grid and list its points (no runs)"
    )
    _add_spec_arguments(plan)
    plan.add_argument(
        "--save", default=None, metavar="FILE",
        help="also write the (possibly flag-built) spec as JSON",
    )
    plan.set_defaults(handler=sweep_plan_command)

    run = verbs.add_parser(
        "run",
        help="run the whole grid and print the report "
        "(reruns skip cached points)",
    )
    _add_spec_arguments(run)
    run.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="simulation worker processes",
    )
    run.add_argument(
        "--backend", choices=BACKEND_NAMES, default=None,
        help="execution backend "
        "(default: REPRO_BACKEND or 'pool'; see 'run --help')",
    )
    run.add_argument(
        "--output", default=None, metavar="FILE",
        help="also write the report to this file",
    )
    run.add_argument(
        "--csv", default=None, metavar="DIR",
        help="also export the sweep cells as CSV into this directory",
    )
    run.add_argument(
        "--json", default=None, metavar="FILE",
        help="also write the sweep cells as JSON to this file",
    )
    run.set_defaults(handler=sweep_run_command)


def _add_trace_parser(commands) -> None:
    trace = commands.add_parser(
        "trace",
        help="record, inspect, convert and cluster workload traces",
        description=(
            "Recorded-trace tooling.  Traces use the native chunked format "
            "(streaming, checksummed, compressed) and are referenced "
            "anywhere a benchmark name is accepted as 'trace:<path>' — "
            "run and sweep resolve them through the workload registry, "
            "sharing content addresses with synthetic workloads."
        ),
    )
    verbs = trace.add_subparsers(dest="verb", metavar="verb", required=True)

    record = verbs.add_parser(
        "record", help="capture a synthetic benchmark workload to disk"
    )
    record.add_argument(
        "benchmark", metavar="BENCHMARK",
        help=f"benchmark to record (from: {BENCHMARK_NAMES})",
    )
    record.add_argument(
        "--scale", type=float, default=1.0,
        help="workload scale factor (as in 'run')",
    )
    record.add_argument(
        "--output", default=None, metavar="FILE",
        help="trace file to write (default: <cache>/traces/"
        "<benchmark>-s<scale>.rtr)",
    )
    record.add_argument(
        "--codec", default=None, metavar="NAME",
        help="compression codec: none or gzip (default)",
    )
    record.add_argument(
        "--chunk-instructions", type=int, default=None, metavar="N",
        help="on-disk chunk size in instructions (default 65536)",
    )
    record.add_argument(
        "--json", action="store_true", help="machine-readable summary"
    )
    record.set_defaults(handler=trace_record_command)

    info = verbs.add_parser(
        "info", help="print a recorded trace's header/summary"
    )
    info.add_argument("path", metavar="FILE")
    info.add_argument(
        "--json", action="store_true", help="machine-readable summary"
    )
    info.set_defaults(handler=trace_info_command)

    validate = verbs.add_parser(
        "validate",
        help="verify every chunk checksum and the whole-trace digest",
    )
    validate.add_argument("path", metavar="FILE")
    validate.add_argument(
        "--json", action="store_true", help="machine-readable summary"
    )
    validate.set_defaults(handler=trace_validate_command)

    convert = verbs.add_parser(
        "convert", help="convert a gem5 Exec text trace to the native format"
    )
    convert.add_argument("source", metavar="GEM5_FILE")
    convert.add_argument(
        "--output", default=None, metavar="FILE",
        help="trace file to write (default: <cache>/traces/<source>.rtr)",
    )
    convert.add_argument(
        "--codec", default=None, metavar="NAME",
        help="compression codec (as in 'record')",
    )
    convert.add_argument(
        "--chunk-instructions", type=int, default=None, metavar="N",
        help="on-disk chunk size in instructions (default 65536)",
    )
    convert.add_argument(
        "--json", action="store_true", help="machine-readable report"
    )
    convert.set_defaults(handler=trace_convert_command)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _job_failed(error: JobFailedError, telemetry, manifest=None) -> int:
    """Report a failed job: the footer, the manifest, one error line."""
    print(telemetry.summary(), file=sys.stderr)
    if manifest:
        try:
            telemetry.write_manifest(manifest)
        except OSError as write_error:
            print(f"error: writing the manifest failed: {write_error}",
                  file=sys.stderr)
    print(f"error: {error}", file=sys.stderr)
    return EXIT_JOB_FAILED


# ----------------------------------------------------------------------
# --json documents
# ----------------------------------------------------------------------
def dumps_stable(payload) -> str:
    """Canonical JSON text: sorted keys, 2-space indent, trailing newline.

    The one serializer behind every ``--json`` output, byte-stable for
    identical payloads.
    """
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def cache_info_payload(store) -> Dict:
    """Machine-readable ``cache info``: the store's state."""
    return {
        key: value if key == "directory" else int(value)
        for key, value in store.info().items()
    }


# ----------------------------------------------------------------------
# cache
# ----------------------------------------------------------------------
def cache_command(args) -> int:
    """``repro-leakage cache {info,clear}``: inspect or empty the cache."""
    store = ResultStore()
    if args.action == "clear":
        if args.json:
            return _fail("--json only applies to 'cache info'")
        removed = store.clear()
        print(f"cache: removed {removed} entr{'y' if removed == 1 else 'ies'} "
              f"from {store.describe()}")
        return 0
    if args.json:
        print(dumps_stable(cache_info_payload(store)), end="")
        return 0
    info = store.info()
    print(f"cache directory: {info['directory']}")
    print(f"entries:         {info['entries']}")
    print(f"size:            {info['bytes'] / (1024 * 1024):.2f} MB")
    quarantined = info.get("quarantined", 0)
    print(
        f"quarantined:     {quarantined} corrupt "
        f"entr{'y' if quarantined == 1 else 'ies'}"
        + (f" (under {store.quarantine_dir})" if quarantined else "")
    )
    trace_files = info.get("trace_files", 0)
    if trace_files:
        print(
            f"traces:          {trace_files} artifact(s), "
            f"{info.get('trace_bytes', 0) / (1024 * 1024):.2f} MB "
            f"(under {store.traces_dir})"
        )
    else:
        print("traces:          no recorded traces")
    return 0


# ----------------------------------------------------------------------
# trace (recorded workload traces)
# ----------------------------------------------------------------------
def _resolve_benchmark_refs(names: List[str], scale: float) -> List[str]:
    """Normalize workload refs: lowercase plain names, keep trace: refs.

    Every ref is checked at the run's scale, so unknown names,
    unreadable trace files and scaled trace refs fail here with a named
    error instead of deep inside the run.
    """
    resolved = []
    for name in names:
        ref = name if is_trace_ref(name) else name.lower()
        check_workload(ref, scale)
        resolved.append(ref)
    return resolved


def _trace_destination(output: Optional[str], default_name: str):
    from pathlib import Path

    from .traces import trace_store_dir

    if output:
        return Path(output)
    return trace_store_dir() / default_name


def _print_trace_info(info, json_out: bool) -> None:
    if json_out:
        print(dumps_stable(info.to_dict()), end="")
        return
    print(f"trace:        {info.path}")
    print(f"codec:        {info.codec}")
    print(f"chunks:       {info.chunks} x {info.chunk_instructions} instructions")
    print(f"instructions: {info.instructions}")
    print(f"digest:       {info.digest}")
    print(f"file size:    {info.file_bytes / (1024 * 1024):.2f} MB")
    print(f"provenance:   {info.provenance or 'none'}")
    print(f"ref:          trace:{info.path}")


def _trace_format_kwargs(args) -> dict:
    kwargs = {}
    if args.codec is not None:
        kwargs["codec"] = args.codec
    if args.chunk_instructions is not None:
        if args.chunk_instructions <= 0:
            raise ReproError(
                f"--chunk-instructions must be positive, "
                f"got {args.chunk_instructions}"
            )
        kwargs["chunk_instructions"] = args.chunk_instructions
    return kwargs


def trace_record_command(args) -> int:
    from .traces import TRACE_SUFFIX, record_benchmark

    name = args.benchmark.lower()
    if name not in BENCHMARK_NAMES:
        return _fail(
            f"unknown benchmark {args.benchmark!r}; choose from {BENCHMARK_NAMES}"
        )
    if not args.scale > 0:
        return _fail(f"--scale must be positive, got {args.scale}")
    dest = _trace_destination(
        args.output, f"{name}-s{args.scale:g}{TRACE_SUFFIX}"
    )
    try:
        info = record_benchmark(
            name, dest, scale=args.scale, **_trace_format_kwargs(args)
        )
    except ReproError as error:
        return _fail(str(error))
    except OSError as error:
        return _fail(f"writing the trace failed: {error}")
    _print_trace_info(info, args.json)
    return 0


def trace_info_command(args) -> int:
    from .traces import TraceRecording

    try:
        _print_trace_info(TraceRecording(args.path).info(), args.json)
    except ReproError as error:
        return _fail(str(error))
    return 0


def trace_validate_command(args) -> int:
    from .traces import TraceRecording

    try:
        info = TraceRecording(args.path).validate()
    except ReproError as error:
        return _fail(str(error))
    if args.json:
        print(dumps_stable({"ok": True, "trace": info.to_dict()}), end="")
        return 0
    print(
        f"ok: {info.path} — {info.chunks} chunk(s), {info.instructions} "
        f"instruction(s), every checksum and the whole-trace digest verified"
    )
    return 0


def trace_convert_command(args) -> int:
    from pathlib import Path

    from .traces import TRACE_SUFFIX, convert_gem5_text

    dest = _trace_destination(
        args.output, f"{Path(args.source).stem}{TRACE_SUFFIX}"
    )
    try:
        report = convert_gem5_text(
            args.source, dest, **_trace_format_kwargs(args)
        )
    except ReproError as error:
        return _fail(str(error))
    except OSError as error:
        return _fail(f"converting the trace failed: {error}")
    if args.json:
        print(dumps_stable(report.to_dict()), end="")
        return 0
    print(
        f"converted {report.source}: {report.instructions} instruction(s) "
        f"({report.loads} load(s), {report.stores} store(s)), "
        f"{report.skipped_lines} line(s) skipped"
    )
    _print_trace_info(report.info, False)
    return 0


# ----------------------------------------------------------------------
# run (experiments)
# ----------------------------------------------------------------------
def run_command(args) -> int:
    """``repro-leakage run <experiment>`` (also the bare historical form)."""
    if args.extra:
        return _fail(
            f"unexpected arguments {args.extra} after {args.experiment!r}; "
            "subactions like 'info'/'clear' belong to the 'cache' command"
        )
    if args.experiment == "list":
        for name in experiment_names():
            print(name)
        return 0
    benchmarks = args.benchmarks
    if benchmarks is not None:
        try:
            benchmarks = _resolve_benchmark_refs(benchmarks, args.scale)
        except ReproError as error:
            return _fail(str(error))
    # Selection travels through the environment so pool and subprocess
    # workers resolve the same kernel/transport the parent did.
    if args.kernel is not None:
        os.environ["REPRO_KERNEL"] = args.kernel
    if args.transport is not None:
        os.environ["REPRO_TRANSPORT"] = args.transport
    try:
        engine = ExecutionEngine(
            jobs=args.jobs,
            store=NullStore() if args.no_cache else None,
            backend=args.backend,
        )
        suite = SuiteRunner(scale=args.scale, benchmarks=benchmarks, engine=engine)
        if args.experiment == "all":
            results = run_all(suite)
        else:
            results = [run_experiment(args.experiment, suite)]
    except JobFailedError as error:
        return _job_failed(error, engine.telemetry, args.manifest)
    except ReproError as error:
        return _fail(str(error))
    report = "\n\n\n".join(result.render() for result in results)
    print(report)
    try:
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(report + "\n")
        if args.csv:
            from .experiments.reporting import save_csv

            for result in results:
                save_csv(result, args.csv)
    except OSError as error:
        return _fail(f"writing report outputs failed: {error}")
    telemetry = engine.telemetry
    if telemetry.jobs:
        print(telemetry.summary(), file=sys.stderr)
    if args.manifest:
        try:
            telemetry.write_manifest(args.manifest)
        except OSError as error:
            return _fail(f"writing the manifest failed: {error}")
    return 0


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------
def _spec_from_args(args) -> SweepSpec:
    """Resolve the sweep spec: a JSON file, or constructed from flags."""
    from .sweep import SweepSpec

    flag_axes = {
        "benchmarks": args.benchmarks,
        "scales": args.scales,
        "nodes": args.nodes,
    }
    if args.spec is not None:
        conflicting = [
            f"--{name}" for name, value in flag_axes.items() if value is not None
        ]
        if args.sweep_name is not None:
            conflicting.insert(0, "--sweep-name")
        if conflicting:
            raise ReproError(
                f"--spec conflicts with {', '.join(conflicting)}; put the "
                "axes in the spec file"
            )
        return SweepSpec.load(args.spec)
    if args.sweep_name is None:
        raise ReproError(
            "a sweep needs --spec FILE or --sweep-name NAME (plus optional "
            "--benchmarks/--scales/--nodes)"
        )
    kwargs = {
        name: tuple(value)
        for name, value in flag_axes.items()
        if value is not None
    }
    return SweepSpec(name=args.sweep_name, **kwargs)


def sweep_plan_command(args) -> int:
    from .sweep import plan_text

    try:
        spec = _spec_from_args(args)
        print(plan_text(spec))
        if args.save:
            print(f"spec written: {spec.save(args.save)}", file=sys.stderr)
    except ReproError as error:
        return _fail(str(error))
    return 0


def sweep_run_command(args) -> int:
    from .sweep import run_sweep

    try:
        spec = _spec_from_args(args)
        engine = ExecutionEngine(jobs=args.jobs, backend=args.backend)
        outcome = run_sweep(spec, engine)
    except JobFailedError as error:
        return _job_failed(error, engine.telemetry)
    except ReproError as error:
        return _fail(str(error))
    print(outcome.report)
    try:
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(outcome.report + "\n")
        if args.csv:
            from .sweep import save_csv as save_sweep_csv

            path = save_sweep_csv(outcome.results, args.csv)
            print(f"sweep csv: {path}", file=sys.stderr)
        if args.json:
            from pathlib import Path

            from .sweep import to_json_dict

            target = Path(args.json)
            if target.parent != Path("."):
                target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(
                dumps_stable(to_json_dict(outcome.results)), encoding="utf-8"
            )
            print(f"sweep json: {target}", file=sys.stderr)
    except OSError as error:
        return _fail(f"writing sweep outputs failed: {error}")
    if outcome.telemetry.jobs:
        print(outcome.telemetry.summary(), file=sys.stderr)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exit_:  # argparse error (2), --help/--version (0)
        code = exit_.code
        return code if isinstance(code, int) else 0 if code is None else 2
    try:
        return args.handler(args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except BrokenPipeError:
        # Downstream closed the pipe (e.g. `repro-leakage list | head`);
        # detach stdout so the interpreter's shutdown flush can't raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except ReproError as error:
        return _fail(str(error))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
