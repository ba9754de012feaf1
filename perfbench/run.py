#!/usr/bin/env python3
"""Benchmark of the repro-leakage CLI, run from the root of a checkout.

    python3 perfbench/run.py --workload paper-warm --seed 0 --seconds 15 --trace 0

Workloads (see README.md for why each was chosen):

``paper-warm``
    ``run all`` against a result cache that set-up fills.
``suite-cold``
    ``run figure9 --jobs 1`` against an empty result cache, in one process.
``trace-replay``
    ``run figure9`` on recorded ``.rtr`` traces through one subprocess
    worker, against an empty result cache.

With ``--trace 0`` the timed command runs again and again, each time as
a fresh process with tracing off, until ``--seconds`` of it have been
measured (at least once); the run reports the median wall time, CPU
time and peak RSS, and the set-up time.  With ``--trace 1`` the command
runs once untraced and once with every layer wrapped in spans
(``hook/spantrace.py``), and the run reports the per-layer metrics.

Every command is checked: exit code, the sha256 of its report and each
job's simulated statistics against ``pins.json`` (seed 0, the paper
suite), or against the run's first command for any other seed, and the
manifest's validation gate.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
HOOK_DIR = BENCH_DIR / "hook"
sys.path.insert(0, str(HOOK_DIR))

import spantrace  # noqa: E402 — lives in hook/, shared with the traced process
from tasks import PAPER_SEED  # noqa: E402

WORKLOADS = ("paper-warm", "suite-cold", "trace-replay")
BENCHMARKS = ("ammp", "applu", "gcc", "gzip", "mesa", "vortex")
#: The registered experiments, in registry order.
EXPERIMENTS = (
    "table1", "figure1", "figure10", "table2", "figure7", "figure8",
    "figure9", "ablation_dead_intervals", "ablation_ramps",
    "ablation_decay_counter", "ablation_inflection", "futurework_tradeoff",
    "distributions",
)
#: Layers whose self time the traced run reports (``trace`` is the
#: tracer's own installation).
LAYERS = (
    "cli", "experiments", "core", "engine", "workloads", "traces",
    "cache", "prefetch", "trace",
)
#: Fewest timed commands per untraced run, whatever ``--seconds`` says.
MIN_REPS = 1
#: Set-up repetitions whose median is the sub-second set-up of suite-cold.
SETUP_REPS = 3
#: A run stops starting commands after this many seconds.
RUN_BUDGET = 160.0
#: Timeout of any one command.
COMMAND_TIMEOUT = 120.0
#: Exit code when the checkout holds no program to benchmark.
EXIT_NO_PROGRAM = 2


class BenchError(Exception):
    """A set-up step failed; the run cannot produce a result."""


@dataclass
class Proc:
    code: int
    wall: float
    cpu: float
    rss_mb: float
    stdout: bytes
    stderr: str


@dataclass
class Sample:
    wall: float
    cpu: float
    rss_mb: float
    digest: str
    manifest: dict


def execute(argv: List[str], env: dict, cwd: Path, scratch: Path, timeout: float) -> Proc:
    """Run one process to its end; wall, CPU and peak RSS from ``wait4``.

    CPU time and peak RSS cover the process and every child it waited
    for.  The process leads its own session, so a timeout kills the
    whole tree, and no descendant outlives the call.
    """
    with tempfile.TemporaryFile(dir=scratch) as out, tempfile.TemporaryFile(
        dir=scratch
    ) as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=out, stderr=err, env=env, cwd=cwd, start_new_session=True
        )

        def kill_tree() -> None:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(timeout, kill_tree)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - started
        finally:
            timer.cancel()
            timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        kill_tree()  # anything the process left behind in its session
        out.seek(0)
        err.seek(0)
        return Proc(
            code=proc.returncode,
            wall=wall,
            cpu=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
            stdout=out.read(),
            stderr=err.read().decode("utf-8", "replace"),
        )


class Bench:
    """One run of one workload: set-up, timed commands, checks."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: int) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.started = time.perf_counter()
        base = root / ".perfbench_tmp"
        base.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="run-", dir=base))
        self.scratch = self.tmp / "tmp"
        self.work = self.tmp / "work"
        self.scratch.mkdir()
        self.work.mkdir()
        self.native_dir: Optional[Path] = None
        self.native_serial = 0
        self.cache_serial = 0
        self.warm_cache: Optional[Path] = None
        self.fill_manifest: Optional[dict] = None
        self.pins = json.loads((BENCH_DIR / "pins.json").read_text())
        self.refs: Optional[List[str]] = None
        self.record_seconds = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        #: Problems found in set-up, charged to the first timed command.
        self.setup_problems: List[str] = []
        self.reference: Optional[Sample] = None
        self.context: Dict[str, object] = {
            "workload": workload,
            "seed": seed,
            "nproc": os.cpu_count(),
            "python": sys.version.split()[0],
        }

    # ------------------------------------------------------------------
    # Processes
    # ------------------------------------------------------------------
    def env(self, cache: Path, traced: bool = False) -> dict:
        """A hermetic environment: no inherited ``REPRO_*`` variable."""
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env.pop("PERFBENCH_WORKER_SPANS", None)
        paths = [str(self.root / "src")]
        if traced:
            paths.insert(0, str(HOOK_DIR))
        env.update(
            PYTHONPATH=os.pathsep.join(paths),
            PYTHONHASHSEED="0",
            TMPDIR=str(self.scratch),
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
            REPRO_CACHE_DIR=str(cache),
            REPRO_NATIVE_DIR=str(self.native_dir or self.tmp / "native"),
        )
        return env

    def remaining(self) -> float:
        return RUN_BUDGET - (time.perf_counter() - self.started)

    def execute(self, argv: List[str], env: dict) -> Proc:
        timeout = min(COMMAND_TIMEOUT, max(self.remaining(), 1.0))
        return execute(argv, env, self.work, self.scratch, timeout)

    def task(self, args: List[str]) -> tuple:
        """Run one ``tasks.py`` step; returns (wall, inner seconds, result)."""
        proc = self.execute(
            [sys.executable, str(BENCH_DIR / "tasks.py"), *args],
            self.env(self.fresh_cache()),
        )
        if proc.code != 0:
            raise BenchError(f"tasks.py {args[0]} failed: {proc.stderr.strip()[-800:]}")
        document = json.loads(proc.stdout.decode().strip().splitlines()[-1])
        return proc.wall, document["seconds"], document["result"]

    def fresh_cache(self) -> Path:
        self.cache_serial += 1
        return self.tmp / f"cache-{self.cache_serial}"

    # ------------------------------------------------------------------
    # Set-up
    # ------------------------------------------------------------------
    def build_native(self) -> float:
        """Build the residual library into a fresh directory."""
        self.native_serial += 1
        self.native_dir = self.tmp / f"native-{self.native_serial}"
        wall, _, _ = self.task(["native"])
        return wall

    def warm_import(self) -> float:
        proc = self.execute(
            [sys.executable, "-m", "repro", "--version"], self.env(self.fresh_cache())
        )
        if proc.code != 0:
            raise BenchError(f"importing the CLI failed: {proc.stderr.strip()[-800:]}")
        return proc.wall

    def record(self) -> float:
        """Record the seed's six benchmarks under ``work/traces``."""
        wall, seconds, result = self.task(
            ["record", "--seed", str(self.seed), "--out", str(self.work / "traces")]
        )
        self.record_seconds = seconds
        self.refs = [f"trace:traces/{result[name]['file']}" for name in BENCHMARKS]
        self.context["trace_bytes"] = sum(entry["bytes"] for entry in result.values())
        return wall

    def setup(self) -> float:
        """The workload's untimed preparation; returns its set-up time."""
        paper = self.seed == PAPER_SEED
        if self.workload == "suite-cold":
            recorded = 0.0 if paper else self.record()
            repeats = [self.build_native() + self.warm_import() for _ in range(SETUP_REPS)]
            return recorded + statistics.median(repeats)
        setup = self.build_native()
        if self.workload == "trace-replay" or not paper:
            setup += self.record()
        if self.workload == "paper-warm":
            self.warm_cache = self.fresh_cache()
            proc = self.execute(
                self.cli("figure9", self.warm_cache), self.env(self.warm_cache)
            )
            manifest = self.read_manifest(self.warm_cache)
            if proc.code != 0 or manifest is None or manifest["totals"]["failed"]:
                raise BenchError(f"filling the result cache failed: {proc.stderr[-800:]}")
            setup += proc.wall
            self.fill_manifest = manifest
            if paper:
                self.setup_problems = self.check_intervals(self.warm_cache, manifest)
        return setup

    # ------------------------------------------------------------------
    # Timed commands
    # ------------------------------------------------------------------
    def cli(self, experiment: str, cache: Path) -> List[str]:
        """The CLI arguments of one command (after ``python -m repro``)."""
        argv = [sys.executable, "-m", "repro", "run", experiment, "--jobs", "1"]
        if self.workload == "trace-replay" or self.seed != PAPER_SEED:
            argv += ["--benchmarks", *self.refs]
        if self.workload == "trace-replay":
            argv += ["--backend", "subprocess"]
        return argv + ["--manifest", str(cache / "manifest.json")]

    def command(self) -> tuple:
        """The timed command and the result cache it runs against."""
        if self.workload == "paper-warm":
            return self.cli("all", self.warm_cache), self.warm_cache
        cache = self.fresh_cache()
        return self.cli("figure9", cache), cache

    def read_manifest(self, cache: Path) -> Optional[dict]:
        try:
            return json.loads((cache / "manifest.json").read_text())
        except (OSError, ValueError):
            return None

    def timed(self, traced: bool = False, label: str = "") -> Sample:
        """Run the timed command once and check everything it produced."""
        argv, cache = self.command()
        env = self.env(cache, traced)
        if traced:
            spans_dir = self.tmp / "spans"
            spans_dir.mkdir(exist_ok=True)
            argv = [
                sys.executable, str(BENCH_DIR / "tasks.py"), "traced",
                "--spans", str(spans_dir / "cli.json"),
                "--worker-spans", str(spans_dir), "--", *argv[3:],
            ]
        proc = self.execute(argv, env)
        self.attempted += 1
        manifest = self.read_manifest(cache)
        sample = Sample(
            wall=proc.wall,
            cpu=proc.cpu,
            rss_mb=proc.rss_mb,
            digest=hashlib.sha256(proc.stdout).hexdigest(),
            manifest=manifest or {},
        )
        problems = self.check(proc, sample, label)
        if not problems and self.reference is None:
            if self.workload == "paper-warm":
                problems = self.setup_problems
            elif self.seed == PAPER_SEED:
                problems = self.check_intervals(cache, sample.manifest)
            self.reference = sample
        if problems:
            self.failed += 1
            self.failures.extend(problems)
        else:
            substrate = sample.manifest.get("substrate", {})
            self.context["substrate"] = {
                key: substrate.get(key)
                for key in ("kernel_mode", "residual_impl", "transport", "traces_published")
            }
        if self.workload != "paper-warm" and not traced:
            shutil.rmtree(cache, ignore_errors=True)
        return sample

    # ------------------------------------------------------------------
    # Checks
    # ------------------------------------------------------------------
    def check(self, proc: Proc, sample: Sample, label: str) -> List[str]:
        """The correctness gate of one command; returns its problems."""
        where = f"{self.workload} {label}command {self.attempted}"
        if proc.code != 0:
            return [f"{where}: exit code {proc.code}: {proc.stderr.strip()[-400:]}"]
        manifest = sample.manifest
        if not manifest:
            return [f"{where}: no manifest written"]
        problems = []
        totals = manifest["totals"]
        if totals["failed"] or totals["quarantined_results"]:
            problems.append(
                f"{where}: {totals['failed']} failed, "
                f"{totals['quarantined_results']} quarantined result(s)"
            )
        simulated = 0 if self.workload == "paper-warm" else len(BENCHMARKS)
        if (totals["jobs"], totals["simulated"]) != (len(BENCHMARKS), simulated):
            problems.append(
                f"{where}: {totals['jobs']} jobs, {totals['simulated']} simulated; "
                f"expected {len(BENCHMARKS)} jobs, {simulated} simulated"
            )
        expected_digest = self.expected_digest()
        if expected_digest is not None and sample.digest != expected_digest:
            problems.append(f"{where}: report sha256 {sample.digest} != {expected_digest}")
        expected_jobs = self.expected_jobs()
        if expected_jobs is not None:
            found = job_stats(manifest)
            if set(found) != set(expected_jobs):
                problems.append(f"{where}: jobs {sorted(found)} != {sorted(expected_jobs)}")
            for name in set(found) & set(expected_jobs):
                for key in ("instructions", "cycles"):
                    have, want = found[name][key], expected_jobs[name][key]
                    if have != want:
                        problems.append(f"{where}: {name} {key} {have} != {want}")
        return problems

    def expected_digest(self) -> Optional[str]:
        if self.seed == PAPER_SEED:
            report = "all" if self.workload == "paper-warm" else "figure9"
            return self.pins["reports"][report]
        return None if self.reference is None else self.reference.digest

    def expected_jobs(self) -> Optional[dict]:
        """Pinned job statistics (seed 0), else those of the run's first
        command, or of the cache fill that ``paper-warm`` reads."""
        if self.seed == PAPER_SEED:
            return self.pins["jobs"]
        reference = self.reference.manifest if self.reference else self.fill_manifest
        return None if reference is None else job_stats(reference)

    def check_intervals(self, cache: Path, manifest: dict) -> List[str]:
        """Compare the cached results' statistics, interval counts
        included, with the seed-0 pins."""
        _, _, stored = self.task(["intervals", "--cache", str(cache)])
        names = {row["key"]: benchmark_name(row["benchmark"]) for row in manifest["jobs"]}
        problems = []
        if set(stored) != set(names):
            problems.append(f"{self.workload}: result cache holds {sorted(stored)}")
        for key, stats in stored.items():
            name = names.get(key)
            want = self.pins["jobs"].get(name)
            if stats != want:
                problems.append(f"{self.workload}: {name} statistics {stats} != {want}")
        return problems

    # ------------------------------------------------------------------
    # Runs
    # ------------------------------------------------------------------
    def run_untraced(self) -> Dict[str, tuple]:
        setup_s = self.setup()
        samples: List[Sample] = []
        measured = 0.0
        while True:
            sample = self.timed()
            samples.append(sample)
            measured += sample.wall
            if len(samples) >= MIN_REPS and measured >= self.seconds:
                break
            if self.remaining() < 1.5 * sample.wall:
                break
        self.context["commands"] = len(samples)
        self.context["walls"] = [round(s.wall, 3) for s in samples]
        return {
            "wall_s": (statistics.median(s.wall for s in samples), "s"),
            "cpu_s": (statistics.median(s.cpu for s in samples), "s"),
            "peak_rss_mb": (statistics.median(s.rss_mb for s in samples), "MB"),
            "setup_s": (setup_s, "s"),
        }

    def run_traced(self) -> Dict[str, tuple]:
        self.setup()
        untraced = self.timed(label="untraced ")
        traced = self.timed(traced=True, label="traced ")
        spans_dir = self.tmp / "spans"
        root_spans = spans_dir / "cli.json"
        if not root_spans.is_file() or not traced.manifest:
            raise BenchError(f"the traced command failed: {self.failures[-1:]}")
        files = [root_spans] + sorted(spans_dir.glob("worker-*.json"))
        spans = spantrace.load(str(path) for path in files)
        acc = spantrace.account(spans)
        metrics = layer_metrics(acc, traced.manifest, self.record_seconds)
        covered = acc["covered"]
        metrics.update(
            {
                "trace.wall_s": (traced.wall, "s"),
                "trace.untraced_wall_s": (untraced.wall, "s"),
                "trace.overhead_s": (traced.wall - untraced.wall, "s"),
                "trace.covered_share": (covered / traced.wall, "ratio"),
                "self.unattributed_s": (traced.wall - covered, "s"),
            }
        )
        for layer in LAYERS:
            metrics[f"self.{layer}_s"] = (acc["layers"].get(layer, 0.0), "s")
        print_accounting(self.workload, acc, traced.wall, untraced.wall)
        return metrics

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            self.tmp.parent.rmdir()
        except OSError:
            pass


def benchmark_name(ref: str) -> str:
    """Paper benchmark name of a manifest job (``trace:traces/gcc.rtr`` -> gcc)."""
    if ref.startswith("trace:"):
        return Path(ref[len("trace:"):]).stem
    return ref


def job_stats(manifest: dict) -> Dict[str, dict]:
    return {
        benchmark_name(row["benchmark"]): {
            "instructions": row["instructions"],
            "cycles": row["cycles"],
        }
        for row in manifest.get("jobs", ())
    }


def layer_metrics(acc: dict, manifest: dict, record_seconds: float) -> Dict[str, tuple]:
    """Per-layer metrics from the spans and the traced command's manifest."""
    total, count, attrs, own = acc["total"], acc["count"], acc["attrs"], acc["self"]

    def seconds(name: str) -> tuple:
        return (total.get(name, 0.0), "s")

    def summed(name: str, key: str, unit: str) -> tuple:
        return (int(attrs.get(name, {}).get(key, 0)), unit)

    simulated = [row for row in manifest["jobs"] if row["source"] != "cached"]
    stage = {
        name: sum(row["stage_seconds"].get(name, 0.0) for row in simulated)
        for name in ("frontend", "residual", "assembly", "annotate")
    }
    totals = manifest["totals"]
    metrics = {
        "workloads.generate_s": seconds("workloads.generate"),
        "workloads.instructions": summed("workloads.generate", "items", "count"),
        "cache.frontend_s": (stage["frontend"], "s"),
        "cache.residual_s": (stage["residual"], "s"),
        "cache.assembly_s": (stage["assembly"], "s"),
        "cache.fast_path_share": (totals["fast_path_share"], "ratio"),
        "cache.slow_path_accesses": (int(totals["slow_path_accesses"]), "count"),
        "prefetch.annotate_s": (stage["annotate"], "s"),
        "engine.store_get_s": seconds("engine.store_get"),
        "engine.store_bytes_read": summed("engine.store_get", "bytes", "B"),
        "engine.store_put_s": seconds("engine.store_put"),
        "engine.store_bytes_written": summed("engine.store_put", "bytes", "B"),
        "engine.validate_s": seconds("engine.validate"),
        "engine.dispatch_s": (own.get("engine.run", 0.0), "s"),
        "engine.transport_publish_s": seconds("engine.transport_publish"),
        "engine.jobs_simulated": (int(totals["simulated"]), "count"),
        "engine.jobs_cached": (int(totals["cached"]), "count"),
        "traces.decode_s": seconds("traces.decode"),
        "traces.bytes_read": summed("traces.decode", "bytes", "B"),
        "traces.record_s": (record_seconds, "s"),
        "core.evaluate_policy_s": seconds("core.evaluate_policy"),
        "core.evaluate_policy_calls": (count.get("core.evaluate_policy", 0), "count"),
        "core.intervals_priced": summed("core.evaluate_policy", "items", "count"),
        "experiments.render_s": seconds("experiments.render"),
        "cli.import_s": seconds("cli.import"),
        "trace.install_s": seconds("trace.install"),
    }
    for name in EXPERIMENTS:
        metrics[f"experiments.{name}_s"] = seconds(f"experiments.{name}")
    return metrics


def print_accounting(workload: str, acc: dict, traced: float, untraced: float) -> None:
    print(f"traced run accounting: {workload}")
    print(f"  {'layer':<12} {'self s':>9} {'share':>7}")
    for layer in LAYERS:
        value = acc["layers"].get(layer, 0.0)
        print(f"  {layer:<12} {value:9.3f} {100 * value / traced:6.1f}%")
    print(f"  {'(none)':<12} {traced - acc['covered']:9.3f} "
          f"{100 * (traced - acc['covered']) / traced:6.1f}%")
    print(f"  leaf spans cover {100 * acc['covered'] / traced:.1f}% of the "
          f"traced wall time {traced:.3f} s")
    print(f"  tracing overhead {traced - untraced:+.3f} s "
          f"(untraced {untraced:.3f} s)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=PAPER_SEED,
                        help="0 (default) runs the paper suite; any other "
                        "seed re-seeds the six generators")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "cli.py").is_file():
        print(f"error: no repro-leakage program under {root / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return EXIT_NO_PROGRAM
    bench = Bench(root, args.workload, args.seed, args.seconds)
    try:
        metrics = bench.run_traced() if args.trace else bench.run_untraced()
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        bench.close()
    for problem in bench.failures:
        print(f"FAILED: {problem}", file=sys.stderr)
    print("context: " + json.dumps(bench.context, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value} {unit}")
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
