"""Parameter sweeps: spec, grid, and one engine run to the report.

The contract under test: a sweep spec expands into a deterministic grid
whose jobs share cache entries with single runs, and ``sweep run``
simulates every point once in one engine run — so the report is
byte-identical to the pinned golden, survives injected faults and
evicted entries, and a warm rerun simulates nothing.
"""

import json
from pathlib import Path

import pytest
from conftest import broken_in_process, broken_workers

from repro.cli import main
from repro.cpu.pipeline import PipelineConfig
from repro.engine import ExecutionEngine, NullStore, ResultStore
from repro.errors import ConfigurationError
from repro.experiments.suite import SuiteRunner
from repro.sweep import (
    SweepSpec,
    expand,
    pipeline_label,
    plan_text,
    run_sweep,
    to_csv,
    to_json_dict,
)

GOLDEN = Path(__file__).parent / "golden" / "sweep_small.txt"

#: Small enough that one simulation takes well under a second.
SMALL = 0.02

SUITE = ("gzip", "ammp")


def small_spec(name="test-sweep", **overrides):
    kwargs = dict(benchmarks=SUITE, scales=(SMALL,), nodes=(70, 180))
    kwargs.update(overrides)
    return SweepSpec(name, **kwargs)


@pytest.fixture(autouse=True)
def isolated_env(tmp_path, monkeypatch):
    """Each test gets its own cache dir and a clean engine environment."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    for var in (
        "REPRO_JOBS",
    ):
        monkeypatch.delenv(var, raising=False)
    return tmp_path


# ----------------------------------------------------------------------
# Spec: round-trip and validation
# ----------------------------------------------------------------------
class TestSweepSpec:
    def test_dict_round_trip(self):
        spec = small_spec(
            scales=(SMALL, 0.05),
            pipelines=(None, PipelineConfig(width=2, base_cpi=0.65)),
        )
        clone = SweepSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.fingerprint() == spec.fingerprint()

    def test_json_file_round_trip(self, tmp_path):
        spec = small_spec()
        path = tmp_path / "spec.json"
        spec.save(path)
        assert SweepSpec.load(path) == spec

    def test_defaults_cover_full_suite_and_paper_nodes(self):
        spec = SweepSpec("defaults")
        assert spec.benchmarks == ("ammp", "applu", "gcc", "gzip", "mesa",
                                   "vortex")
        assert spec.scales == (1.0,)
        assert spec.nodes == (70, 100, 130, 180)
        assert spec.pipelines == (None,)

    def test_fingerprint_depends_on_axes(self):
        base = small_spec()
        assert base.fingerprint() == small_spec().fingerprint()
        assert base.fingerprint() != small_spec(nodes=(70,)).fingerprint()
        reordered = small_spec(benchmarks=tuple(reversed(SUITE)))
        assert base.fingerprint() != reordered.fingerprint()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"benchmarks": ()},
            {"benchmarks": ("gzip", "gzip")},
            {"benchmarks": ("nosuchbench",)},
            {"scales": (0.0,)},
            {"scales": (-1.0,)},
            {"nodes": (65,)},
            {"pipelines": ("not-a-pipeline",)},
        ],
    )
    def test_invalid_axes_rejected(self, overrides):
        with pytest.raises(ConfigurationError):
            small_spec(**overrides)

    def test_invalid_name_rejected(self):
        with pytest.raises(ConfigurationError):
            small_spec(name="../escape")

    def test_unknown_fields_rejected(self):
        data = small_spec().to_dict()
        data["typo"] = True
        with pytest.raises(ConfigurationError):
            SweepSpec.from_dict(data)

    def test_unknown_pipeline_fields_rejected(self):
        data = small_spec().to_dict()
        data["pipelines"] = [{"no_such_field": 1}]
        with pytest.raises(ConfigurationError):
            SweepSpec.from_dict(data)

    def test_grid_sizes(self):
        spec = small_spec(scales=(SMALL, 0.05))
        assert spec.simulation_points == 4  # 2 benchmarks x 2 scales
        assert spec.analysis_points == 16  # x 2 nodes x 2 caches


# ----------------------------------------------------------------------
# Grid: deterministic expansion, cache sharing with single runs
# ----------------------------------------------------------------------
class TestGridExpansion:
    def test_order_is_scales_then_pipelines_then_benchmarks(self):
        spec = small_spec(
            scales=(SMALL, 0.05),
            pipelines=(None, PipelineConfig(width=2, base_cpi=0.65)),
        )
        points = expand(spec)
        observed = [(p.scale, pipeline_label(p.pipeline), p.benchmark)
                    for p in points]
        expected = [
            (scale, pipeline_label(pipeline), name)
            for scale in spec.scales
            for pipeline in spec.pipelines
            for name in spec.benchmarks
        ]
        assert observed == expected
        assert [p.index for p in points] == list(range(len(points)))

    def test_expansion_is_reproducible(self):
        spec = small_spec()
        assert [p.key() for p in expand(spec)] == [
            p.key() for p in expand(spec)
        ]

    def test_keys_are_unique(self):
        spec = small_spec(scales=(SMALL, 0.05))
        points = expand(spec)
        keys = {point.key() for point in points}
        assert len(keys) == len(points) == spec.simulation_points

    def test_jobs_share_cache_keys_with_single_runs(self):
        # The exact property that lets sweeps warm single runs: a sweep
        # point's content address equals the suite runner's for the same
        # (benchmark, scale, pipeline).
        spec = small_spec()
        suite = SuiteRunner(scale=SMALL, benchmarks=list(SUITE))
        expected = {suite.job_for(name).key() for name in SUITE}
        assert {p.key() for p in expand(spec)} == expected

    def test_nodes_do_not_multiply_simulation_jobs(self):
        few = small_spec(nodes=(70,))
        many = small_spec(nodes=(70, 100, 130, 180))
        assert [p.key() for p in expand(few)] == [
            p.key() for p in expand(many)
        ]
        assert many.analysis_points == 4 * few.analysis_points


# ----------------------------------------------------------------------
# Planning: every point listed, one run for the whole grid
# ----------------------------------------------------------------------
class TestCoordinator:
    def test_plan_lists_every_point_with_its_shard(self):
        spec = small_spec()
        text = plan_text(spec)
        assert f"spec fingerprint: {spec.fingerprint()}" in text
        for point in expand(spec):
            assert f"  {point.describe()}" in text
        # The one engine run is the only shard: no split is shown.
        assert "shard" not in text


# ----------------------------------------------------------------------
# End to end: one engine run, byte-identical reports
# ----------------------------------------------------------------------
def engine_for(cache_dir, jobs=2):
    return ExecutionEngine(jobs=jobs, store=ResultStore(cache_dir))


class TestSweepEndToEnd:
    def test_each_point_simulated_exactly_once(self):
        spec = small_spec(scales=(SMALL, 0.03), nodes=(70,))
        run = run_sweep(spec, ExecutionEngine(jobs=2, store=NullStore()))
        assert run.telemetry.jobs == spec.simulation_points
        assert run.telemetry.simulated == spec.simulation_points

    def test_rerunning_finished_shards_simulates_nothing(self, tmp_path):
        # The whole grid is one engine run, so a finished sweep is one
        # finished shard: rerunning it against the same cache is all hits.
        spec = small_spec(nodes=(70,))
        first = run_sweep(spec, engine_for(tmp_path / "cache"))
        rerun = run_sweep(spec, engine_for(tmp_path / "cache", jobs=1))
        assert first.telemetry.simulated == spec.simulation_points
        assert rerun.telemetry.simulated == 0
        assert rerun.telemetry.cached == spec.simulation_points
        assert rerun.report == first.report

    def test_merge_is_idempotent(self, tmp_path):
        # Aggregation (what ``merge`` used to do) is a pure function of
        # the spec and the cached outcomes: every artifact repeats.
        spec = small_spec(nodes=(70,))
        cache = tmp_path / "cache"
        run_sweep(spec, engine_for(cache))
        first = run_sweep(spec, engine_for(cache))
        second = run_sweep(spec, engine_for(cache))
        assert second.report == first.report
        assert to_csv(second.results) == to_csv(first.results)
        assert to_json_dict(second.results) == to_json_dict(first.results)

    def test_evicted_entry_is_recomputed(self, tmp_path):
        spec = small_spec(nodes=(70,))
        cache = tmp_path / "cache"
        first = run_sweep(spec, engine_for(cache))
        ResultStore(cache).evict(expand(spec)[0].key())
        rerun = run_sweep(spec, engine_for(cache))
        assert rerun.telemetry.simulated == 1
        assert rerun.report == first.report

    def test_report_survives_injected_faults(self, tmp_path):
        spec = small_spec(nodes=(70,))
        clean = run_sweep(spec, engine_for(tmp_path / "clean"))

        # gzip's worker attempt raises; its in-process rerun succeeds.
        with broken_workers(gzip="raise"):
            faulty = run_sweep(spec, engine_for(tmp_path / "faulty"))
        assert faulty.telemetry.manifest()["totals"]["fallbacks"] == 1
        assert faulty.report == clean.report

    def test_killed_worker_publishes_each_entry_once(self, tmp_path):
        spec = small_spec(nodes=(70, 180))
        solo = run_sweep(spec, engine_for(tmp_path / "solo", jobs=1))

        # gzip's worker dies mid-run; gzip reruns in-process.
        cache = tmp_path / "killed"
        engine = ExecutionEngine(
            jobs=2, store=ResultStore(cache), backend="subprocess"
        )
        with broken_workers(gzip="crash"):
            killed = run_sweep(spec, engine)
        assert killed.telemetry.manifest()["totals"]["fallbacks"] == 1
        # Two benchmarks at one scale: the node axis reuses the same
        # simulation, so exactly 2 content-addressed entries exist.
        assert len(list(cache.glob("*.pkl"))) == 2
        assert killed.report == solo.report

    def test_csv_and_json_exports_cover_every_cell(self, tmp_path):
        spec = small_spec(nodes=(70, 180))
        outcome = run_sweep(spec, engine_for(tmp_path / "cache"))
        # benchmarks+average x schemes x nodes x caches
        expected_cells = (len(SUITE) + 1) * 3 * 2 * 2
        assert len(outcome.results.cells) == expected_cells
        csv_text = to_csv(outcome.results)
        assert len(csv_text.splitlines()) == expected_cells + 1
        document = to_json_dict(outcome.results)
        assert document["spec_fingerprint"] == spec.fingerprint()
        assert len(document["cells"]) == expected_cells


# ----------------------------------------------------------------------
# CLI: sweep verbs and spec handling
# ----------------------------------------------------------------------
class TestSweepCli:
    SPEC_FLAGS = [
        "--sweep-name", "cli-sweep",
        "--benchmarks", *SUITE,
        "--scales", str(SMALL),
        "--nodes", "70",
    ]

    def test_plan_previews_without_running(self, capsys):
        assert main(["sweep", "plan", *self.SPEC_FLAGS]) == 0
        captured = capsys.readouterr()
        assert "spec fingerprint:" in captured.out
        for name in SUITE:
            assert f"{name}@{SMALL:g}" in captured.out
        assert "engine:" not in captured.err

    def test_plan_save_then_spec_file_round_trip(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        assert main(["sweep", "plan", *self.SPEC_FLAGS,
                     "--save", str(spec_file)]) == 0
        capsys.readouterr()
        assert main(["sweep", "plan", "--spec", str(spec_file)]) == 0
        assert "cli-sweep" in capsys.readouterr().out

    def test_spec_file_conflicts_with_axis_flags(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        small_spec().save(spec_file)
        assert main(["sweep", "plan", "--spec", str(spec_file),
                     "--sweep-name", "other"]) == 2
        assert "conflicts" in capsys.readouterr().err

    def test_sweep_needs_a_spec(self, capsys):
        assert main(["sweep", "run"]) == 2
        assert "--spec" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "status", "--sweep-name", "x"],
            ["sweep", "merge", "--sweep-name", "x"],
            ["sweep", "run", "--sweep-name", "x", "--shard-index", "0"],
            ["sweep", "plan", "--sweep-name", "x", "--shard-count", "2"],
        ],
    )
    def test_coordination_verbs_and_flags_are_gone(self, argv, capsys):
        assert main(argv) == 2
        capsys.readouterr()

    def test_report_matches_golden(self, tmp_path, capsys):
        report_file = tmp_path / "report.txt"
        assert main(["sweep", "run", "--sweep-name", "small",
                     "--benchmarks", *SUITE, "--scales", str(SMALL),
                     "--nodes", "70", "180",
                     "--output", str(report_file)]) == 0
        capsys.readouterr()
        assert report_file.read_bytes() == GOLDEN.read_bytes()
        assert not (tmp_path / "cache" / "sweeps").exists()

    def test_run_status_merge_cycle(self, capsys):
        # The run/status/merge cycle is one verb now: ``sweep run``
        # prints the merged report, and rerunning it is all cache hits.
        assert main(["sweep", "run", *self.SPEC_FLAGS, "--jobs", "2"]) == 0
        first = capsys.readouterr()
        assert "leakage-savings grid" in first.out
        assert "suite-average" in first.out
        assert "2 simulated" in first.err

        assert main(["cache", "info"]) == 0
        assert "entries:         2" in capsys.readouterr().out

        assert main(["sweep", "run", *self.SPEC_FLAGS]) == 0
        rerun = capsys.readouterr()
        assert "0 simulated" in rerun.err
        assert rerun.out == first.out

    def test_failed_point_exits_1_with_footer(self, capsys):
        with broken_in_process(gzip="raise"):
            code = main(["sweep", "run", *self.SPEC_FLAGS, "--jobs", "1"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "1 failed" in captured.err
        errors = [
            line for line in captured.err.splitlines()
            if line.startswith("error:")
        ]
        assert len(errors) == 1 and "job gzip" in errors[0]

    def test_merge_artifacts_written(self, tmp_path, capsys):
        # ``--output``/``--csv``/``--json`` moved from ``merge`` to ``run``.
        report_file = tmp_path / "report.txt"
        json_file = tmp_path / "cells.json"
        assert main(["sweep", "run", *self.SPEC_FLAGS, "--jobs", "2",
                     "--output", str(report_file),
                     "--csv", str(tmp_path),
                     "--json", str(json_file)]) == 0
        out = capsys.readouterr().out
        assert report_file.read_text(encoding="utf-8") == out
        csv_file = tmp_path / "sweep_cli-sweep.csv"
        assert csv_file.exists()
        document = json.loads(json_file.read_text(encoding="utf-8"))
        assert document["sweep"] == "cli-sweep"
