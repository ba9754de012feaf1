"""Sharded parameter sweeps: spec, grid, shards, status, merge.

The contract under test: a sweep spec expands into a deterministic grid
whose shards are disjoint, cover the grid, and share cache entries with
single runs — so the merged report of an N-shard sweep is byte-identical
to an unsharded run, survives injected faults, and re-running a finished
shard simulates nothing.
"""

import json

import pytest

from repro.cli import main
from repro.cpu.pipeline import PipelineConfig
from repro.engine import ResultStore
from repro.errors import ConfigurationError, EngineError
from repro.experiments.suite import SuiteRunner
from repro.sweep import (
    ShardAssignment,
    SweepCoordinator,
    SweepSpec,
    collect_sharing_stats,
    expand,
    expand_analysis,
    grid_keys,
    merge,
    parse_shard_name,
    pipeline_label,
    plan_text,
    run_shard,
    shard_of,
    shard_points,
    to_csv,
    to_json_dict,
)

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
    monkeypatch.setenv("REPRO_RETRY_DELAY", "0.01")
    for var in (
        "REPRO_FAULTS",
        "REPRO_RETRIES",
        "REPRO_JOB_TIMEOUT",
        "REPRO_CACHE_MAX_MB",
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
        assert len(grid_keys(spec)) == len(points) == spec.simulation_points

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
        assert len(expand_analysis(many)) == 4 * len(expand_analysis(few))


# ----------------------------------------------------------------------
# Sharding: disjoint, covering, stable
# ----------------------------------------------------------------------
class TestSharding:
    def test_invalid_assignments_rejected(self):
        for index, count in ((0, 0), (-1, 2), (2, 2), (5, 3)):
            with pytest.raises(ConfigurationError):
                ShardAssignment(index, count)

    def test_shards_are_disjoint_and_cover_the_grid(self):
        spec = small_spec(
            benchmarks=("ammp", "applu", "gcc", "gzip", "mesa", "vortex"),
            scales=(SMALL, 0.05),
        )
        points = expand(spec)
        for count in (1, 2, 3, 4):
            slices = [
                shard_points(points, ShardAssignment(index, count))
                for index in range(count)
            ]
            keys = [p.key() for piece in slices for p in piece]
            assert len(keys) == len(points)  # disjoint: no key twice
            assert set(keys) == {p.key() for p in points}  # covering

    def test_assignment_is_stable_under_spec_growth(self):
        # Adding a benchmark must not reshuffle existing keys between
        # shards: assignment hashes the job key, not the grid position.
        before = {
            p.key(): shard_of(p.key(), 4)
            for p in expand(small_spec(benchmarks=("gzip", "ammp")))
        }
        after = {
            p.key(): shard_of(p.key(), 4)
            for p in expand(small_spec(benchmarks=("gzip", "ammp", "gcc")))
        }
        for key, shard in before.items():
            assert after[key] == shard

    def test_shard_names_round_trip(self):
        assignment = ShardAssignment(2, 4)
        assert assignment.dir_name == "shard-2-of-4"
        assert parse_shard_name("shard-2-of-4") == assignment
        assert parse_shard_name("shard-4-of-4") is None
        assert parse_shard_name("nightly") is None


# ----------------------------------------------------------------------
# Coordinator: spec pinning
# ----------------------------------------------------------------------
class TestCoordinator:
    def test_first_shard_pins_spec_and_matches_verify(self, tmp_path):
        spec = small_spec()
        SweepCoordinator(spec, tmp_path).ensure_spec()
        assert (tmp_path / "sweeps" / spec.name / "spec.json").exists()
        SweepCoordinator(small_spec(), tmp_path).ensure_spec()  # same grid

    def test_mismatched_spec_under_same_name_is_an_error(self, tmp_path):
        SweepCoordinator(small_spec(), tmp_path).ensure_spec()
        other = small_spec(nodes=(70,))
        with pytest.raises(EngineError, match="different spec"):
            SweepCoordinator(other, tmp_path).ensure_spec()

    def test_plan_lists_every_point_with_its_shard(self):
        text = plan_text(small_spec(), shard_count=2)
        assert "spec fingerprint:" in text
        for name in SUITE:
            assert f"{name}@{SMALL:g}" in text
        assert "shard 1/2" in text and "shard 2/2" in text


# ----------------------------------------------------------------------
# End to end: run shards, merge, byte-identical reports
# ----------------------------------------------------------------------
class TestSweepEndToEnd:
    def run_all_shards(self, spec, count, cache_dir, jobs=2):
        return [
            run_shard(
                spec, ShardAssignment(index, count),
                jobs=jobs, cache_dir=cache_dir,
            )
            for index in range(count)
        ]

    def test_sharded_merge_identical_to_unsharded_run(self, tmp_path):
        spec = small_spec()
        solo_cache = tmp_path / "solo"
        run_shard(spec, jobs=2, cache_dir=solo_cache)
        solo = merge(spec, cache_dir=solo_cache)

        for count in (2, 4):
            sharded_cache = tmp_path / f"sharded-{count}"
            runs = self.run_all_shards(spec, count, sharded_cache)
            assert sum(r.jobs_run for r in runs) == spec.simulation_points
            merged = merge(spec, cache_dir=sharded_cache)

            assert merged.report == solo.report  # byte-identical
            assert (
                merged.manifest["report_sha256"]
                == solo.manifest["report_sha256"]
            )
            assert merged.telemetry.simulated == 0  # merge reads the cache

    def test_merge_is_idempotent(self, tmp_path):
        spec = small_spec(nodes=(70,))
        cache = tmp_path / "cache"
        self.run_all_shards(spec, 2, cache)
        first = merge(spec, cache_dir=cache)
        second = merge(spec, cache_dir=cache)
        assert second.report == first.report
        assert second.manifest == first.manifest

    def test_rerunning_finished_shards_simulates_nothing(self, tmp_path):
        spec = small_spec(nodes=(70,))
        cache = tmp_path / "cache"
        runs = self.run_all_shards(spec, 2, cache)
        reruns = self.run_all_shards(spec, 2, cache)
        for first, rerun in zip(runs, reruns):
            assert rerun.telemetry.cached == first.jobs_run
            assert rerun.manifest_path is not None
        assert sum(r.telemetry.simulated for r in reruns) == 0

    def test_status_counts_only_points_present_in_the_cache(self, tmp_path):
        spec = small_spec(nodes=(70,))
        cache = tmp_path / "cache"
        self.run_all_shards(spec, 2, cache)
        coordinator = SweepCoordinator(spec, cache)
        status = coordinator.status()
        assert status["completed"] == status["grid_jobs"]
        assert status["missing"] == []
        evicted = expand(spec)[0]
        ResultStore(cache).evict(evicted.key())
        status = coordinator.status()
        assert status["completed"] == status["grid_jobs"] - 1
        assert status["missing"] == [evicted.describe()]
        assert sum(shard["cached"] for shard in status["shards"]) == (
            status["grid_jobs"] - 1
        )

    def test_merged_report_survives_injected_faults(
        self, tmp_path, monkeypatch
    ):
        spec = small_spec(nodes=(70,))
        clean_cache = tmp_path / "clean"
        run_shard(spec, jobs=2, cache_dir=clean_cache)
        clean = merge(spec, cache_dir=clean_cache)

        monkeypatch.setenv("REPRO_FAULTS", "raise:gzip@*:attempt=1")
        faulty_cache = tmp_path / "faulty"
        runs = self.run_all_shards(spec, 2, faulty_cache)
        monkeypatch.delenv("REPRO_FAULTS")
        totals = [r.telemetry.manifest()["totals"] for r in runs]
        assert sum(t["retries"] for t in totals) >= 1

        faulty = merge(spec, cache_dir=faulty_cache)
        assert faulty.report == clean.report

    def test_merge_recomputes_points_no_shard_ran(self, tmp_path):
        # Shard 0 alone leaves part of the grid unsimulated; merge must
        # fill the gap itself and still produce the full report.
        spec = small_spec(nodes=(70,))
        partial_cache = tmp_path / "partial"
        run_shard(spec, ShardAssignment(0, 2), jobs=2,
                  cache_dir=partial_cache)
        partial = merge(spec, jobs=2, cache_dir=partial_cache)

        full_cache = tmp_path / "full"
        run_shard(spec, jobs=2, cache_dir=full_cache)
        full = merge(spec, cache_dir=full_cache)
        assert partial.report == full.report

    def test_sharing_stats_count_shards_and_merge(self, tmp_path):
        spec = small_spec(nodes=(70,))
        cache = tmp_path / "cache"
        self.run_all_shards(spec, 2, cache)
        merge(spec, cache_dir=cache)
        stats = collect_sharing_stats(cache)
        assert stats["manifests"] == 3  # 2 shard manifests + merged
        assert stats["simulated"] == spec.simulation_points
        # The merge run read every point back out of the shards' cache.
        assert stats["hits_from_earlier_runs"] == spec.simulation_points

    def test_csv_and_json_exports_cover_every_cell(self, tmp_path):
        spec = small_spec(nodes=(70, 180))
        cache = tmp_path / "cache"
        run_shard(spec, jobs=2, cache_dir=cache)
        outcome = merge(spec, cache_dir=cache)
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
        assert main(["sweep", "plan", *self.SPEC_FLAGS,
                     "--shard-count", "2"]) == 0
        out = capsys.readouterr().out
        assert "spec fingerprint:" in out
        assert "shard 1/2" in out

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
        assert main(["sweep", "status"]) == 2
        assert "--spec" in capsys.readouterr().err

    def test_run_status_merge_cycle(self, capsys):
        for index in ("0", "1"):
            assert main(["sweep", "run", *self.SPEC_FLAGS,
                         "--shard-index", index, "--shard-count", "2",
                         "--jobs", "2"]) == 0
        capsys.readouterr()

        assert main(["sweep", "status", *self.SPEC_FLAGS]) == 0
        status_out = capsys.readouterr().out
        assert "complete: every grid job is cached" in status_out

        assert main(["sweep", "merge", *self.SPEC_FLAGS]) == 0
        merge_out = capsys.readouterr().out
        assert "leakage-savings grid" in merge_out
        assert "suite-average" in merge_out

        assert main(["cache", "info"]) == 0
        info_out = capsys.readouterr().out
        assert "sharing:" in info_out
        assert "3 recorded run(s)" in info_out

    def test_merge_artifacts_written(self, tmp_path, capsys):
        assert main(["sweep", "run", *self.SPEC_FLAGS, "--jobs", "2"]) == 0
        report_file = tmp_path / "report.txt"
        json_file = tmp_path / "cells.json"
        assert main(["sweep", "merge", *self.SPEC_FLAGS,
                     "--output", str(report_file),
                     "--csv", str(tmp_path),
                     "--json", str(json_file)]) == 0
        out = capsys.readouterr().out
        assert report_file.read_text(encoding="utf-8").strip() == out.strip()
        csv_file = tmp_path / "sweep_cli-sweep.csv"
        assert csv_file.exists()
        document = json.loads(json_file.read_text(encoding="utf-8"))
        assert document["sweep"] == "cli-sweep"

    def test_conflicting_grids_under_one_name_fail(self, capsys):
        assert main(["sweep", "run", *self.SPEC_FLAGS, "--jobs", "2"]) == 0
        capsys.readouterr()
        assert main(["sweep", "status", "--sweep-name", "cli-sweep",
                     "--benchmarks", "gzip",
                     "--scales", str(SMALL), "--nodes", "70"]) == 2
        assert "different spec" in capsys.readouterr().err
