"""Tests for repro.experiments — reporting, registry, and each harness."""

import pytest

from repro.errors import ExperimentError
from repro.experiments import paper_values
from repro.experiments.reporting import ExperimentResult, Table, fmt_pct, fmt_ratio
from repro.experiments.runner import experiment_names, run_all, run_experiment
from repro.experiments.suite import BenchmarkRun, SuiteRunner

#: Small scale keeps the suite-backed experiment tests fast while still
#: exercising every code path end to end.
TEST_SCALE = 0.12


@pytest.fixture(scope="module")
def suite():
    return SuiteRunner(scale=TEST_SCALE)


class TestReporting:
    def test_table_renders_aligned(self):
        table = Table("T", ["a", "bb"], [["1", "2"], ["333", "4"]])
        text = table.render()
        assert text.startswith("T\n")
        assert "333" in text

    def test_row_width_enforced(self):
        with pytest.raises(ExperimentError):
            Table("T", ["a"], [["1", "2"]])

    def test_result_render_includes_notes(self):
        result = ExperimentResult("x", "desc", notes=["hello"])
        assert "note: hello" in result.render()

    def test_formatters(self):
        assert fmt_pct(0.964) == "96.4"
        assert fmt_ratio(1.23456) == "1.235"


class TestSuiteRunner:
    def test_runs_are_cached(self, suite):
        first = suite.run("gzip")
        second = suite.run("gzip")
        assert first is second
        assert isinstance(first, BenchmarkRun)

    def test_unknown_benchmark_rejected(self, suite):
        with pytest.raises(ExperimentError):
            suite.run("perlbmk")

    def test_intervals_views_are_normalized(self, suite):
        from repro.core.intervals import IntervalKind

        population = suite.run("gzip").intervals("icache")
        assert all(k == IntervalKind.NORMAL for k in population.kinds)

    def test_bad_scale_rejected(self):
        with pytest.raises(ExperimentError):
            SuiteRunner(scale=0)


class TestStaticExperiments:
    def test_table1_matches_paper_exactly(self):
        result = run_experiment("table1")
        table = result.tables[0]
        for row in table.rows:
            assert row[1] == row[2]  # active-drowsy vs paper
            assert row[3] == row[4]  # drowsy-sleep vs paper

    def test_figure1_monotone(self):
        result = run_experiment("figure1")
        values = [float(row[1]) for row in result.tables[0].rows]
        assert values == sorted(values)

    def test_figure10_envelope_is_min(self):
        result = run_experiment("figure10")
        for row in result.tables[0].rows:
            feasible = [float(v) for v in row[1:4] if v != "-"]
            assert float(row[4]) == pytest.approx(min(feasible))


class TestSuiteExperiments:
    def test_figure8_orderings(self, suite):
        from repro.experiments.figure8 import compute

        measured = compute(suite)
        for cache in ("icache", "dcache"):
            avg = measured[cache]["average"]
            assert avg["OPT-Hybrid"] >= avg["OPT-Sleep(10K)"] >= avg["Sleep(10K)"]
            assert avg["OPT-Hybrid"] >= avg["Prefetch-B"] >= avg["Prefetch-A"]
            assert avg["OPT-Hybrid"] > 0.9
            assert abs(avg["OPT-Drowsy"] - (1 - 1 / 3)) < 0.02

    def test_figure7_hybrid_dominates_and_gap_shrinks(self, suite):
        from repro.experiments.figure7 import compute

        series = compute(suite, thresholds=[1057, 4000, 10000])
        for cache in ("icache", "dcache"):
            sleep = series[cache]["sleep"]
            hybrid = series[cache]["hybrid"]
            assert all(h >= s - 1e-9 for h, s in zip(hybrid, sleep))
            gaps = [h - s for h, s in zip(hybrid, sleep)]
            assert gaps[0] <= gaps[-1]  # gap grows away from the inflection

    def test_table2_trends(self, suite):
        from repro.experiments.table2 import compute

        measured = compute(suite)
        for cache in ("icache", "dcache"):
            hybrid = [measured[cache][nm]["OPT-Hybrid"] for nm in (70, 100, 130, 180)]
            assert hybrid == sorted(hybrid, reverse=True)
            at180 = measured[cache][180]
            at70 = measured[cache][70]
            # Sleep dominates at 70nm; its lead collapses at 180nm.
            assert at70["OPT-Sleep"] > at70["OPT-Drowsy"] + 0.15
            assert (at180["OPT-Sleep"] - at180["OPT-Drowsy"]) < 0.06

    def test_figure9_prefetchability_bands(self, suite):
        from repro.experiments.figure9 import compute

        measured = compute(suite)
        assert 0.10 < measured["icache"]["nextline"] < 0.40
        assert measured["icache"]["stride"] < 0.02
        assert 0.05 < measured["dcache"]["nextline"] < 0.35
        assert 0.0 < measured["dcache"]["stride"] < 0.12

    def test_ablation_dead_intervals_small_delta(self, suite):
        result = run_experiment("ablation_dead_intervals", suite)
        for row in result.tables[0].rows:
            assert abs(float(row[3])) < 3.0  # delta under 3 points

    def test_ablation_inflection_flat_near_b(self, suite):
        result = run_experiment("ablation_inflection", suite)
        rows = result.tables[0].rows
        for cache_column in (1, 2):
            base = float(rows[0][cache_column])
            near = float(rows[1][cache_column])  # 1.25x b
            assert abs(base - near) < 1.0


class TestRunner:
    def test_registry_names(self):
        names = experiment_names()
        assert {"table1", "table2", "figure7", "figure8", "figure9"} <= set(names)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ExperimentError):
            run_experiment("figure99")

    def test_run_all_static_subset(self):
        results = run_all(names=["table1", "figure1"])
        assert [r.name for r in results] == ["table1", "figure1"]


class TestPaperValues:
    def test_table2_has_all_nodes(self):
        for cache in ("icache", "dcache"):
            assert set(paper_values.TABLE2[cache]) == {70, 100, 130, 180}

    def test_headline_consistency(self):
        # The abstract's 3.6% / 0.9% remaining == Figure 8's hybrid limits.
        assert paper_values.HEADLINE_REMAINING["icache"] == pytest.approx(
            1 - paper_values.FIGURE8_AVERAGES["icache"]["OPT-Hybrid"], abs=1e-9
        )
        assert paper_values.HEADLINE_REMAINING["dcache"] == pytest.approx(
            1 - paper_values.FIGURE8_AVERAGES["dcache"]["OPT-Hybrid"], abs=1e-9
        )


class TestFutureWork:
    def test_tradeoff_frontier(self, suite):
        from repro.experiments.futurework import compute

        measured = compute(suite)
        for cache in ("icache", "dcache"):
            savings = [p.saving_fraction for p in measured[cache]]
            stalls = [p.stall_overhead for p in measured[cache]]
            assert savings == sorted(savings, reverse=True)
            assert stalls == sorted(stalls, reverse=True)
            assert stalls[-1] == 0.0

    def test_registered(self):
        assert "futurework_tradeoff" in experiment_names()

    def test_render(self, suite):
        result = run_experiment("futurework_tradeoff", suite)
        assert "Prefetch-A" in result.render()
        assert "Prefetch-B" in result.render()


class TestCsvAndDistributions:
    def test_table_to_csv_quotes_and_headers(self):
        from repro.experiments.reporting import table_to_csv

        table = Table("T", ["a", "b"], [["x,y", "2"]])
        text = table_to_csv(table)
        assert text.splitlines()[0] == "a,b"
        assert '"x,y"' in text

    def test_save_csv_writes_one_file_per_table(self, tmp_path):
        from repro.experiments.reporting import save_csv

        result = ExperimentResult(
            "demo",
            "d",
            tables=[
                Table("A", ["h"], [["1"]]),
                Table("B", ["h"], [["2"]]),
            ],
        )
        paths = save_csv(result, tmp_path)
        assert len(paths) == 2
        assert (tmp_path / "demo_0.csv").read_text().startswith("h")

    def test_distributions_mass_sums_to_one(self, suite):
        result = run_experiment("distributions", suite)
        for table in result.tables:
            for row in table.rows:
                total = sum(float(cell) for cell in row[1:])
                assert abs(total - 100.0) < 0.5, row[0]

    def test_cli_csv_flag(self, tmp_path, capsys):
        from repro.cli import main

        target = tmp_path / "csvdir"
        assert main(["figure1", "--csv", str(target)]) == 0
        capsys.readouterr()
        assert (target / "figure1_0.csv").exists()
