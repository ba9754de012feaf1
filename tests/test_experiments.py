"""Tests for repro.experiments — reporting, registry, and each harness.

The paper's findings are checked on one suite at the calibration scale,
the scale of the committed ``results_scale1.txt``, so a finding test
checks the numbers the product prints.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.engine import ExecutionEngine, ResultStore
from repro.errors import ExperimentError
from repro.experiments import paper_values
from repro.experiments.reporting import ExperimentResult, Table, fmt_pct, fmt_ratio
from repro.experiments.runner import experiment_names, run_all, run_experiment
from repro.experiments.suite import DEFAULT_SCALE, BenchmarkRun, SuiteRunner

RESULTS_SCALE1 = Path(__file__).resolve().parent.parent / "results_scale1.txt"


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    """The six paper benchmarks at scale 1.0, simulated once per module."""
    store = ResultStore(tmp_path_factory.mktemp("suite-cache"))
    return SuiteRunner(
        scale=DEFAULT_SCALE, engine=ExecutionEngine(jobs=1, store=store)
    )


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
        from repro.power.itrs import projection_series

        fractions = [fraction for _, fraction in projection_series(1999, 2009, 2)]
        assert fractions == sorted(fractions)
        # The S-curve: under a tenth in 1999, over half by 2009.
        assert fractions[0] < 0.1 < 0.5 < fractions[-1]

    def test_figure10_envelope_is_min(self, model70):
        from repro.core.envelope import envelope_array, envelope_series

        series = envelope_series(model70, 20_000, 64)
        lengths = np.array([row[0] for row in series])
        envelope = envelope_array(model70, lengths)
        assert envelope.shape == lengths.shape
        # The vectorized envelope is exactly the pointwise minimum of the
        # feasible modes (NaN marks an infeasible mode).
        for (_, active, drowsy, sleep), env in zip(series, envelope):
            feasible = [v for v in (active, drowsy, sleep) if v == v]
            assert env == min(feasible)
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
            target = paper_values.FIGURE8_AVERAGES[cache]["OPT-Hybrid"]
            # Figure 8's bar ordering holds on the average.
            assert avg["OPT-Hybrid"] >= avg["OPT-Sleep(10K)"] >= avg["Sleep(10K)"]
            assert avg["OPT-Hybrid"] >= avg["Prefetch-B"] >= avg["Prefetch-A"]
            # The headline limits land in the paper's neighbourhood
            # (96.4 % I / 99.1 % D).
            assert abs(avg["OPT-Hybrid"] - target) < 0.05
            assert abs(avg["OPT-Drowsy"] - (1 - 1 / 3)) < 0.02
            # Prefetch-B approaches the limit (paper: within 5.3 % / 6.7 %).
            assert avg["OPT-Hybrid"] - avg["Prefetch-B"] < 0.08
            # The hybrid clearly beats the implementable decay scheme
            # (paper: by 26 / 15 points).
            assert avg["OPT-Hybrid"] - avg["Sleep(10K)"] > 0.10
            # Every benchmark individually keeps the oracle ordering.
            for name, row in measured[cache].items():
                assert row["OPT-Hybrid"] >= row["OPT-Sleep(10K)"] - 1e-9, name

    def test_figure7_hybrid_dominates_and_gap_shrinks(self, suite):
        from repro.experiments.figure7 import DEFAULT_THRESHOLDS, compute

        series = compute(suite, DEFAULT_THRESHOLDS)
        for cache in ("icache", "dcache"):
            sleep = series[cache]["sleep"]
            hybrid = series[cache]["hybrid"]
            assert all(h >= s - 1e-9 for h, s in zip(hybrid, sleep))
            gaps = [h - s for h, s in zip(hybrid, sleep)]
            assert gaps[0] <= gaps[-1]  # gap grows away from the inflection
            # Pure sleep degrades as the threshold rises; the hybrid
            # barely moves.
            assert sleep[0] > sleep[-1]
            assert hybrid[0] - hybrid[-1] < sleep[0] - sleep[-1]
            # Near the inflection point the two nearly converge (§4.3).
            assert gaps[0] < 0.03

    def test_table2_trends(self, suite):
        from repro.experiments.table2 import compute

        measured = compute(suite)
        for cache in ("icache", "dcache"):
            hybrid = [measured[cache][nm]["OPT-Hybrid"] for nm in (70, 100, 130, 180)]
            # Savings grow monotonically as technology scales down.
            assert hybrid == sorted(hybrid, reverse=True)
            at180 = measured[cache][180]
            at70 = measured[cache][70]
            # Sleep leads drowsy by tens of points at 70nm; the lead
            # collapses at 180nm, where b jumps to 103K cycles.
            lead70 = at70["OPT-Sleep"] - at70["OPT-Drowsy"]
            lead180 = at180["OPT-Sleep"] - at180["OPT-Drowsy"]
            assert lead70 > 0.15
            assert lead180 < 0.06
            assert lead180 < lead70 - 0.15
            # OPT-Drowsy saturates at ~2/3 on every node.
            for nm in (70, 100, 130, 180):
                assert abs(measured[cache][nm]["OPT-Drowsy"] - 2 / 3) < 0.02
        # The lead flips outright on the instruction cache.
        icache180 = measured["icache"][180]
        assert icache180["OPT-Drowsy"] > icache180["OPT-Sleep"]

    def test_figure9_prefetchability_bands(self, suite):
        from repro.experiments.figure9 import compute

        measured = compute(suite)
        # Paper: I-cache P-NL = 23 %; D-cache P-NL = 16.3 %, P-stride = 5.1 %.
        assert abs(measured["icache"]["nextline"] - 0.230) < 0.08
        assert measured["icache"]["stride"] < 0.02
        assert abs(measured["dcache"]["nextline"] - 0.163) < 0.08
        assert 0.005 < measured["dcache"]["stride"] < 0.12
        # Stride prefetching only matters on the data side (§5.1).
        assert measured["dcache"]["stride"] > measured["icache"]["stride"]

    def test_ablation_dead_intervals_small_delta(self, suite):
        result = run_experiment("ablation_dead_intervals", suite)
        for row in result.tables[0].rows:
            # §3.1: dead periods contribute little; the dead-aware delta
            # stays under 3 points.
            assert abs(float(row[3])) < 3.0

    def test_ablation_inflection_flat_near_b(self, suite):
        result = run_experiment("ablation_inflection", suite)
        rows = result.tables[0].rows
        for cache_column in (1, 2):
            base = float(rows[0][cache_column])
            near = float(rows[1][cache_column])  # 1.25x b
            assert abs(base - near) < 1.0

    def test_ablation_ramps_barely_move_the_limits(self, suite):
        result = run_experiment("ablation_ramps", suite)
        rows = {row[0]: row for row in result.tables[0].rows}
        # The step model inflates transition energy: b moves up with it.
        assert float(rows["step"][2]) >= float(rows["trapezoidal"][2])
        # The I-cache hybrid barely moves.
        assert abs(float(rows["step"][3]) - float(rows["trapezoidal"][3])) < 2.0

    def test_ablation_decay_counter_costs_savings(self, suite):
        result = run_experiment("ablation_decay_counter", suite)
        rows = result.tables[0].rows
        # Savings decrease monotonically with counter overhead.
        for column in (1, 2):
            values = [float(row[column]) for row in rows]
            assert values == sorted(values, reverse=True)

    def test_run_all_matches_results_scale1(self, suite):
        """The committed product file is exactly ``run all --scale 1.0``."""
        report = "\n\n\n".join(r.render() for r in run_all(suite)) + "\n"
        assert report.encode() == RESULTS_SCALE1.read_bytes()


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
            savings = measured[cache]["savings"]
            stalls = measured[cache]["stall_overhead"]
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
