"""CLI tests and end-to-end integration checks against the paper."""

import pytest

from repro.cli import build_parser, main
from repro.core import (
    ModeEnergyModel,
    OptDrowsy,
    OptHybrid,
    OptSleep,
    evaluate_policy,
    inflection_points,
)
from repro.power import paper_nodes
from repro.prefetch import PrefetchGuidedPolicy, annotate_workload_trace
from repro.workloads import make_benchmark


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "figure8" in out

    def test_static_experiment(self, capsys):
        assert main(["table1"]) == 0
        assert "1057" in capsys.readouterr().out

    def test_unknown_experiment_errors(self, capsys):
        assert main(["figure99"]) == 2
        assert "error" in capsys.readouterr().err

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "out.txt"
        assert main(["figure1", "--output", str(target)]) == 0
        capsys.readouterr()
        assert "Figure 1" in target.read_text()

    def test_parser_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.scale == 1.0 and args.benchmarks is None


class TestEndToEnd:
    """One benchmark, the full pipeline, checked against paper structure."""

    @pytest.fixture(scope="class")
    def gzip_annotated(self):
        return annotate_workload_trace(make_benchmark("gzip", scale=0.15).chunks())

    @pytest.fixture(scope="class")
    def gzip_run(self, gzip_annotated):
        return gzip_annotated.result

    def test_hybrid_beats_parts_on_real_intervals(self, gzip_run, model70):
        for intervals in (gzip_run.l1i_intervals, gzip_run.l1d_intervals):
            intervals = intervals.as_normal()
            hybrid = evaluate_policy(OptHybrid(model70), intervals).saving_fraction
            drowsy = evaluate_policy(OptDrowsy(model70), intervals).saving_fraction
            sleep = evaluate_policy(OptSleep(model70), intervals).saving_fraction
            assert hybrid >= max(drowsy, sleep) - 1e-9
            assert hybrid > 0.9

    def test_savings_in_paper_neighborhood(self, gzip_run, model70):
        # Even one benchmark at reduced scale should land within ~8 points
        # of the paper's headline 96.4% / 99.1% hybrid limits.
        for intervals, target in (
            (gzip_run.l1i_intervals, 0.964),
            (gzip_run.l1d_intervals, 0.991),
        ):
            saving = evaluate_policy(
                OptHybrid(model70), intervals.as_normal()
            ).saving_fraction
            assert abs(saving - target) < 0.08

    def test_prefetch_b_between_decay_and_hybrid(self, gzip_annotated, model70):
        from repro.core import DecaySleep

        for view in (gzip_annotated.l1i, gzip_annotated.l1d):
            view = view.as_normal()
            decay = evaluate_policy(DecaySleep(model70, 10_000), view).saving_fraction
            hybrid = evaluate_policy(OptHybrid(model70), view).saving_fraction
            b = PrefetchGuidedPolicy(model70, model70.drowsy_min_length).price(view)
            assert decay - 0.02 <= b.savings.saving_fraction <= hybrid + 1e-9

    def test_technology_scaling_direction(self, gzip_run):
        nodes = paper_nodes()
        savings = []
        for nm in (70, 100, 130, 180):
            model = ModeEnergyModel(nodes[nm])
            savings.append(
                evaluate_policy(
                    OptHybrid(model), gzip_run.l1i_intervals.as_normal()
                ).saving_fraction
            )
        assert savings == sorted(savings, reverse=True)

    def test_inflection_points_drive_the_policy(self, gzip_run, model70):
        points = inflection_points(model70)
        policy = OptHybrid(model70)
        lengths = gzip_run.l1i_intervals.lengths[:1000]
        codes = policy.modes(lengths)
        for length, code in zip(lengths, codes):
            # (0, a] active, (a, b] drowsy, (b, inf) sleep.
            expected = int(length > points.active_drowsy) + int(
                length > points.drowsy_sleep
            )
            assert code == expected
