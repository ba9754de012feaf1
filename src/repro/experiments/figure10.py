"""Figure 10: energy vs interval length — the three-mode lower envelope."""

from __future__ import annotations

from ..core.energy import ModeEnergyModel
from ..core.envelope import envelope_series
from ..core.inflection import inflection_points
from ..power.technology import paper_nodes
from .reporting import ExperimentResult, Table, fmt_ratio


def run(feature_nm: int = 70, n_points: int = 16) -> ExperimentResult:
    """Regenerate the Figure 10 curve data for one technology node."""
    model = ModeEnergyModel(paper_nodes()[feature_nm])
    points = inflection_points(model)
    series = envelope_series(model, max_length=20_000, n_points=n_points)
    rows = []
    for length, active, drowsy, sleep in series:
        best = min(
            value for value in (active, drowsy, sleep) if value == value
        )  # NaN-safe min
        rows.append(
            [
                f"{length:.0f}",
                fmt_ratio(active, 1),
                fmt_ratio(drowsy, 1) if drowsy == drowsy else "-",
                fmt_ratio(sleep, 1) if sleep == sleep else "-",
                fmt_ratio(best, 1),
            ]
        )
    table = Table(
        title=f"Figure 10 — per-mode interval energy at {feature_nm}nm "
        "(active-leakage-cycles)",
        headers=["interval", "active", "drowsy", "sleep", "envelope"],
        rows=rows,
    )
    return ExperimentResult(
        name="figure10",
        description="Energy consumption of the three operating modes and their lower envelope",
        tables=[table],
        notes=[
            f"inflection points: a={points.active_drowsy}, b={points.drowsy_sleep:.0f}",
            f"region slopes P1={model.p_active:.3f}, P2={model.p_drowsy:.3f}, "
            f"P3={model.p_sleep:.4f}",
            f"Lemma 1 (a < b) holds: {points.active_drowsy < points.drowsy_sleep}",
        ],
    )
