"""Prefetching: approximating the oracle's perfect future knowledge (§5).

The per-static-load stride predictor, the interval prefetchability
analysis behind Figure 9 (next-line and stride flags, judged in
retrospect), and the Prefetch-A / Prefetch-B leakage schemes of Table 3.
"""

from .analysis import (
    AnnotatedSimulationResult,
    AnnotatingSimulator,
    annotate_workload_trace,
)
from .schemes import (
    PrefetchGuidedPolicy,
    PrefetchSchemeReport,
    PrefetchTradeoff,
    PrefetchabilityRow,
    TradeoffPoint,
    evaluate_prefetch_scheme,
    prefetch_tradeoff_curve,
    prefetchability_breakdown,
    prefetchability_summary,
)
from .stride import CONFIRMATIONS_REQUIRED, StrideEntry, StridePredictor

__all__ = [
    "AnnotatedSimulationResult",
    "AnnotatingSimulator",
    "CONFIRMATIONS_REQUIRED",
    "PrefetchGuidedPolicy",
    "PrefetchSchemeReport",
    "PrefetchTradeoff",
    "PrefetchabilityRow",
    "StrideEntry",
    "StridePredictor",
    "TradeoffPoint",
    "annotate_workload_trace",
    "evaluate_prefetch_scheme",
    "prefetch_tradeoff_curve",
    "prefetchability_breakdown",
    "prefetchability_summary",
]
