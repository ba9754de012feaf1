"""Prefetching: approximating the oracle's perfect future knowledge (§5).

The per-static-load stride predictor, the interval prefetchability
analysis behind Figure 9 (next-line and stride flags, judged in
retrospect), and the one prefetch-guided leakage policy behind Table 3's
Prefetch-A / Prefetch-B and the trade-off between them.
"""

from .analysis import (
    AnnotatedSimulationResult,
    AnnotatingSimulator,
    annotate_workload_trace,
)
from .schemes import (
    PrefetchGuidedPolicy,
    PrefetchSchemeReport,
    PrefetchabilityRow,
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
    "PrefetchabilityRow",
    "StrideEntry",
    "StridePredictor",
    "annotate_workload_trace",
    "prefetchability_breakdown",
    "prefetchability_summary",
]
