"""Operating modes of a cache line.

The paper's limit analysis assigns exactly one of three operating modes to
every cache access interval (Theorem 1):

* :data:`Mode.ACTIVE` — full Vdd, data immediately accessible, full leakage.
* :data:`Mode.DROWSY` — reduced retention voltage; state is preserved but
  the line must be ramped back to Vdd (``d3`` cycles) before an access.
* :data:`Mode.SLEEP` — Gated-Vdd; leakage is almost eliminated but the
  state is destroyed, so the line must be re-fetched from L2 (an *induced
  miss*) before the next access.
"""

from __future__ import annotations

import enum


class Mode(enum.Enum):
    """Operating mode assigned to one cache access interval."""

    ACTIVE = "active"
    DROWSY = "drowsy"
    SLEEP = "sleep"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value
