"""ITRS leakage-fraction projection (the paper's Figure 1).

Figure 1 plots the International Technology Roadmap for Semiconductors
projection of leakage power as a fraction of total power from 1999 to
2009.  The roadmap itself is a table of per-year device targets; the
qualitative curve the paper reproduces is the S-shaped takeover of static
power.  We model it two ways:

* :data:`ITRS_ANCHORS` — per-year anchor fractions matching the shape of
  the published curve (leakage rising from a few percent in 1999 to the
  majority of total power by decade's end);
* :func:`leakage_fraction` — a logistic fit through the anchors, usable at
  fractional years and for extrapolation in examples.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from ..errors import ConfigurationError

#: Anchor points (year -> leakage/total fraction) tracing the ITRS curve
#: the paper reproduces in Figure 1.
ITRS_ANCHORS: Dict[int, float] = {
    1999: 0.06,
    2001: 0.12,
    2003: 0.25,
    2005: 0.45,
    2007: 0.62,
    2009: 0.72,
}

#: Logistic parameters fit to the anchors: fraction(year) =
#: CEILING / (1 + exp(-RATE * (year - MIDPOINT))).
_LOGISTIC_CEILING = 0.78
_LOGISTIC_RATE = 0.55
_LOGISTIC_MIDPOINT = 2005.1


def leakage_fraction(year: float) -> float:
    """Projected leakage/total power fraction for a (fractional) year."""
    if year < 1990 or year > 2030:
        raise ConfigurationError(
            f"ITRS projection is only meaningful near the roadmap years, got {year!r}"
        )
    return _LOGISTIC_CEILING / (
        1.0 + math.exp(-_LOGISTIC_RATE * (year - _LOGISTIC_MIDPOINT))
    )


def projection_series(
    start: int = 1999, end: int = 2009, step: int = 2
) -> List[Tuple[int, float]]:
    """The Figure 1 series: (year, leakage fraction) pairs."""
    if end < start or step <= 0:
        raise ConfigurationError(
            f"invalid projection range {(start, end, step)!r}"
        )
    return [(year, leakage_fraction(year)) for year in range(start, end + 1, step)]

