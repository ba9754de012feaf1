"""Per-static-load stride prediction (Farkas et al. [3]).

The paper's stride-based prefetching examines access patterns *per static
load*: a reference-prediction table keyed by the load's PC holds the last
address and the last observed stride, and an access counts as a *stride
access* once the same stride has been seen at least twice for that PC.
This module implements that table and the
confirmed-twice rule for the scalar prefetchability analysis (was this
access predictable when it issued?).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigurationError

#: Number of identical strides required before predictions are trusted.
CONFIRMATIONS_REQUIRED = 2


@dataclass
class StrideEntry:
    """Reference-prediction-table row for one static load."""

    last_address: int
    stride: int = 0
    confirmations: int = 0

    @property
    def confident(self) -> bool:
        """Whether the stride has been seen often enough to predict."""
        return self.confirmations >= CONFIRMATIONS_REQUIRED


class StridePredictor:
    """Reference prediction table keyed by load PC.

    Parameters
    ----------
    capacity:
        Maximum tracked static loads; least-recently-used entries are
        evicted beyond it (None = unbounded, fine for synthetic traces
        whose static-load population is small).
    """

    def __init__(self, capacity: Optional[int] = 4096) -> None:
        if capacity is not None and capacity <= 0:
            raise ConfigurationError(
                f"stride table capacity must be positive or None, got {capacity!r}"
            )
        self.capacity = capacity
        self._table: "OrderedDict[int, StrideEntry]" = OrderedDict()

    def access(self, pc: int, address: int) -> bool:
        """Observe one load and report whether it was predicted.

        Returns True when, *before* this observation, the table held a
        confident stride for ``pc`` whose prediction matches ``address``
        — the paper's criterion for a stride access.  The table is then
        trained with the observation.
        """
        entry = self._table.get(pc)
        predicted = False
        if entry is not None:
            predicted = (
                entry.confident and entry.last_address + entry.stride == address
            )
            stride = address - entry.last_address
            if stride == entry.stride:
                entry.confirmations += 1
            else:
                entry.stride = stride
                entry.confirmations = 1
            entry.last_address = address
            self._table.move_to_end(pc)
        else:
            self._table[pc] = StrideEntry(last_address=address)
            if self.capacity is not None and len(self._table) > self.capacity:
                self._table.popitem(last=False)
        return predicted

    def __len__(self) -> int:
        return len(self._table)
