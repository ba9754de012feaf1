"""Cache substrate: set-associative caches, the hierarchy, the batched kernel.

This subpackage stands in for the memory system of the paper's
SimpleScalar/Alpha-21264 setup (§4.1): 64 KB 2-way L1I (1-cycle), 64 KB
2-way L1D (3-cycle), 2 MB direct-mapped unified L2 (7-cycle), LRU
replacement, 64 B lines.

Every name is re-exported lazily, on first use: a run that never models
a decay cache never loads it.
"""

from __future__ import annotations

from importlib import import_module

#: Re-exported name -> the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(("INVALID", "SetAssociativeCache"), "cache"),
    **dict.fromkeys(
        ("COUNTER_LIMIT", "DecayCache", "DecayEnergyReport"), "decay"
    ),
    **dict.fromkeys(
        (
            "CacheConfig",
            "paper_l1d_config",
            "paper_l1i_config",
            "paper_l2_config",
        ),
        "config",
    ),
    **dict.fromkeys(("HierarchyConfig", "MemoryHierarchy"), "hierarchy"),
    **dict.fromkeys(
        (
            "FifoPolicy",
            "LruPolicy",
            "RandomPolicy",
            "ReplacementPolicy",
            "make_replacement_policy",
        ),
        "replacement",
    ),
    **dict.fromkeys(("CacheStats", "HierarchyStats"), "stats"),
}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


__all__ = sorted(_EXPORTS)
