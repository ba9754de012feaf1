"""SimPoint substrate: BBV profiling, k-means, representative windows.

The reproduction's stand-in for the SimPoint toolchain the paper uses to
keep simulation time reasonable (§4.1); see DESIGN.md §3.6.
"""

from .bbv import BBVProfile, BBVProfiler, profile_trace
from .kmeans import choose_k, kmeans
from .simpoint import select_simpoints

__all__ = [
    "BBVProfile",
    "BBVProfiler",
    "choose_k",
    "kmeans",
    "profile_trace",
    "select_simpoints",
]
