"""Data-access patterns for synthetic workloads.

Each pattern is a *stateful* address generator: successive calls continue
where the previous batch stopped, so a workload phase revisited later in
the schedule resumes its sweep/stream/chase exactly as a real program
would.  All generators are vectorized (one numpy array per request) and
deterministic given their construction-time seed.

The four patterns cover the access classes the SPEC2000 suite exercises:

* :class:`SequentialStream` — gzip-style streaming through a buffer;
* :class:`StridedSweep` — ammp/applu-style repeated array sweeps
  (multi-dimensional arrays produce non-unit strides);
* :class:`ZipfReuse` — gcc/vortex-style skewed reuse over a heap;
* :class:`PointerChase` — linked-structure traversal along a fixed
  random cycle.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError


class DataPattern:
    """Interface: produce the next ``n`` byte addresses."""

    def addresses(self, n: int) -> np.ndarray:
        """Return ``n`` int64 byte addresses, advancing internal state."""
        raise NotImplementedError

    @staticmethod
    def _check_n(n: int) -> None:
        if n < 0:
            raise ConfigurationError(f"cannot generate {n!r} addresses")


class SequentialStream(DataPattern):
    """A forward stream through a (possibly wrapping) buffer.

    Parameters
    ----------
    base: starting byte address.
    element_bytes: stride between consecutive accesses.
    buffer_bytes: when given, the stream wraps at ``base + buffer_bytes``
        (an infinite stream never re-touches a line; a wrapped one gives
        every line a revisit interval of one full pass).
    """

    def __init__(
        self, base: int, element_bytes: int = 8, buffer_bytes: int | None = None
    ) -> None:
        if base < 0 or element_bytes <= 0:
            raise ConfigurationError(
                f"invalid stream parameters {(base, element_bytes)!r}"
            )
        if buffer_bytes is not None and buffer_bytes < element_bytes:
            raise ConfigurationError(
                f"buffer of {buffer_bytes} bytes cannot hold one "
                f"{element_bytes}-byte element"
            )
        self.base = base
        self.element_bytes = element_bytes
        self.buffer_bytes = buffer_bytes
        self._position = 0

    def addresses(self, n: int) -> np.ndarray:
        self._check_n(n)
        offsets = (self._position + np.arange(n, dtype=np.int64)) * self.element_bytes
        self._position += n
        if self.buffer_bytes is not None:
            offsets %= self.buffer_bytes
        return self.base + offsets


class StridedSweep(DataPattern):
    """Repeated sweeps over an array with a fixed element stride.

    One *sweep* touches ``n_elements`` addresses ``base, base+stride,
    ...``; the next sweep starts over, so a resident line's re-access
    interval equals one sweep period — the signature of the FP benchmarks
    (ammp, applu) the leakage literature singles out.
    """

    def __init__(self, base: int, n_elements: int, stride_bytes: int = 8) -> None:
        if base < 0 or n_elements <= 0 or stride_bytes <= 0:
            raise ConfigurationError(
                f"invalid sweep parameters {(base, n_elements, stride_bytes)!r}"
            )
        self.base = base
        self.n_elements = n_elements
        self.stride_bytes = stride_bytes
        self._position = 0

    def addresses(self, n: int) -> np.ndarray:
        self._check_n(n)
        indices = (self._position + np.arange(n, dtype=np.int64)) % self.n_elements
        self._position = (self._position + n) % self.n_elements
        return self.base + indices * self.stride_bytes


class ZipfReuse(DataPattern):
    """Skewed random reuse over a pool of cache lines.

    Line popularity follows a Zipf law with exponent ``alpha``: a few hot
    lines are touched constantly (short intervals) while the long tail is
    touched rarely (long intervals) — the integer-benchmark heap picture.
    """

    def __init__(
        self,
        base: int,
        n_lines: int,
        alpha: float = 1.1,
        line_bytes: int = 64,
        seed: int = 0,
    ) -> None:
        if base < 0 or n_lines <= 0 or line_bytes <= 0:
            raise ConfigurationError(
                f"invalid zipf parameters {(base, n_lines, line_bytes)!r}"
            )
        if alpha <= 0:
            raise ConfigurationError(f"zipf alpha must be positive, got {alpha!r}")
        self.base = base
        self.n_lines = n_lines
        self.line_bytes = line_bytes
        self._rng = np.random.default_rng(seed)
        weights = 1.0 / np.power(np.arange(1, n_lines + 1, dtype=np.float64), alpha)
        self._probabilities = weights / weights.sum()
        # A fixed random placement decouples popularity rank from address.
        self._placement = self._rng.permutation(n_lines).astype(np.int64)

    def addresses(self, n: int) -> np.ndarray:
        self._check_n(n)
        ranks = self._rng.choice(self.n_lines, size=n, p=self._probabilities)
        lines = self._placement[ranks]
        offsets = self._rng.integers(0, self.line_bytes, size=n, dtype=np.int64)
        return self.base + lines * self.line_bytes + offsets


class PointerChase(DataPattern):
    """Traversal of a fixed random cycle of nodes.

    Every node is visited once per lap, so intervals equal the lap time —
    linked-list behaviour with no spatial locality (each node sits on its
    own cache line by default).
    """

    def __init__(
        self, base: int, n_nodes: int, node_bytes: int = 64, seed: int = 0
    ) -> None:
        if base < 0 or n_nodes <= 0 or node_bytes <= 0:
            raise ConfigurationError(
                f"invalid chase parameters {(base, n_nodes, node_bytes)!r}"
            )
        self.base = base
        self.n_nodes = n_nodes
        self.node_bytes = node_bytes
        rng = np.random.default_rng(seed)
        # A single n-cycle: visit order is a fixed random permutation.
        self._order = rng.permutation(n_nodes).astype(np.int64)
        self._position = 0

    def addresses(self, n: int) -> np.ndarray:
        self._check_n(n)
        indices = (self._position + np.arange(n, dtype=np.int64)) % self.n_nodes
        self._position = (self._position + n) % self.n_nodes
        return self.base + self._order[indices] * self.node_bytes


class RotatingPattern(DataPattern):
    """Round-robin over several sub-patterns, advancing once per request.

    A workload phase asks its pattern for one batch per visit, so wrapping
    a phase's pools in a rotation makes each pool's *revisit period* a
    multiple of the schedule round — the mechanism behind the very long
    data-side intervals (hundreds of kilocycles) the D-cache exhibits.
    """

    def __init__(self, patterns: list) -> None:
        if not patterns:
            raise ConfigurationError("rotation needs at least one pattern")
        self.patterns = list(patterns)
        self._index = 0

    def addresses(self, n: int) -> np.ndarray:
        self._check_n(n)
        pattern = self.patterns[self._index]
        self._index = (self._index + 1) % len(self.patterns)
        return pattern.addresses(n)
