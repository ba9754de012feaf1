"""Tests for repro.cache.decay — the functional cache-decay scheme.

The key test cross-validates the mechanism against the analytic
DecaySleep pricing on identical access streams.
"""

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheConfig
from repro.cache.decay import DecayCache
from repro.core.policy import DecaySleep
from repro.core.savings import evaluate_policy
from repro.errors import ConfigurationError, SimulationError
from repro.prefetch.analysis import _CacheAnnotator


@pytest.fixture()
def config():
    # 16 sets x 2 ways of 64B lines.
    return CacheConfig("decay", 2048, 64, 2, 1)


class TestMechanism:
    def test_short_gaps_stay_hits(self, config, model70):
        cache = DecayCache(config, model70, decay_interval=1000)
        assert cache.access(0, 0) is False          # compulsory miss
        assert cache.access(0, 500) is True         # within decay: hit
        assert cache.induced_misses == 0

    def test_long_gap_induces_miss(self, config, model70):
        cache = DecayCache(config, model70, decay_interval=1000)
        cache.access(0, 0)
        assert cache.access(0, 5000) is False       # gated away
        assert cache.induced_misses == 1
        assert cache.gated_cycles == 4000

    def test_gating_starts_after_decay_interval(self, config, model70):
        cache = DecayCache(config, model70, decay_interval=1000)
        cache.access(0, 0)
        cache.access(0, 999)                         # just under: no gating
        assert cache.gated_cycles == 0
        cache.access(0, 2100)                        # gated at 1999
        assert cache.gated_cycles == 2100 - 1999

    def test_time_reversal_rejected(self, config, model70):
        cache = DecayCache(config, model70)
        cache.access(0, 100)
        with pytest.raises(SimulationError):
            cache.access(1, 50)

    def test_finish_accounts_unused_frames_as_gated(self, config, model70):
        cache = DecayCache(config, model70, decay_interval=1000)
        cache.access(0, 0)
        cache.finish(10_000)
        report = cache.energy_report()
        # 31 untouched frames gated the whole run + frame 0's tail.
        assert report.gated_cycles >= 31 * 10_000
        assert report.baseline_energy == pytest.approx(32 * 10_000)

    def test_tiny_decay_interval_rejected(self, config, model70):
        with pytest.raises(ConfigurationError):
            DecayCache(config, model70, decay_interval=2)


class TestCrossValidation:
    """The functional mechanism must agree with the analytic pricing."""

    def _stream(self, rng, n=4000):
        """A reuse-heavy random stream over 64 blocks with long pauses."""
        events = []
        time = 0
        for _ in range(n):
            time += int(rng.choice([3, 40, 900, 30_000], p=[0.55, 0.3, 0.1, 0.05]))
            events.append((int(rng.integers(0, 64)), time))
        return events

    def _intervals(self, config, events, end_time):
        """A plain cache's intervals, closed by the scalar path's collector."""
        cache = SetAssociativeCache(config)
        collector = _CacheAnnotator(config.n_lines, floor=6)
        for block, time in events:
            hit, frame = cache.access_block_ex(block, time)
            collector.observe(block, frame, time, hit, False)
        return collector.population(end_time)

    def test_savings_match_analytic_decay_sleep(self, config, model70, rng):
        events = self._stream(rng)
        end_time = events[-1][1] + 1

        functional = DecayCache(config, model70, decay_interval=10_000)
        for block, time in events:
            functional.access(block, time)
        functional.finish(end_time)
        report = functional.energy_report()

        intervals = self._intervals(config, events, end_time).as_normal()
        analytic = evaluate_policy(
            DecaySleep(model70, 10_000, counter_overhead=0.0), intervals
        )

        # The mechanism cannot express the paper's just-in-time wake
        # bookkeeping exactly (s4 window, sub-ramp gated spans), so allow
        # a small tolerance.
        assert report.saving_fraction == pytest.approx(
            analytic.saving_fraction, abs=0.02
        )

    def test_induced_misses_match_long_interval_count(self, config, model70, rng):
        events = self._stream(rng)
        end_time = events[-1][1] + 1

        functional = DecayCache(config, model70, decay_interval=10_000)
        for block, time in events:
            functional.access(block, time)
        functional.finish(end_time)

        intervals = self._intervals(config, events, end_time)
        # Induced misses = hits whose frame gap exceeded the decay
        # interval = NORMAL intervals longer than the decay interval.
        long_normals = (intervals.lengths > 10_000) & (intervals.kinds == 0)
        assert functional.induced_misses == int(intervals.counts[long_normals].sum())
