"""Fault-domain primitives for worker hosts: circuit breakers and flaps.

The framed-worker backend (:mod:`~repro.engine.backends`) gives every
host one :class:`CircuitBreaker` and one :class:`FlapCounter`:

* the breaker is ``closed`` until ``REPRO_BREAKER_THRESHOLD``
  consecutive infrastructure failures (a worker died, a connect was
  refused, heartbeats went silent), then ``open`` — the host is skipped —
  until its cooldown passes, then ``half-open``: one probe dispatch
  either closes it again or re-opens it with an escalated cooldown;
* the flap counter tallies hard worker deaths and decays over quiet
  periods, so only *sustained* flapping rests a host.

Every breaker transition is recorded and lands in the run manifest's
``workers`` section, so a degraded run explains itself.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

from .retry import _env_int

#: Environment variable: consecutive infra failures that open a breaker.
ENV_BREAKER_THRESHOLD = "REPRO_BREAKER_THRESHOLD"

#: Default failure threshold (closed -> open).
DEFAULT_BREAKER_THRESHOLD = 3


def default_breaker_threshold() -> int:
    """Breaker threshold from ``REPRO_BREAKER_THRESHOLD`` (default 3)."""
    value = _env_int(ENV_BREAKER_THRESHOLD, minimum=1)
    return DEFAULT_BREAKER_THRESHOLD if value is None else value


#: Cap on the half-open backoff exponent: a breaker that keeps failing
#: its probes waits at most ``cooldown * 2**_MAX_REOPEN_SHIFT``.
_MAX_REOPEN_SHIFT = 6


class CircuitBreaker:
    """Closed -> open -> half-open failure gate for one host.

    ``clock`` defaults to wall time; the worker backend passes the
    host's dispatch-opportunity counter instead, which makes probe
    scheduling deterministic (the Nth opportunity probes, whatever the
    wall clock did in between).

    A single successful half-open probe closes the breaker and resets
    the backoff schedule.  A *failed* probe re-opens it with the next
    backoff step — ``cooldown * 2**reopens``, capped — instead of
    restarting the schedule from the base cooldown, so a persistently
    sick host is probed geometrically less often.
    """

    def __init__(
        self,
        name: str,
        threshold: int,
        cooldown: float,
        transitions: Optional[List[Dict]] = None,
        clock=time.monotonic,
    ) -> None:
        self.name = name
        self.threshold = threshold
        self.cooldown = cooldown
        self.clock = clock
        self.state = "closed"
        self.consecutive_failures = 0
        #: How many times a failed probe re-opened the breaker since it
        #: last closed; drives the escalating half-open backoff.
        self.reopens = 0
        self._opened_at: Optional[float] = None
        #: Transition log (the host state passes its own).
        self.transitions = transitions if transitions is not None else []

    def current_cooldown(self) -> float:
        """The wait before the next half-open probe (escalates on failure)."""
        return self.cooldown * (2 ** min(self.reopens, _MAX_REOPEN_SHIFT))

    def _move(self, state: str, reason: str) -> None:
        self.transitions.append(
            {
                "breaker": self.name,
                "from": self.state,
                "to": state,
                "reason": reason,
                "consecutive_failures": self.consecutive_failures,
            }
        )
        self.state = state

    def allow(self) -> bool:
        """Whether the next dispatch may use this host."""
        if self.state == "open":
            if (
                self._opened_at is not None
                and self.clock() - self._opened_at >= self.current_cooldown()
            ):
                self._move("half-open", "cooldown elapsed; probing")
                return True
            return False
        return True  # closed, or half-open with the probe in flight

    def record(self, infra_failures: Sequence[str]) -> None:
        """Feed one dispatch's infrastructure failures back in."""
        if infra_failures:
            self.consecutive_failures += len(infra_failures)
            if self.state == "half-open":
                self.reopens += 1
                self._opened_at = self.clock()
                self._move(
                    "open",
                    f"probe failed ({infra_failures[0]}); next probe in "
                    f"{self.current_cooldown():g}",
                )
            elif (
                self.state == "closed"
                and self.consecutive_failures >= self.threshold
            ):
                self._opened_at = self.clock()
                self._move(
                    "open",
                    f"{self.consecutive_failures} consecutive "
                    f"infrastructure failure(s), last: {infra_failures[-1]}",
                )
        else:
            self.consecutive_failures = 0
            self.reopens = 0
            if self.state != "closed":
                self._move("closed", "dispatch completed cleanly")


class FlapCounter:
    """Flap tally that halves after every clean quiet period.

    The worker backend counts each host's flaps (hard worker deaths) to
    decide when a fault domain is too sick to keep feeding.
    A plain monotone counter would let one early flap bias a long run
    toward quarantine forever; this counter instead halves for every
    ``decay_after`` seconds that pass without a new flap, so only
    *sustained* flapping accumulates.
    """

    def __init__(self, decay_after: float, clock=time.monotonic) -> None:
        if decay_after < 0:
            raise ValueError(
                f"decay_after must be non-negative, got {decay_after!r}"
            )
        self.decay_after = decay_after
        self.clock = clock
        self._count = 0
        self._last_flap: Optional[float] = None

    def _decay(self) -> None:
        if self._last_flap is None or self.decay_after <= 0:
            return
        elapsed = self.clock() - self._last_flap
        periods = int(elapsed // self.decay_after)
        if periods <= 0:
            return
        # Halve once per fully elapsed quiet period; advance the anchor
        # by the consumed periods so partial periods keep accumulating.
        self._count >>= min(periods, self._count.bit_length())
        self._last_flap += periods * self.decay_after

    def record(self) -> int:
        """Count one flap; returns the post-decay running value."""
        self._decay()
        self._count += 1
        self._last_flap = self.clock()
        return self._count

    def value(self) -> int:
        """The current (decayed) flap count."""
        self._decay()
        return self._count
