"""Per-job retry with deterministic exponential backoff.

A :class:`RetryPolicy` decides how many times one job may be attempted
and how long to wait between attempts.  Delays are jitter-free — the
schedule is a pure function of the attempt number — so a run that
retries is exactly as reproducible as a run that does not: retries
change *when* a deterministic simulation executes, never what it
computes.

The policy is shared by the framed-worker backend
(:class:`~repro.engine.backends.WorkerBackend`), which requeues a
failed, timed-out or orphaned job instead of giving up on its host, and
by the serial executor, which re-attempts a job in-process before
declaring it permanently failed.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Optional

from ..errors import EngineError

#: Environment variable overriding the maximum attempts per job.
ENV_RETRIES = "REPRO_RETRIES"

#: Environment variable overriding the base backoff delay in seconds.
ENV_RETRY_DELAY = "REPRO_RETRY_DELAY"

#: Default attempt budget per job (1 initial try + 2 retries).
DEFAULT_MAX_ATTEMPTS = 3

#: Default backoff before the second attempt, in seconds.
DEFAULT_BASE_DELAY = 0.05


@dataclass(frozen=True)
class RetryPolicy:
    """How often and how patiently one job is re-attempted.

    ``max_attempts`` bounds the total tries (so ``1`` disables retries);
    the delay before attempt *n* is
    ``min(base_delay * multiplier ** (n - 2), max_delay)`` — exponential
    in the attempt number and deliberately jitter-free, so two runs that
    hit the same faults wait the same amounts of time.
    """

    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    base_delay: float = DEFAULT_BASE_DELAY
    multiplier: float = 2.0
    max_delay: float = 10.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise EngineError(
                f"max_attempts must be at least 1, got {self.max_attempts!r}"
            )
        if self.base_delay < 0:
            raise EngineError(
                f"base_delay must be non-negative, got {self.base_delay!r}"
            )
        if self.multiplier < 1:
            raise EngineError(
                f"multiplier must be at least 1, got {self.multiplier!r}"
            )
        if self.max_delay < 0:
            raise EngineError(
                f"max_delay must be non-negative, got {self.max_delay!r}"
            )

    def retries_left(self, attempt: int) -> bool:
        """Whether a job that just failed attempt ``attempt`` may retry."""
        return attempt < self.max_attempts

    def delay_before(self, attempt: int) -> float:
        """Seconds to wait before attempt ``attempt`` (1-based; 0 for the first)."""
        if attempt <= 1:
            return 0.0
        return min(
            self.base_delay * self.multiplier ** (attempt - 2), self.max_delay
        )

    def describe(self) -> dict:
        """JSON-ready summary for the run manifest."""
        return {
            "max_attempts": self.max_attempts,
            "base_delay": self.base_delay,
            "multiplier": self.multiplier,
            "max_delay": self.max_delay,
        }


def _env_int(name: str, minimum: int) -> Optional[int]:
    raw = os.environ.get(name)
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise EngineError(
            f"{name} must be an integer, got {raw!r}"
        ) from None
    if value < minimum:
        raise EngineError(f"{name} must be at least {minimum}, got {value!r}")
    return value


def _env_float(name: str, minimum: float) -> Optional[float]:
    raw = os.environ.get(name)
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        raise EngineError(
            f"{name} must be a number of seconds, got {raw!r}"
        ) from None
    if not math.isfinite(value):
        raise EngineError(f"{name} must be a finite number, got {raw!r}")
    if value < minimum:
        raise EngineError(f"{name} must be at least {minimum}, got {value!r}")
    return value


def default_retry_policy() -> RetryPolicy:
    """The retry policy from ``REPRO_RETRIES`` / ``REPRO_RETRY_DELAY``."""
    attempts = _env_int(ENV_RETRIES, minimum=1)
    delay = _env_float(ENV_RETRY_DELAY, minimum=0.0)
    kwargs = {}
    if attempts is not None:
        kwargs["max_attempts"] = attempts
    if delay is not None:
        kwargs["base_delay"] = delay
    return RetryPolicy(**kwargs)
