"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one type to handle any library failure.  The subtypes
mirror the major subsystems: configuration, power modelling, interval
analysis, policy evaluation, simulation and tracing.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A configuration object was constructed with invalid parameters.

    Raised for things like a non-power-of-two cache size, a negative
    latency, or a technology node with a drowsy voltage above Vdd.
    """


class PowerModelError(ReproError):
    """A power model was asked for a quantity it cannot produce.

    Raised, for example, when a leakage model is evaluated for an unknown
    operating mode, or a calibration has no solution under the supplied
    circuit durations.
    """


class IntervalError(ReproError):
    """An interval or interval sequence violates its invariants.

    Raised for non-positive interval lengths, unsorted access times, or
    attempts to build intervals from fewer than the required accesses.
    """


class PolicyError(ReproError):
    """A leakage-management policy made or was asked for an invalid decision.

    Raised when a mode is assigned to an interval too short to be feasible
    under that mode (e.g. sleeping an interval shorter than the sleep
    transition time), or when a policy is evaluated against an energy model
    it was not built for.
    """


class SimulationError(ReproError):
    """The cache/CPU simulation reached an inconsistent state.

    Raised for malformed traces (time moving backwards), accesses outside
    the configured address space, or hierarchy misconfiguration discovered
    at run time.
    """


class TraceError(ReproError):
    """A trace file or trace stream could not be parsed or validated."""


class TraceFormatError(TraceError):
    """A recorded trace file violates the on-disk format.

    Raised for bad magic/version, truncated frames, per-chunk checksum
    mismatches, or a whole-trace digest that does not match the chunk
    stream.  Distinct from :class:`TraceError` so callers can tell
    corruption of a recorded artifact apart from malformed fixture input.
    """


class TraceValidationError(SimulationError):
    """A trace chunk fed to the simulation kernel violates its contract.

    Raised at the kernel entry (wrong column dtype/shape, unknown data
    kinds, inconsistent address columns, non-monotonic access times) so
    malformed external traces fail with a named, actionable error instead
    of deep inside the residual loop.
    """


class WorkloadRefError(ReproError):
    """A workload reference could not be parsed or resolved.

    Raised by :mod:`repro.traces.registry` for unknown benchmark names,
    malformed ``trace:`` refs, trace refs pointing at missing or
    unreadable files, and trace refs at a scale other than 1.0.
    """


class ExperimentError(ReproError):
    """An experiment harness was invoked with an unknown name or bad args."""


class EngineError(ReproError):
    """The execution engine was misconfigured or reached a broken state.

    Raised for invalid jobs (unknown benchmark, non-positive scale),
    invalid worker counts or timeouts, and engine-level invariants; pool
    and cache *failures* are handled by falling back, not by raising.
    """
