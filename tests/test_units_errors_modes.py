"""Tests for repro.units, repro.errors and repro.core.modes."""

import importlib

import pytest

import repro
from repro.core.modes import Mode
from repro.errors import (
    ConfigurationError,
    ExperimentError,
    IntervalError,
    PolicyError,
    PowerModelError,
    ReproError,
    SimulationError,
    TraceError,
)
from repro.units import (
    BOLTZMANN,
    DEFAULT_TEMPERATURE_K,
    ELECTRON_CHARGE,
    cycle_time_s,
    joules_to_leakage_cycles,
    thermal_voltage,
)


class TestErrors:
    @pytest.mark.parametrize(
        "subtype",
        [
            ConfigurationError,
            ExperimentError,
            IntervalError,
            PolicyError,
            PowerModelError,
            SimulationError,
            TraceError,
        ],
    )
    def test_all_derive_from_repro_error(self, subtype):
        assert issubclass(subtype, ReproError)

    def test_top_level_reexports(self):
        assert repro.ReproError is ReproError
        assert repro.PolicyError is PolicyError


class TestUnits:
    def test_thermal_voltage_room_temperature(self):
        assert thermal_voltage(300.0) == pytest.approx(0.02585, rel=1e-3)

    def test_thermal_voltage_default_is_hot(self):
        assert thermal_voltage() == pytest.approx(
            BOLTZMANN * DEFAULT_TEMPERATURE_K / ELECTRON_CHARGE
        )
        assert thermal_voltage() > thermal_voltage(300.0)

    def test_thermal_voltage_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            thermal_voltage(0)

    def test_cycle_time(self):
        assert cycle_time_s(2.0e9) == pytest.approx(0.5e-9)
        with pytest.raises(ConfigurationError):
            cycle_time_s(-1)

    def test_energy_conversion_roundtrip(self):
        # 1 nJ over a 1 uW line at 2 GHz: 1e-9 / (1e-6 * 0.5e-9) cycles.
        cycles = joules_to_leakage_cycles(1e-9, line_leakage_w=1e-6, frequency_hz=2e9)
        assert cycles == pytest.approx(2.0e6)

    def test_conversion_rejects_bad_leakage(self):
        with pytest.raises(ConfigurationError):
            joules_to_leakage_cycles(1.0, 0.0, 1e9)
        with pytest.raises(ConfigurationError):
            joules_to_leakage_cycles(1.0, -1.0, 1e9)


class TestModes:
    def test_three_modes(self):
        assert {m.value for m in Mode} == {"active", "drowsy", "sleep"}


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_subpackages_importable(self):
        for name in ("cache", "core", "cpu", "experiments", "power",
                     "prefetch", "workloads"):
            assert hasattr(repro, name)

    def test_core_public_api(self):
        from repro import core

        for symbol in core.__all__:
            assert hasattr(core, symbol), symbol

    def test_power_public_api(self):
        from repro import power

        for symbol in power.__all__:
            assert hasattr(power, symbol), symbol

    def test_prefetch_public_api(self):
        from repro import prefetch

        for symbol in prefetch.__all__:
            assert hasattr(prefetch, symbol), symbol

    @pytest.mark.parametrize(
        "name",
        ["cache", "cpu", "engine", "experiments", "sweep", "traces", "workloads"],
    )
    def test_subpackage_public_api(self, name):
        # Lazy packages resolve a name only on first use, so a stale
        # re-export of a deleted name would otherwise go unnoticed.
        package = importlib.import_module(f"repro.{name}")
        for symbol in package.__all__:
            assert hasattr(package, symbol), f"repro.{name}.{symbol}"
