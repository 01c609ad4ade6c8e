"""Unit tests for energy/power unit helpers."""

import pytest

from repro.power import units


class TestTransitionEnergy:
    def test_one_pf_at_1v8(self):
        # E = 0.5 * 1e-12 F * 1.8^2 = 1.62 pJ
        assert units.transition_energy_pj(1000.0) == pytest.approx(1.62)

    def test_scales_linearly_with_capacitance(self):
        one = units.transition_energy_pj(100.0)
        two = units.transition_energy_pj(200.0)
        assert two == pytest.approx(2 * one)

    def test_scales_quadratically_with_voltage(self):
        low = units.transition_energy_pj(100.0, vdd=1.0)
        high = units.transition_energy_pj(100.0, vdd=2.0)
        assert high == pytest.approx(4 * low)

    def test_negative_capacitance_rejected(self):
        with pytest.raises(ValueError):
            units.transition_energy_pj(-1.0)


class TestPower:
    def test_average_power(self):
        # 100 pJ over 100 ns = 1 mW
        assert units.average_power_mw(100.0, 100_000) == pytest.approx(1.0)

    def test_zero_duration_rejected(self):
        with pytest.raises(ValueError):
            units.average_power_mw(1.0, 0)

    def test_supply_current(self):
        # 1 mW at 1.8 V -> 0.5556 mA
        current = units.supply_current_ma(100.0, 100_000, vdd=1.8)
        assert current == pytest.approx(1.0 / 1.8)
