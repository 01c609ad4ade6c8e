"""Unit tests for simulation time helpers."""

import pytest

from repro.kernel import time as ktime


class TestConversions:
    def test_ns_is_thousand_ps(self):
        assert ktime.ns(1) == 1_000

    def test_us_is_million_ps(self):
        assert ktime.us(1) == 1_000_000

    def test_ms(self):
        assert ktime.ms(2) == 2_000_000_000

    def test_seconds(self):
        assert ktime.seconds(1) == 1_000_000_000_000

    def test_fractional_ns_rounds(self):
        assert ktime.ns(0.5) == 500
        assert ktime.ns(0.0004) == 0

    def test_ps_identity(self):
        assert ktime.ps(123) == 123


class TestFrequency:
    def test_10mhz_period(self):
        assert ktime.period_from_frequency_hz(10e6) == ktime.ns(100)

    def test_smartcard_contactless_13_56mhz(self):
        period = ktime.period_from_frequency_hz(13.56e6)
        assert period == pytest.approx(73746, abs=1)

    def test_zero_frequency_rejected(self):
        with pytest.raises(ValueError):
            ktime.period_from_frequency_hz(0)

    def test_negative_frequency_rejected(self):
        with pytest.raises(ValueError):
            ktime.period_from_frequency_hz(-1e6)


class TestFormatting:
    def test_zero(self):
        assert ktime.format_time(0) == "0 s"

    def test_ps_range(self):
        assert ktime.format_time(500) == "500 ps"

    def test_ns_range(self):
        assert ktime.format_time(1500) == "1.500 ns"

    def test_us_range(self):
        assert ktime.format_time(2_500_000) == "2.500 us"

    def test_ms_range(self):
        assert ktime.format_time(3_000_000_000) == "3.000 ms"

    def test_s_range(self):
        assert ktime.format_time(1_500_000_000_000) == "1.500 s"
