"""Unit tests for power traces, the Figure-6 sampling profiler and the
SPA/DPA leakage metrics."""

import pytest

from repro.power import PowerTrace, SamplingProfiler
from repro.power.interfaces import EnergyAccumulator, PowerInterface
from repro.power import security


class TestPowerTrace:
    def test_validation(self):
        with pytest.raises(ValueError):
            PowerTrace(0)

    def test_total_energy(self):
        trace = PowerTrace(100_000, [1.0, 2.0, 3.0])
        assert trace.total_energy_pj == pytest.approx(6.0)

    def test_average_power(self):
        # 300 pJ over 3 cycles x 100 ns = 1 mW
        trace = PowerTrace(100_000, [100.0, 100.0, 100.0])
        assert trace.average_power_mw() == pytest.approx(1.0)

    def test_empty_trace_power_is_zero(self):
        trace = PowerTrace(100_000)
        assert trace.average_power_mw() == 0.0
        assert trace.peak_cycle_power_mw() == 0.0

    def test_peak_cycle_power(self):
        trace = PowerTrace(100_000, [10.0, 500.0, 10.0])
        assert trace.peak_cycle_power_mw() == pytest.approx(5.0)

    def test_windowed_average(self):
        trace = PowerTrace(100_000, [100.0, 200.0, 300.0, 400.0])
        windows = trace.windowed_average_mw(2)
        assert len(windows) == 3
        assert windows[0] == pytest.approx(1.5)  # (100+200)/200ns
        assert windows[-1] == pytest.approx(3.5)

    def test_window_larger_than_trace(self):
        trace = PowerTrace(100_000, [1.0])
        assert trace.windowed_average_mw(5) == []

    def test_window_validation(self):
        with pytest.raises(ValueError):
            PowerTrace(100_000, [1.0]).windowed_average_mw(0)

    def test_current_limit_check(self):
        # 900 pJ/100ns = 9 mW = 5 mA at 1.8 V -> over a 4 mA budget
        trace = PowerTrace(100_000, [90.0, 900.0, 90.0])
        violations = trace.check_current_limit(limit_ma=4.0, window=1)
        assert violations == [1]

    def test_current_limit_pass(self):
        trace = PowerTrace(100_000, [10.0, 10.0])
        assert trace.check_current_limit(10.0, window=1) == []


class FakeModel(PowerInterface):
    def __init__(self):
        self._acc = EnergyAccumulator()

    def add(self, energy):
        self._acc.add(energy)

    @property
    def total_energy_pj(self):
        return self._acc.total

    def energy_since_last_call_pj(self):
        return self._acc.since_last_call()


class TestSamplingProfiler:
    def test_samples_capture_deltas(self):
        model = FakeModel()
        profiler = SamplingProfiler(model)
        model.add(5.0)
        s1 = profiler.sample(cycle=10)
        model.add(7.0)
        s2 = profiler.sample(cycle=20)
        assert s1.energy_pj == pytest.approx(5.0)
        assert s2.energy_pj == pytest.approx(7.0)
        assert profiler.total_energy_pj == pytest.approx(12.0)


class TestSpa:
    def test_identical_traces_indistinguishable(self):
        trace = [1.0, 2.0, 3.0]
        assert security.spa_distinguishability(trace, trace) == 0.0

    def test_different_traces_distinguishable(self):
        a = [1.0, 5.0, 1.0]
        b = [1.0, 1.0, 1.0]
        score = security.spa_distinguishability(a, b)
        assert score == pytest.approx(4.0 / 5.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            security.spa_distinguishability([1.0], [1.0, 2.0])

    def test_all_zero_traces(self):
        assert security.spa_distinguishability([0.0], [0.0]) == 0.0


class TestDpa:
    def test_leaky_cycle_detected(self):
        # cycle 1 depends on the selection bit, others do not
        traces = [[1.0, 10.0, 1.0], [1.0, 2.0, 1.0],
                  [1.0, 10.0, 1.0], [1.0, 2.0, 1.0]]
        bits = [1, 0, 1, 0]
        diff = security.dpa_difference_of_means(traces, bits)
        assert diff[0] == pytest.approx(0.0)
        assert diff[1] == pytest.approx(8.0)
        assert security.max_abs(diff) == pytest.approx(8.0)

    def test_group_must_be_nonempty(self):
        with pytest.raises(ValueError):
            security.dpa_difference_of_means([[1.0], [2.0]], [1, 1])

    def test_bit_count_mismatch(self):
        with pytest.raises(ValueError):
            security.dpa_difference_of_means([[1.0]], [1, 0])


class TestCpa:
    def test_correlated_hypothesis_found(self):
        # power at cycle 0 = hamming weight; cycle 1 is noise-free const
        weights = [0.0, 1.0, 2.0, 3.0, 4.0]
        traces = [[w * 2.0 + 1.0, 5.0] for w in weights]
        corr = security.cpa_correlation(traces, weights)
        assert corr[0] == pytest.approx(1.0)
        assert corr[1] == pytest.approx(0.0)

    def test_needs_three_traces(self):
        with pytest.raises(ValueError):
            security.cpa_correlation([[1.0], [2.0]], [1.0, 2.0])

    def test_anticorrelation(self):
        weights = [0.0, 1.0, 2.0, 3.0]
        traces = [[10.0 - w] for w in weights]
        corr = security.cpa_correlation(traces, weights)
        assert corr[0] == pytest.approx(-1.0)
