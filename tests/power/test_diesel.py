"""Unit tests for the Diesel-style gate-level power estimator."""

import pytest

from repro.ec import EC_SIGNALS
from repro.power.diesel import (DieselEstimator, InterfaceActivityLog,
                                default_wire_load)
from repro.rtl.netlist import Netlist


def zeros():
    values = {spec.name: 0 for spec in EC_SIGNALS}
    values["EB_ARdy"] = 1
    return values


class TestActivityLog:
    def test_rises_and_falls_counted(self):
        log = InterfaceActivityLog()
        old = zeros()
        new = dict(old)
        new["EB_A"] = 0b1011          # 3 rises
        new["EB_ARdy"] = 0            # 1 fall
        log.record_cycle(old, new)
        assert log.rises["EB_A"] == 3
        assert log.falls["EB_A"] == 0
        assert log.falls["EB_ARdy"] == 1
        assert log.transitions("EB_A") == 3

    def test_simultaneity_weight(self):
        log = InterfaceActivityLog()
        old = zeros()
        new = dict(old)
        new["EB_WData"] = 0xF        # 4 simultaneous rises
        log.record_cycle(old, new)
        assert log.simultaneity["EB_WData"] == 4 * 3

    def test_no_change_no_activity(self):
        log = InterfaceActivityLog()
        log.record_cycle(zeros(), zeros())
        assert log.total_transitions() == 0
        assert log.cycles == 1


class TestWireLoadModel:
    def test_default_covers_all_signals(self):
        load = default_wire_load()
        for spec in EC_SIGNALS:
            assert load.bit_cap(spec.name) > 0

    def test_unknown_signal_raises(self):
        with pytest.raises(KeyError):
            default_wire_load().bit_cap("EB_Nonsense")

    def test_buses_heavier_than_controls(self):
        load = default_wire_load()
        assert load.bit_cap("EB_A") > load.bit_cap("EB_AValid")
        assert load.bit_cap("EB_RData") > load.bit_cap("EB_RdVal")


class TestEstimator:
    def test_rise_fall_asymmetry(self):
        load = default_wire_load()
        estimator = DieselEstimator(load)
        rise_log = InterfaceActivityLog()
        old = zeros()
        up = dict(old)
        up["EB_A"] = 1
        rise_log.record_cycle(old, up)
        fall_log = InterfaceActivityLog()
        fall_log.record_cycle(up, old)
        rise = estimator.estimate(rise_log).wire_energy_pj["EB_A"]
        fall = estimator.estimate(fall_log).wire_energy_pj["EB_A"]
        assert rise > fall  # rise_factor > fall_factor

    def test_simultaneous_switching_costs_extra(self):
        estimator = DieselEstimator()
        sequential = InterfaceActivityLog()
        state = zeros()
        for bit in range(4):
            new = dict(state)
            new["EB_WData"] = state["EB_WData"] | (1 << bit)
            sequential.record_cycle(state, new)
            state = new
        burst = InterfaceActivityLog()
        new = zeros()
        new["EB_WData"] = 0xF
        burst.record_cycle(zeros(), new)
        seq_energy = estimator.estimate(
            sequential, cycles=4).wire_energy_pj["EB_WData"]
        burst_energy = estimator.estimate(
            burst, cycles=4).wire_energy_pj["EB_WData"]
        assert burst_energy > seq_energy

    def test_netlist_activity_included(self):
        netlist = Netlist()
        a = netlist.input("a", 10.0)
        out = netlist.not_gate(a)
        netlist.step({"a": 1})
        estimator = DieselEstimator()
        log = InterfaceActivityLog()
        log.record_cycle(zeros(), zeros())
        report = estimator.estimate(log, netlists=[netlist])
        assert report.module_energy_pj["decoder"] > 0

    def test_clock_energy_scales_with_cycles(self):
        estimator = DieselEstimator()
        log = InterfaceActivityLog()
        short = estimator.estimate(log, cycles=10, control_flop_count=64)
        long = estimator.estimate(log, cycles=100, control_flop_count=64)
        assert long.module_energy_pj["clock"] == pytest.approx(
            10 * short.module_energy_pj["clock"])

    def test_datapath_scales_with_bus_activity(self):
        estimator = DieselEstimator()
        quiet = InterfaceActivityLog()
        quiet.record_cycle(zeros(), zeros())
        busy = InterfaceActivityLog()
        new = zeros()
        new["EB_RData"] = 0xFFFF
        busy.record_cycle(zeros(), new)
        assert estimator.estimate(busy).module_energy_pj["datapath"] > \
            estimator.estimate(quiet).module_energy_pj["datapath"]

    def test_module_shares_sum_to_one(self):
        estimator = DieselEstimator()
        log = InterfaceActivityLog()
        new = zeros()
        new["EB_A"] = 0xFFF
        log.record_cycle(zeros(), new)
        report = estimator.estimate(log, control_flop_count=64)
        total_share = sum(report.module_share(module)
                          for module in report.module_energy_pj)
        assert total_share == pytest.approx(1.0)

    def test_average_energy_per_transition(self):
        estimator = DieselEstimator()
        log = InterfaceActivityLog()
        new = zeros()
        new["EB_A"] = 0b11
        log.record_cycle(zeros(), new)
        report = estimator.estimate(log)
        average = report.average_energy_per_transition("EB_A")
        assert average is not None and average > 0
        assert report.average_energy_per_transition("EB_WData") is None

    def test_summary_mentions_modules(self):
        estimator = DieselEstimator()
        log = InterfaceActivityLog()
        report = estimator.estimate(log, cycles=5)
        text = report.format_summary()
        for module in ("interface", "decoder", "datapath", "control",
                       "clock"):
            assert module in text
