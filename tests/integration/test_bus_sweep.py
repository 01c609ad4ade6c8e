"""Integration tests of the fetch-path parameter sweep."""

import pytest

from repro.experiments.bus_sweep import (BusSweepResult, SweepPoint,
                                         run_point)
from repro.experiments.common import characterization


@pytest.fixture(scope="module")
def sweep(golden_run):
    # the golden manifest's 2x2 sub-grid: quick, and covers the shape
    return golden_run("sweep")[0]


class TestSweepShape:
    def test_grid_complete(self, sweep):
        assert len(sweep.points) == 4

    def test_line_fill_beats_word_at_a_time(self, sweep):
        word = sweep.point(1, 1)
        line = sweep.point(4, 8)
        assert line.cycles < word.cycles
        assert line.bus_energy_pj < word.bus_energy_pj

    def test_buffer_reduces_fetch_traffic(self, sweep):
        small = sweep.point(4, 1)
        large = sweep.point(4, 8)
        assert large.fetch_transactions < small.fetch_transactions

    def test_fetch_words_consistent_with_burst(self, sweep):
        for point in sweep.points:
            assert point.fetch_words == (point.fetch_transactions
                                         * point.fetch_burst_length)

    def test_best_selectors(self, sweep):
        assert sweep.best_by_cycles() in sweep.points
        assert sweep.best_by_energy() in sweep.points

    def test_format_lists_every_point(self, sweep):
        text = sweep.format()
        for point in sweep.points:
            assert point.label in text


class TestAllDegraded:
    def test_report_says_so_instead_of_raising(self):
        sweep = BusSweepResult([
            SweepPoint(1, 1, status="degraded", error="crashed twice"),
            SweepPoint(4, 8, status="degraded", error="stalled")])
        assert sweep.format().splitlines()[-5:] == [
            "burst=1 lines=1       DEGRADED: crashed twice",
            "burst=4 lines=8       DEGRADED: stalled",
            "every sweep point degraded",
            "  [FAIL] every grid point ran",
            "verdict: FAILED"]
        assert not sweep.passed


class TestDefaultGridPoints:
    """Points of the default 3x3 grid outside the golden sub-grid."""

    def _point(self, burst, lines):
        return run_point(burst, lines, characterization().table)

    def test_line_fill_dominates_word_at_a_time(self):
        word_at_a_time = self._point(1, 1)
        line_fill = self._point(4, 4)
        assert line_fill.cycles < word_at_a_time.cycles
        assert line_fill.bus_energy_pj < word_at_a_time.bus_energy_pj
        assert (line_fill.fetch_transactions
                < word_at_a_time.fetch_transactions)

    def test_big_bursts_overfetch_a_tiny_buffer(self):
        # a tiny buffer with big bursts over-fetches: traffic exceeds
        # the same buffer with smaller bursts
        assert self._point(4, 1).fetch_words > self._point(2, 1).fetch_words


class TestSweepValidation:
    def test_bad_burst_rejected(self):
        from repro.soc.cpu import MipsCore
        from repro.kernel import Clock, Simulator
        simulator = Simulator("bad")
        clock = Clock(simulator, "clk", period=100)
        with pytest.raises(ValueError):
            MipsCore(simulator, clock, bus=None, fetch_burst_length=3)

    def test_single_point(self):
        point = run_point(2, 4, characterization().table)
        assert point.cycles > 0
        assert point.fetch_transactions > 0
