"""Integration tests of the fetch-path parameter sweep."""

import pytest

from repro.experiments.bus_sweep import run_point
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
