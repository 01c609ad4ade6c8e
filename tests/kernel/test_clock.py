"""Unit tests for the two-phase clock: edge events and phasing (the
paper triggers masters/slaves on the rising edge and the bus process on
the falling edge)."""

import pytest

import repro.kernel
from repro.kernel import Clock, Process, Simulator

from tests.kernel import reference_kernel


@pytest.fixture
def sim():
    return Simulator("test")


class TestClock:
    def test_period_validation(self, sim):
        with pytest.raises(ValueError):
            Clock(sim, "clk", period=0)
        with pytest.raises(ValueError):
            Clock(sim, "clk", period=11)  # odd period

    def test_posedges_per_period(self, sim):
        clock = Clock(sim, "clk", period=100)
        rising = []
        Process(sim, lambda: rising.append(sim.now), "r",
                dont_initialize=True).sensitive(clock.posedge_event)
        sim.run(1000)
        # start_high=True: first rising edge after one full period
        assert len(rising) == 10
        assert rising[1] - rising[0] == 100

    def test_falling_edge_between_rising_edges(self, sim):
        clock = Clock(sim, "clk", period=100)
        rising, falling = [], []
        Process(sim, lambda: rising.append(sim.now), "r",
                dont_initialize=True).sensitive(clock.posedge_event)
        Process(sim, lambda: falling.append(sim.now), "f",
                dont_initialize=True).sensitive(clock.negedge_event)
        sim.run(1000)
        assert falling[0] < rising[0]
        # edges alternate with half-period spacing
        assert rising[0] - falling[0] == 50

    def test_cycle_counter(self, sim):
        clock = Clock(sim, "clk", period=10)
        sim.run(105)
        assert clock.cycles == 10

    @pytest.mark.parametrize("start_high", [True, False])
    def test_level_follows_the_edges(self, sim, start_high):
        clock = Clock(sim, "clk", period=10, start_high=start_high)
        rising = []
        Process(sim, lambda: rising.append(sim.now), "r",
                dont_initialize=True).sensitive(clock.posedge_event)
        levels = []
        for _ in range(4):
            levels.append(clock.read())
            sim.run(5)
        assert levels == [start_high, not start_high] * 2
        # starting low, the first edge is a rising one
        assert rising == ([10, 20] if start_high else [5, 15])
        assert clock.cycles == 2

    def test_two_phase_ordering_master_then_bus(self, sim):
        """Masters update state on posedge; the bus process on the
        following negedge must see it — the paper's clocking scheme."""
        clock = Clock(sim, "clk", period=100)
        request = {"count": 0}
        seen_by_bus = []

        def master():
            request["count"] += 1

        def bus():
            seen_by_bus.append(request["count"])

        Process(sim, master, "m", dont_initialize=True).sensitive(
            clock.posedge_event)
        Process(sim, bus, "b", dont_initialize=True).sensitive(
            clock.negedge_event)
        sim.run(340)
        # bus at t=50 sees 0 (no posedge yet), at 150 sees 1, at 250 sees 2
        assert seen_by_bus == [0, 1, 2]

    @pytest.mark.parametrize("edges", [(), ("posedge",), ("negedge",),
                                       ("posedge", "negedge")])
    def test_journal_names_the_edge_events_that_exist(self, edges):
        """An edge is journaled only once its event has been created,
        as on the oracle."""
        journals = []
        for kernel in (repro.kernel, reference_kernel):
            simulator = kernel.Simulator("edges")
            clock = kernel.Clock(simulator, "clk", period=10)
            simulator.run(12)
            for edge in edges:
                getattr(clock, f"{edge}_event")
            simulator.run(20)
            journals.append((tuple(simulator._journal),
                             simulator.delta_count))
        assert journals[0] == journals[1]
        named = {entry[3] for entry in journals[0][0]}
        assert named == {"clk.tick"} | {f"clk.sig.{edge}" for edge in edges}

    def test_posedge_processes_skip_falling_edges(self, sim):
        clock = Clock(sim, "clk", period=10)
        rising, falling = [], []
        Process(sim, lambda: rising.append(sim.now), "r",
                dont_initialize=True).sensitive(clock.posedge_event)
        Process(sim, lambda: falling.append(sim.now), "f",
                dont_initialize=True).sensitive(clock.negedge_event)
        sim.run(55)
        assert rising == [10, 20, 30, 40, 50]
        assert falling == [5, 15, 25, 35, 45, 55]
        assert not set(rising) & set(falling)

    def test_edge_events_are_created_once(self, sim):
        clock = Clock(sim, "clk", period=10)
        assert clock.posedge_event is clock.posedge_event
        assert clock.negedge_event is clock.negedge_event
        assert clock.posedge_event is not clock.negedge_event
        assert clock.posedge_event.name == "clk.sig.posedge"
        assert clock.negedge_event.name == "clk.sig.negedge"

    @pytest.mark.parametrize("start_high", [True, False])
    def test_edge_processes_match_the_oracle(self, start_high):
        """Processes on both edges see the same times, levels and cycle
        counts as on the oracle, and leave the same kernel state."""
        states = []
        for kernel in (repro.kernel, reference_kernel):
            simulator = kernel.Simulator("edges")
            clock = kernel.Clock(simulator, "clk", period=10,
                                 start_high=start_high)
            log = []
            for edge in ("posedge", "negedge"):
                Process(simulator,
                        lambda edge=edge, simulator=simulator, clock=clock:
                        log.append((edge, simulator.now, clock.read(),
                                    clock.cycles)),
                        edge, dont_initialize=True).sensitive(
                            getattr(clock, f"{edge}_event"))
            for duration in (3, 40, 17):
                simulator.run(duration)
            states.append((log, simulator.now, simulator.delta_count,
                           clock.cycles, tuple(simulator._journal),
                           [process.run_count
                            for process in simulator._processes]))
        assert states[0] == states[1]

    @pytest.mark.parametrize("start_high", [True, False])
    def test_level_before_the_first_run(self, sim, start_high):
        clock = Clock(sim, "clk", period=10, start_high=start_high)
        assert clock.read() is start_high
        sim.run(0)  # elaboration arms the first edge, toggles nothing
        assert clock.read() is start_high
        assert clock.cycles == 0
