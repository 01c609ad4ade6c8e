"""Fast-lane vs generic-kernel equivalence (the PR-5 contract).

The clocked fast lane must be an *observably identical* execution of
the same simulation: identical simulated time, delta count, clock
cycles, journal ring, energies and transition counts — across all
twelve RTL scenario scripts and both issue disciplines on the layer-1
bus with full energy accounting, with and without a progress watchdog
attached.  A tripped watchdog must raise the same diagnostic from the
same kernel state on both paths.  A reference-accounting cross-check
recomputes transitions and per-cycle energy naively from the recorded
waveform and must agree with the model's dirty-index hot path exactly.
"""

import pytest

from repro.ec import data_read, hamming_distance
from repro.ec.signals import EC_SIGNALS
from repro.kernel import (Clock, Process, ProgressWatchdog, Simulator,
                          StallError)
from repro.power import Layer1PowerModel, SignalStateRecorder, default_table
from repro.tlm import BlockingMaster, EcBusLayer1, PipelinedMaster, run_script

from tests.integration.test_supervision import RAM_BASE, build_stuck_platform
from tests.rtl.test_bus_rtl import SCRIPTS, build_memory_map


def _run(script_name, pipelined, fast_lane, stall_cycles=None):
    """One layer-1 run of a scenario; returns every observable."""
    simulator = Simulator("equiv", fast_lane=fast_lane)
    clock = Clock(simulator, "clk", period=100)
    memory_map, _ = build_memory_map()
    recorder = SignalStateRecorder()
    model = Layer1PowerModel(default_table(), recorder=recorder)
    bus = EcBusLayer1(simulator, clock, memory_map, power_model=model)
    # scripts hold single-use Transaction objects: build fresh per run
    script = SCRIPTS[script_name]()
    cls = PipelinedMaster if pipelined else BlockingMaster
    master = cls(simulator, clock, bus, script)
    run_script(simulator, master, 10_000, clock,
               stall_cycles=stall_cycles)
    assert master.done
    return {
        "now": simulator.now,
        "delta_count": simulator.delta_count,
        "cycles": clock.cycles,
        "journal": tuple(simulator._journal),
        "total_energy_pj": model.total_energy_pj,
        "transition_counts": model.transition_counts,
        "group_energy_pj": dict(model.group_energy_pj),
        "energies": list(recorder.energies),
        "snapshots": list(recorder.snapshots),
        "names": recorder.names,
        # txn_id is a process-global counter, so it differs between
        # two runs in the same process; compare the timing shape
        "timings": [(t.issue_cycle, t.address_done_cycle,
                     t.data_done_cycle, t.state)
                    for t in master.completed],
        "model": model,
        "fast_lane_time": simulator.fast_lane_time,
        "deltas_since_check": simulator._deltas_since_check,
    }


@pytest.mark.parametrize("pipelined", [False, True],
                         ids=["blocking", "pipelined"])
@pytest.mark.parametrize("script_name", sorted(SCRIPTS))
class TestFastLaneEquivalence:
    @pytest.mark.parametrize("stall_cycles", [None, 500],
                             ids=["unguarded", "watchdog"])
    def test_bit_identical(self, script_name, pipelined, stall_cycles):
        """A stall watchdog that never trips must neither change the
        run nor push it off the fast lane."""
        fast = _run(script_name, pipelined, True, stall_cycles)
        generic = _run(script_name, pipelined, False, stall_cycles)
        for key in ("now", "delta_count", "cycles", "journal",
                    "total_energy_pj", "transition_counts",
                    "group_energy_pj", "energies", "snapshots",
                    "names", "timings", "deltas_since_check"):
            assert fast[key] == generic[key], key
        assert fast["fast_lane_time"] >= 0.9 * fast["now"]
        assert generic["fast_lane_time"] == 0

    def test_reference_accounting(self, script_name, pipelined):
        """Naive recomputation from the recorded waveform must agree
        with the dirty-index hot path bit for bit."""
        run = _run(script_name, pipelined, fast_lane=True)
        model = run["model"]
        table = model.table
        names = run["names"]
        widths = {spec.name: spec.width for spec in EC_SIGNALS}
        # reset state: controls low, ARdy high (the bus idle level)
        previous = {name: 0 for name in names}
        previous["EB_ARdy"] = 1
        counts = {name: 0 for name in names}
        for cycle_index, snapshot in enumerate(run["snapshots"]):
            values = dict(zip(names, snapshot))
            energy = table.clock_energy_per_cycle_pj
            for spec in EC_SIGNALS:  # ascending index order
                transitions = hamming_distance(
                    previous[spec.name], values[spec.name],
                    widths[spec.name])
                counts[spec.name] += transitions
                energy += transitions * table.coefficient(spec.name)
            assert energy == run["energies"][cycle_index], cycle_index
            previous = values
        assert counts == run["transition_counts"]
        assert sum(run["energies"]) == pytest.approx(
            run["total_energy_pj"])


def _stall(layer, fast_lane):
    """Run a master into a hung slave until its stall watchdog trips;
    returns the diagnostic and the kernel state at the raise."""
    simulator, clock, bus = build_stuck_platform(layer, fast_lane)
    master = BlockingMaster(simulator, clock, bus,
                            [data_read(RAM_BASE), data_read(RAM_BASE + 4)],
                            name="stuck")
    with pytest.raises(StallError) as excinfo:
        run_script(simulator, master, 100_000, clock, stall_cycles=300)
    return {
        "message": str(excinfo.value),
        "now": simulator.now,
        "delta_count": simulator.delta_count,
        "cycles": clock.cycles,
        "journal": tuple(simulator._journal),
        "runnable": [process.name for process in simulator._runnable],
        "deltas_since_check": simulator._deltas_since_check,
        "fast_lane_time": simulator.fast_lane_time,
    }


class TestWatchdogTripEquivalence:
    @pytest.mark.parametrize("layer", ("layer1", "layer2", "rtl"))
    def test_stall_identical_on_both_paths(self, layer):
        fast = _stall(layer, fast_lane=True)
        generic = _stall(layer, fast_lane=False)
        for key in ("message", "now", "delta_count", "cycles",
                    "journal", "runnable", "deltas_since_check"):
            assert fast[key] == generic[key], key
        # the stall tripped inside the lane, which left the driver
        # queued exactly as the generic time advance does
        assert fast["fast_lane_time"] == fast["now"]
        assert fast["runnable"] == ["clk.driver"]

    @pytest.mark.parametrize("shape", ("bare_clock", "stop"))
    def test_delta_storm_counter_identical(self, shape):
        """The watchdog's delta-storm counter (a check every
        _DELTAS_PER_WATCHDOG_CHECK deltas) must count the lane's deltas
        as the generic loop does: on an edge that triggers nothing, and
        when a stop request ends the run mid-instant."""
        states = []
        for fast_lane in (True, False):
            simulator = Simulator("counter", fast_lane=fast_lane)
            clock = Clock(simulator, "clk", period=10)
            if shape == "stop":
                def stop_at_five():
                    if clock.cycles == 5:
                        simulator.stop()
                Process(simulator, stop_at_five, "stopper").sensitive(
                    clock.signal.posedge_event)
            simulator.attach_watchdog(
                ProgressWatchdog(progress=lambda: 0, stall_time=10_000))
            simulator.run(1_000)
            states.append((simulator.now, simulator.delta_count,
                           tuple(simulator._journal),
                           simulator._deltas_since_check))
        assert states[0] == states[1]

    def test_wall_clock_budget_trips_on_the_lane(self):
        simulator = Simulator("wall")
        clock = Clock(simulator, "clk", period=100)
        memory_map, _ = build_memory_map()
        bus = EcBusLayer1(simulator, clock, memory_map)
        master = BlockingMaster(simulator, clock, bus,
                                SCRIPTS[sorted(SCRIPTS)[0]]())
        with pytest.raises(StallError, match="of wall clock"):
            run_script(simulator, master, 10_000, clock,
                       wall_seconds=1e-6)
        assert simulator.fast_lane_time > 0
