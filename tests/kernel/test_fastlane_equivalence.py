"""Cycle-loop kernel vs the generic three-phase oracle.

The kernel's compiled two-edge loop must be an *observably identical*
execution of what the generic evaluate/update/notify scheduler
(``tests/kernel/reference_kernel.py``) does with the same models:
identical simulated time, delta count, clock cycles, journal ring,
process run counts, energies and transition counts — across all
twelve RTL scenario scripts and both issue disciplines on the layer-1
bus with full energy accounting, with and without a progress watchdog
attached.  So must the runs that end or turn mid-slice: a master's
``done_event`` and a halting core's ``halted_event`` journaled inside
an edge, ``stop()`` and ``power_off()`` (with its hooks) called from
an edge, ``run()`` deadlines between edges, and a watchdog trip, which
must raise the same diagnostic from the same kernel state on both and
resume from it identically.  A reference-accounting cross-check
recomputes transitions and per-cycle energy naively from the recorded
waveform and must agree with the model's dirty-index hot path exactly.
"""

import collections
import contextlib

import pytest

import repro.kernel
import repro.soc.smartcard
from repro.ec import data_read, data_write, hamming_distance
from repro.ec.signals import EC_SIGNALS
from repro.kernel import Module, ProgressWatchdog, StallError
from repro.power import Layer1PowerModel, SignalStateRecorder, default_table
from repro.soc import SmartCardPlatform
from repro.tlm import BlockingMaster, EcBusLayer1, PipelinedMaster, run_script

from tests.integration.test_supervision import RAM_BASE, build_stuck_platform
from tests.kernel import reference_kernel
from tests.rtl.test_bus_rtl import SCRIPTS, build_memory_map

KERNELS = {"kernel": repro.kernel, "oracle": reference_kernel}


def _kernel_state(simulator, clock):
    """Everything a model, report or diagnostic reads of the kernel."""
    return {
        "now": simulator.now,
        "delta_count": simulator.delta_count,
        "cycles": clock.cycles,
        "journal": tuple(simulator._journal),
        "run_counts": [(process.name, process.run_count)
                       for process in simulator._processes],
        "steady_cycles": simulator.steady_cycles,
    }


def _assert_same(kernel, oracle):
    assert kernel.keys() == oracle.keys()
    for key in kernel:
        assert kernel[key] == oracle[key], key


def _layer1(kernel, script, pipelined=False, journal_capacity=32):
    """A layer-1 bus with full energy accounting and one master."""
    simulator = kernel.Simulator("equiv", journal_capacity=journal_capacity)
    clock = kernel.Clock(simulator, "clk", period=100)
    memory_map, _ = build_memory_map()
    recorder = SignalStateRecorder()
    model = Layer1PowerModel(default_table(), recorder=recorder)
    bus = EcBusLayer1(simulator, clock, memory_map, power_model=model)
    cls = PipelinedMaster if pipelined else BlockingMaster
    master = cls(simulator, clock, bus, script, name="m")
    return simulator, clock, model, recorder, master


def _run(script_name, pipelined, kernel, stall_cycles=None):
    """One layer-1 run of a scenario; returns every observable."""
    # scripts hold single-use Transaction objects: build fresh per run
    simulator, clock, model, recorder, master = _layer1(
        kernel, SCRIPTS[script_name](), pipelined)
    run_script(simulator, master, 10_000, clock, stall_cycles=stall_cycles)
    assert master.done
    return {
        **_kernel_state(simulator, clock),
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
    }


@pytest.mark.parametrize("pipelined", [False, True],
                         ids=["blocking", "pipelined"])
@pytest.mark.parametrize("script_name", sorted(SCRIPTS))
class TestOracleEquivalence:
    @pytest.mark.parametrize("stall_cycles", [None, 500],
                             ids=["unguarded", "watchdog"])
    def test_bit_identical(self, script_name, pipelined, stall_cycles):
        """A stall watchdog that never trips must not change the run."""
        _assert_same(
            _run(script_name, pipelined, repro.kernel, stall_cycles),
            _run(script_name, pipelined, reference_kernel, stall_cycles))

    def test_reference_accounting(self, script_name, pipelined):
        """Naive recomputation from the recorded waveform must agree
        with the dirty-index hot path bit for bit."""
        simulator, clock, model, recorder, master = _layer1(
            repro.kernel, SCRIPTS[script_name](), pipelined)
        run_script(simulator, master, 10_000, clock)
        table = model.table
        names = recorder.names
        widths = {spec.name: spec.width for spec in EC_SIGNALS}
        # reset state: controls low, ARdy high (the bus idle level)
        previous = {name: 0 for name in names}
        previous["EB_ARdy"] = 1
        counts = {name: 0 for name in names}
        for cycle_index, snapshot in enumerate(recorder.snapshots):
            values = dict(zip(names, snapshot))
            energy = table.clock_energy_per_cycle_pj
            for spec in EC_SIGNALS:  # ascending index order
                transitions = hamming_distance(
                    previous[spec.name], values[spec.name],
                    widths[spec.name])
                counts[spec.name] += transitions
                energy += transitions * table.coefficient(spec.name)
            assert energy == recorder.energies[cycle_index], cycle_index
            previous = values
        assert counts == model.transition_counts
        assert sum(recorder.energies) == pytest.approx(
            model.total_energy_pj)


# -- notifications, stops and deadlines inside a run -----------------------

def _done_mid_slice(kernel):
    script = [data_write(RAM_BASE + 4 * index, [index]) for index in range(9)]
    simulator, clock, _, _, master = _layer1(kernel, script,
                                             journal_capacity=None)
    elapsed = run_script(simulator, master, 10_000, clock)
    return elapsed, _kernel_state(simulator, clock)


def test_done_event_mid_slice():
    """The master finishes inside one of run_script's 64-cycle slices:
    its done event is journaled in that edge and the slice runs on."""
    elapsed, state = _done_mid_slice(repro.kernel)
    assert (elapsed, state) == _done_mid_slice(reference_kernel)
    done = [entry for entry in state["journal"] if entry[3] == "m.done"]
    assert len(done) == 1 and done[0][2] == "delta"
    assert elapsed % 64 == 0 and done[0][0] < state["now"]


HALTING_PROGRAM = """
    addiu $t0, $zero, 5
    addiu $t0, $t0, 7
    halt
"""


def _halting_core(kernel):
    with (reference_kernel.building_with(repro.soc.smartcard)
          if kernel is reference_kernel else contextlib.nullcontext()):
        platform = SmartCardPlatform(bus_layer=1, with_cpu=True)
    assert isinstance(platform.simulator, kernel.Simulator)
    platform.simulator._journal = collections.deque(maxlen=None)
    platform.load_assembly(HALTING_PROGRAM)
    platform.cpu.run_to_halt(20_000)
    assert platform.cpu.registers[8] == 12
    return _kernel_state(platform.simulator, platform.clock)


def test_halting_core():
    state = _halting_core(repro.kernel)
    _assert_same(state, _halting_core(reference_kernel))
    assert any(entry[3] == "cpu.halted" for entry in state["journal"])


class _Stopper(Module):
    """Calls *action* from inside the rising edge of cycle *at*; a
    power-off hook records the kernel state it runs in."""

    def __init__(self, simulator, clock, at, action):
        super().__init__(simulator, "stopper")
        self.clock = clock
        self.at = at
        self.action = action
        self.hook_calls = []
        simulator.add_power_off_hook(self._hook)
        self.method(self._on_rise, sensitive=[clock.posedge_event],
                    dont_initialize=True)

    def _on_rise(self):
        if self.clock.cycles == self.at:
            getattr(self.simulator, self.action)()

    def _hook(self, reason):
        simulator = self.simulator
        self.hook_calls.append((reason, simulator.now,
                                simulator.delta_count))


def _stopped(kernel, action):
    script = [data_read(RAM_BASE + 4 * index) for index in range(6)]
    simulator, clock, *_ = _layer1(kernel, script)
    stopper = _Stopper(simulator, clock, 7, action)
    states = []
    for duration in (10_000, 250, 10_000):
        consumed = simulator.run(duration)
        states.append((consumed, _kernel_state(simulator, clock)))
    return states, stopper.hook_calls, simulator.powered_off


@pytest.mark.parametrize("action", ["stop", "power_off"])
def test_stop_and_power_off_inside_an_edge(action):
    kernel = _stopped(repro.kernel, action)
    assert kernel == _stopped(reference_kernel, action)
    states, hook_calls, powered_off = kernel
    # the run ended on the requesting edge; power-off latches
    assert states[0][0] == 7 * 100
    assert powered_off == (action == "power_off")
    assert len(hook_calls) == (action == "power_off")
    if powered_off:
        assert states[1][0] == states[2][0] == 0


def _deadlines(kernel, durations):
    script = [data_read(RAM_BASE + 4 * index) for index in range(20)]
    simulator, clock, *_ = _layer1(kernel, script)
    states = []
    for duration in durations:
        simulator.run(duration)
        states.append(_kernel_state(simulator, clock))
    return states


@pytest.mark.parametrize("durations", [
    [0, 1, 49, 50, 51, 99, 100, 101],
    [5_003, 2, 15, 4_000, 7, 10_000],
], ids=["around_edges", "uneven"])
def test_deadlines_between_edges(durations):
    assert (_deadlines(repro.kernel, durations)
            == _deadlines(reference_kernel, durations))


# -- watchdog trips ----------------------------------------------------------

def _stall(layer, kernel):
    """Run a master into a hung slave until its stall watchdog trips;
    returns the diagnostic and the kernel state at the raise and after
    resuming the tripped edge without the watchdog."""
    simulator, clock, bus = build_stuck_platform(layer, kernel)
    master = BlockingMaster(simulator, clock, bus,
                            [data_read(RAM_BASE), data_read(RAM_BASE + 4)],
                            name="stuck")
    with pytest.raises(StallError) as excinfo:
        run_script(simulator, master, 100_000, clock, stall_cycles=300)
    tripped = _kernel_state(simulator, clock)
    simulator.run(250)
    return {"message": str(excinfo.value), "tripped": tripped,
            "resumed": _kernel_state(simulator, clock)}


class TestWatchdogTripEquivalence:
    @pytest.mark.parametrize("layer", ("layer1", "layer2", "rtl"))
    def test_stall_identical(self, layer):
        _assert_same(_stall(layer, repro.kernel),
                     _stall(layer, reference_kernel))

    def test_trip_lands_between_tick_and_toggle(self):
        stall = _stall("layer1", repro.kernel)
        tripped = stall["tripped"]
        now, delta = tripped["now"], tripped["delta_count"]
        # the tick is journaled, its toggle delta is not ...
        assert tripped["journal"][-1] == (now, delta, "timed", "clk.tick")
        # ... until the resumed run, at the tripped edge's time
        assert (now, delta + 1, "delta") in [
            entry[:3] for entry in stall["resumed"]["journal"]]

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_wall_clock_budget_trips(self, kernel):
        simulator, clock, _, _, master = _layer1(
            KERNELS[kernel], SCRIPTS["single_read"]())
        with pytest.raises(StallError, match="of wall clock"):
            run_script(simulator, master, 10_000, clock,
                       wall_seconds=1e-6)


def test_watchdog_polled_on_every_edge():
    """A watchdog whose probe counts its polls sees one per edge."""
    counts = []
    for kernel in (repro.kernel, reference_kernel):
        simulator = kernel.Simulator("polls")
        clock = kernel.Clock(simulator, "clk", period=10)
        polls = []
        simulator.attach_watchdog(ProgressWatchdog(
            progress=lambda: polls.append(None) or len(polls),
            stall_time=10_000))
        simulator.run(1_000)
        counts.append((len(polls), _kernel_state(simulator, clock)))
    assert counts[0] == counts[1]
    assert counts[0][0] == 1 + 200  # attach, then 200 edges
