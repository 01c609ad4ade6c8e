"""Steady-cycle fast-forward vs the generic three-phase oracle.

On a DPM-managed card running a T=1 session, the kernel advances the
cycles in which every process only repeats its steady bookkeeping by
calling each process's ``steady`` span step once per stretch
(:mod:`repro.kernel.simulator`).  That must be an observably identical
execution: the same session report and energies bit for bit, the same
supply and PSM books, the same kernel state (time, delta count,
journal ring, every process's run count) as the oracle
(``tests/kernel/reference_kernel.py``), which never fast-forwards.  Wherever steadiness cannot be shown cheaply the
kernel must not fast-forward at all.
"""

import contextlib
import dataclasses
import random

import pytest

import repro.kernel
import repro.power
import repro.soc.smartcard

from repro.experiments.link_campaign import (DPM_POLICY, DPM_SUPPLY,
                                             DPM_THINK)
from repro.kernel import STEADY_FOREVER, Module, ProgressWatchdog
from repro.link import LinkParams, NoisyChannel, run_link_session
from repro.power import (FixedTimeoutPolicy, Layer1PowerModel,
                         SignalStateRecorder, default_table)
from repro.soc import SmartCardPlatform
from repro.workloads.apdu import COMMANDS

from tests.kernel import reference_kernel

TABLE = default_table()


def _floats(value):
    """*value* with every float replaced by its repr (bit-exact ==)."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {key: _floats(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_floats(item) for item in value]
    return value


def _kernel_state(platform):
    simulator = platform.simulator
    return {
        "now": simulator.now,
        "delta_count": simulator.delta_count,
        "cycles": platform.clock.cycles,
        "journal": tuple(simulator._journal),
        "run_counts": [(process.name, process.run_count)
                       for process in simulator._processes],
    }


def _platform(oracle, **options):
    """A card on the kernel, or on the oracle when *oracle*."""
    with (reference_kernel.building_with(repro.soc.smartcard) if oracle
          else contextlib.nullcontext()):
        platform = SmartCardPlatform(bus_layer="layer1", table=TABLE,
                                     **options)
    assert isinstance(platform.simulator, (reference_kernel.Simulator
                                           if oracle else
                                           repro.kernel.Simulator))
    return platform


def _books(platform, stack):
    books = {
        "peripherals": [(ledger.name, repr(ledger.energy_pj),
                         dict(ledger.event_counts))
                        for ledger in platform.energy_ledgers()],
        "bus": (repr(platform.bus.power_model.total_energy_pj),
                platform.bus.power_model.transition_counts,
                _floats(list(platform.bus.power_model
                             .group_energy_pj.values()))),
    }
    if stack is not None:
        supply = stack.supply
        books["supply"] = (
            repr(supply.charge_pj), repr(supply.drained_pj),
            repr(supply.harvested_pj), supply.cycles_stepped,
            _floats([dataclasses.astuple(event)
                     for event in supply.brownouts + supply.power_losses]))
        books["psms"] = [
            (name, psm.state, dict(psm.residency_cycles),
             dict(psm.transition_counts), repr(psm.energy_pj),
             repr(psm.transition_energy_pj), repr(psm.residency_energy_pj),
             psm.idle_cycles, psm.wakes, list(psm.idle_history))
            for name, psm in stack.psms.items()]
    return books


def _session(oracle, noise, seed, dpm, params=None):
    platform = _platform(oracle)
    if dpm:
        stack = platform.attach_power(FixedTimeoutPolicy(**DPM_POLICY),
                                      supply=DPM_SUPPLY)
        composite = stack.composite
    else:
        stack = None
        composite = platform.fabric.composite(platform.energy_ledgers())
    rng = random.Random(f"steady/{seed}")
    commands = ["select"] + [rng.choice(COMMANDS[1:]) for _ in range(2)]
    report = run_link_session(
        platform, commands, params=params, seed=f"steady/{seed}",
        channel=NoisyChannel(noise, seed=f"steady/{seed}/chan"),
        energy_probe=lambda: composite.total_energy_pj,
        think_range=DPM_THINK)
    return {
        "report": _floats(dataclasses.asdict(report)),
        "books": _books(platform, stack),
        "kernel": _kernel_state(platform),
        "steady_cycles": platform.simulator.steady_cycles,
    }


@pytest.mark.parametrize("dpm", [True, False], ids=["dpm_on", "dpm_off"])
# 0.2: enough jitter that delayed wire bytes fall due inside quiet runs
@pytest.mark.parametrize("noise", [0.0, 0.01, 0.05, 0.2])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_session_is_bit_identical(dpm, noise, seed):
    fast = _session(False, noise, seed, dpm)
    oracle = _session(True, noise, seed, dpm)
    assert fast["report"] == oracle["report"]
    assert fast["books"] == oracle["books"]
    assert fast["kernel"] == oracle["kernel"]
    assert fast["report"]["outcome"] in ("complete", "degraded")
    assert fast["steady_cycles"] > 0
    assert oracle["steady_cycles"] == 0


@pytest.mark.parametrize("seed", [1, 3, 5])
def test_session_with_wtx_is_bit_identical(seed):
    # an early WTX threshold: the card asks for extensions mid-script
    params = LinkParams(wtx_threshold=50)
    fast = _session(False, 0.01, seed, True, params)
    oracle = _session(True, 0.01, seed, True, params)
    for part in ("report", "books", "kernel"):
        assert fast[part] == oracle[part]
    assert fast["report"]["wtx_grants"] > 0
    assert fast["steady_cycles"] > 0


# -- a card left alone between bus-side events --------------------------

IDLE_CYCLES = 2_000


def _poke_and_run(platform):
    """Quiet stretches after an EEPROM programming window, a TRNG
    harvest, two paced UART bytes and a reloading timer, each started
    between runs the way a bus access would start it."""
    platform.run_cycles(600)
    platform.eeprom.do_write(0x10, 0xF, 0x1234)
    platform.run_cycles(300)
    platform.rng.do_read(0, 0xF)  # DATA: take the word, harvest anew
    platform.run_cycles(300)
    platform.uart.do_write(8, 0xF, 1)  # CTRL: enable
    platform.uart.do_write(0, 0xF, 0x41)  # DATA, twice
    platform.uart.do_write(0, 0xF, 0x42)
    platform.run_cycles(500)
    platform.timers.configure(0, 90, irq=True)
    platform.run_cycles(300)


#: no harvest: the idle card drains through brownout and power loss
STARVED_SUPPLY = dict(capacity_nj=5.0, harvest_pj_per_cycle=0.0,
                      brownout_nj=4.0, power_loss_nj=3.0)


def _idle_card(oracle=False, with_cpu=False, with_dma=False,
               recorder=False, watchdog=False, halt_on_power_loss=False,
               supply=DPM_SUPPLY, **governor):
    power_model = (Layer1PowerModel(TABLE, recorder=SignalStateRecorder())
                   if recorder else None)
    platform = _platform(oracle, with_cpu=with_cpu, with_dma=with_dma,
                         power_model=power_model)
    stack = platform.attach_power(FixedTimeoutPolicy(**DPM_POLICY),
                                  supply=supply,
                                  halt_on_power_loss=halt_on_power_loss,
                                  **governor)
    if watchdog:
        platform.simulator.attach_watchdog(
            ProgressWatchdog(lambda: platform.clock.cycles,
                             stall_time=10 ** 9))
    _poke_and_run(platform)
    return platform, stack


@pytest.mark.parametrize("supply", [DPM_SUPPLY, STARVED_SUPPLY],
                         ids=["harvesting", "starved"])
def test_idle_card_is_bit_identical(supply):
    platform, stack = _idle_card(supply=supply)
    oracle, oracle_stack = _idle_card(oracle=True, supply=supply)
    assert platform.uart.transmitted == oracle.uart.transmitted == [
        0x41, 0x42]
    assert platform.timers.overflows == oracle.timers.overflows == [3, 0]
    assert platform.simulator.steady_cycles > IDLE_CYCLES // 2
    assert _books(platform, stack) == _books(oracle, oracle_stack)
    assert _kernel_state(platform) == _kernel_state(oracle)
    if supply is STARVED_SUPPLY:
        # the threshold events fell inside steady runs, on their cycle
        assert stack.supply.brownouts and stack.supply.power_losses


# -- where steadiness cannot be shown cheaply, nothing fast-forwards --

@pytest.mark.parametrize("options", [
    dict(watchdog=True),
    dict(recorder=True),
    dict(with_cpu=True),
    dict(with_dma=True),
    dict(defer_nj=20.0, sleep_nj=10.0),
    dict(halt_on_power_loss=True),
], ids=["watchdog", "signal_sink", "cpu", "dma", "watermarks", "halt"])
def test_no_steady_cycles_where_unproven(options):
    platform, stack = _idle_card(**options)
    oracle, oracle_stack = _idle_card(oracle=True, **options)
    assert platform.simulator.steady_cycles == 0
    assert _books(platform, stack) == _books(oracle, oracle_stack)
    assert _kernel_state(platform) == _kernel_state(oracle)


# -- the kernel's batched bookkeeping, on a bare clock --------------------

class _Counter:
    """A rising-edge process that is steady except every *period*-th
    activation, plus a falling-edge one that is always steady.  Each
    keeps its own float accumulator: two span steps run one after the
    other, so they cannot interleave their per-cycle updates of one.
    Both record the cycles of every span they are asked to run."""

    def __init__(self, simulator, clock, period):
        self.period = period
        self.ticks = 0
        self.real = 0
        self.total = 0.0
        self.scale = 1.0
        self.spans = []
        self.fall_spans = []
        module = Module(simulator, "counter")
        self.process = module.method(
            self._on_rise, sensitive=[clock.posedge_event],
            dont_initialize=True, steady=self._steady)
        self.idle = module.method(
            self._on_fall, sensitive=[clock.negedge_event],
            dont_initialize=True, steady=self._fall_steady)

    def _on_rise(self):
        process = self.process
        left = self.period - self.ticks % self.period
        if process.steady_armed:
            process.steady_until = process.run_count + left - 1
        if left == self.period:
            self.real += 1
        self._advance(1)

    def _steady(self, cycles):
        self.spans.append(cycles)
        self._advance(cycles)

    def _advance(self, cycles):
        self.ticks += cycles
        total = self.total
        for _ in range(cycles):
            total += 0.1
        self.total = total

    def _on_fall(self):
        if self.idle.steady_armed:
            self.idle.steady_until = STEADY_FOREVER
        self._scale(1)

    def _fall_steady(self, cycles):
        self.fall_spans.append(cycles)
        self._scale(cycles)

    def _scale(self, cycles):
        for _ in range(cycles):
            self.scale *= 1.0000001


#: uneven run lengths end runs on either edge
DURATIONS = [5_003, 2, 15, 4_000, 7, 10_000]


def _bare_run(kernel, capacity, durations, period=37):
    simulator = kernel.Simulator("bare", journal_capacity=capacity)
    clock = kernel.Clock(simulator, "clk", period=10)
    counter = _Counter(simulator, clock, period=period)
    for duration in durations:
        simulator.run(duration)
    return simulator, clock, counter


def _bare(kernel, capacity, durations, period=37):
    simulator, clock, counter = _bare_run(kernel, capacity, durations,
                                          period)
    return (simulator.now, simulator.delta_count, clock.cycles,
            clock.read(), tuple(simulator._journal), counter.ticks,
            counter.real, repr(counter.total), repr(counter.scale),
            [process.run_count for process in simulator._processes]
            ), simulator.steady_cycles


@pytest.mark.parametrize("capacity", [32, 7, 1, 0, None])
def test_bare_clock_bookkeeping(capacity):
    # uneven run lengths end runs on either edge
    durations = [5_003, 2, 15, 4_000, 7, 10_000]
    fast, steady = _bare(repro.kernel, capacity, durations)
    oracle, none = _bare(reference_kernel, capacity, durations)
    assert fast == oracle
    assert steady > 0 and none == 0


# -- span boundaries ------------------------------------------------------

# a process steady for all but every period-th activation hints
# period - 1 cycles after each real one: spans of exactly 1 and 2
@pytest.mark.parametrize("period", [2, 3])
@pytest.mark.parametrize("capacity", [32, 1])
def test_bare_clock_spans_of_one_and_two_cycles(period, capacity):
    fast, steady = _bare(repro.kernel, capacity, DURATIONS, period)
    oracle, _none = _bare(reference_kernel, capacity, DURATIONS, period)
    assert fast == oracle
    _simulator, _clock, counter = _bare_run(repro.kernel, capacity,
                                            DURATIONS, period)
    # (a deadline may cut a span of 2 to 1)
    assert period - 1 in counter.spans
    assert set(counter.spans) <= {1, period - 1}
    assert sum(counter.spans) == steady


def test_each_span_step_runs_once_per_fast_forward():
    simulator, _clock, counter = _bare_run(repro.kernel, 32, DURATIONS)
    assert simulator.steady_spans > 1
    assert len(counter.spans) == simulator.steady_spans
    assert counter.fall_spans == counter.spans
    assert sum(counter.spans) == simulator.steady_cycles
    # spans never go back to cycle-by-cycle calls
    assert max(counter.spans) > 1


def _quiet_card(oracle=False, supply=DPM_SUPPLY):
    """A card left alone on a DPM supply: its peripherals fall idle,
    the TRNG finishes its harvest and the PSMs gate, then sleep."""
    platform = _platform(oracle)
    stack = platform.attach_power(FixedTimeoutPolicy(**DPM_POLICY),
                                  supply=supply)
    return platform, stack


def _record_spans(stack):
    """Every supply span as (bus cycle of its first sample, cycles)."""
    spans = []
    span = stack.supply.span

    def recording(drains, cycle):
        spans.append((cycle, len(drains)))
        span(drains, cycle)
    stack.supply.span = recording
    return spans


def _equal_to_oracle(platform, stack, oracle, oracle_stack):
    assert _books(platform, stack) == _books(oracle, oracle_stack)
    assert _kernel_state(platform) == _kernel_state(oracle)


def test_a_deadline_cuts_a_span_and_the_next_run_goes_on():
    period = _quiet_card()[0].clock.period
    # deadlines between the edges: the first falls mid-span
    durations = (period * 437 + period // 4, period * 611 + period // 2)
    cards = []
    for oracle in (False, True):
        platform, stack = _quiet_card(oracle)
        if not oracle:
            spans = _record_spans(stack)
        platform.simulator.run(durations[0])
        if not oracle:
            # the run stopped with every hint still steady: the
            # deadline, not a hint, ended the last span
            simulator = platform.simulator
            assert spans and simulator.now == durations[0]
            assert all(process.steady_until > process.run_count
                       for process in simulator._steady.procs)
            assert spans[-1][0] + spans[-1][1] == platform.bus.cycle
            cut = len(spans)
        platform.simulator.run(durations[1])
        cards.append((platform, stack))
    assert len(spans) > cut
    _equal_to_oracle(*cards[0], *cards[1])


def test_a_psm_timeout_ends_a_span():
    platform, stack = _quiet_card()
    spans = _record_spans(stack)
    transitions = []
    for name, psm in stack.psms.items():
        def recording(target, request=psm.request, name=name, **options):
            changed = request(target, **options)
            if changed:
                transitions.append((name, target, platform.bus.cycle))
            return changed
        psm.request = recording
    platform.run_cycles(800)
    oracle, oracle_stack = _quiet_card(oracle=True)
    oracle.run_cycles(800)
    _equal_to_oracle(platform, stack, oracle, oracle_stack)
    timeouts = [(name, cycle) for name, target, cycle in transitions
                if target in (repro.power.PowerState.CLOCK_GATED,
                              repro.power.PowerState.SLEEP)]
    # every PSM gates, then sleeps ...
    assert len(timeouts) == 2 * len(stack.psms)
    # ... in the full cycle right after a span the countdown ended
    ends = {first + cycles for first, cycles in spans}
    assert all(cycle in ends for _name, cycle in timeouts)


#: no harvest, a high brownout: the charge falls every cycle and
#: crosses the threshold while both timers run
DRAINING_SUPPLY = dict(capacity_nj=5.0, harvest_pj_per_cycle=0.0,
                       brownout_nj=4.3, power_loss_nj=0.0)


@pytest.mark.parametrize("supply", [DPM_SUPPLY, DRAINING_SUPPLY],
                         ids=["harvesting", "draining"])
def test_two_running_timers_replay_two_bookings_per_cycle(supply):
    cards = []
    for oracle in (False, True):
        platform, stack = _quiet_card(oracle, supply)
        platform.run_cycles(400)
        platform.timers.configure(0, 700)
        platform.timers.configure(1, 450, auto_reload=False)
        platform.run_cycles(1_500)
        cards.append((platform, stack))
    assert cards[0][0].timers.overflows == [2, 1]
    assert cards[0][0].simulator.steady_cycles > 1_000
    if supply is DRAINING_SUPPLY:
        assert 400 < cards[0][1].supply.brownouts[0].cycle < 850
    _equal_to_oracle(*cards[0], *cards[1])


def test_brownout_and_power_loss_inside_one_span():
    platform, stack = _quiet_card(supply=STARVED_SUPPLY)
    spans = _record_spans(stack)
    platform.run_cycles(4_000)
    oracle, oracle_stack = _quiet_card(oracle=True, supply=STARVED_SUPPLY)
    oracle.run_cycles(4_000)
    # cycles and charge_nj reprs among the books
    _equal_to_oracle(platform, stack, oracle, oracle_stack)
    (brownout,), (loss,) = stack.supply.brownouts, stack.supply.power_losses
    assert [(event.cycle, repr(event.charge_nj))
            for event in (brownout, loss)] == [
        (event.cycle, repr(event.charge_nj))
        for event in oracle_stack.supply.brownouts
        + oracle_stack.supply.power_losses]
    assert any(first <= brownout.cycle < loss.cycle < first + cycles
               for first, cycles in spans)
