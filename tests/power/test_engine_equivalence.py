"""Compiled energy paths vs the naive reference walks.

The packed-word engine must replay the exact float operations of the
per-cycle reference walk (``reference_energy.py``) — same products,
same addition order — so the equivalence demanded here is ``==`` on
floats, not ``approx``, across all twelve RTL scripts of the
layer-1-vs-RTL harness corpus, under both issue disciplines (blocking
and pipelined masters drive different waveforms):

* per cycle: the energy stream a :class:`SignalStateRecorder` captured
  on the layer-1 bus against the reference replay of its snapshots;
* deferred: a batch-flushed run's totals, per-group energies,
  per-signal transition counts and last-cycle energy against the
  recorder (eager) run and the reference;
* sliced reads: energy read every few cycles, so deferred windows are
  flushed at arbitrary cycle boundaries, reading the same per-slice
  energies as the eager run and the reference;
* layer 2: compiled phase constants + LUT beat walk against the live
  coefficient lookups.
"""

import pytest

from repro.kernel import Clock, Simulator
from repro.power import (Layer1PowerModel, Layer2PowerModel,
                         SignalStateRecorder, default_table)
from repro.power.layer1 import FLUSH_CAP
from repro.tlm import (BlockingMaster, EcBusLayer1, EcBusLayer2,
                       PipelinedMaster, run_script)

from tests.power.reference_energy import (ReferenceLayer1,
                                          ReferenceLayer2Model)
from tests.power.test_transition_luts import _drive
from tests.rtl.test_bus_rtl import SCRIPTS, build_memory_map

TABLE = default_table()

MASTERS = {"blocking": BlockingMaster, "pipelined": PipelinedMaster}

#: bus cycles between energy reads in the sliced runs; prime, so the
#: flush boundaries drift across transaction phases
SLICE_CYCLES = 7


def _build_layer1(script_name, discipline, with_recorder):
    simulator = Simulator(f"equiv_{script_name}_{discipline}")
    clock = Clock(simulator, "clk", period=100)
    memory_map, _ram = build_memory_map()
    recorder = SignalStateRecorder() if with_recorder else None
    model = Layer1PowerModel(TABLE, recorder=recorder)
    bus = EcBusLayer1(simulator, clock, memory_map, power_model=model)
    master = MASTERS[discipline](simulator, clock, bus,
                                 SCRIPTS[script_name]())
    return simulator, clock, bus, master, model, recorder


def _run_layer1(script_name, discipline, with_recorder):
    simulator, clock, _bus, master, model, recorder = _build_layer1(
        script_name, discipline, with_recorder)
    run_script(simulator, master, 10_000, clock)
    assert master.done
    return model, recorder


def _run_layer1_sliced(script_name, discipline, with_recorder):
    """Run in SLICE_CYCLES steps, reading the energy after each step;
    returns the model, recorder and ``(bus cycle, energy)`` readings."""
    simulator, clock, bus, master, model, recorder = _build_layer1(
        script_name, discipline, with_recorder)
    readings = []
    for _ in range(10_000 // SLICE_CYCLES):
        simulator.run(SLICE_CYCLES * clock.period)
        readings.append((bus.cycle, model.energy_since_last_call_pj()))
        if master.done:
            break
    assert master.done
    return model, recorder, readings


def _run_layer2(script_name, discipline, model_class):
    simulator = Simulator(f"equiv2_{script_name}_{discipline}")
    clock = Clock(simulator, "clk", period=100)
    memory_map, _ram = build_memory_map()
    model = model_class(TABLE)
    bus = EcBusLayer2(simulator, clock, memory_map, power_model=model)
    master = MASTERS[discipline](simulator, clock, bus,
                                 SCRIPTS[script_name]())
    run_script(simulator, master, 10_000, clock)
    assert master.done
    model.account_cycles(bus.cycle)
    return model


@pytest.mark.parametrize("discipline", sorted(MASTERS))
@pytest.mark.parametrize("script_name", sorted(SCRIPTS))
class TestLayer1PerCycleEquality:
    """Eager packed accounting vs the reference walk, cycle by cycle."""

    def test_per_cycle_energy_identical(self, script_name, discipline):
        model, recorder = _run_layer1(script_name, discipline,
                                      with_recorder=True)
        reference = ReferenceLayer1(TABLE)
        reference.replay(recorder.snapshots)
        # exact float equality, not approx: same ops, same order
        assert recorder.energies == reference.energies
        assert model.total_energy_pj == reference.total_energy_pj
        assert model.energy_last_cycle_pj() == reference.energies[-1]


@pytest.mark.parametrize("discipline", sorted(MASTERS))
@pytest.mark.parametrize("script_name", sorted(SCRIPTS))
class TestLayer1DeferredEquality:
    """Deferred batch flushes vs the recorder (eager) run and the
    reference walk, on every total."""

    def test_deferred_totals_identical(self, script_name, discipline):
        eager, recorder = _run_layer1(script_name, discipline,
                                      with_recorder=True)
        deferred, _ = _run_layer1(script_name, discipline,
                                  with_recorder=False)
        reference = ReferenceLayer1(TABLE)
        reference.replay(recorder.snapshots)
        for expected in (eager, reference):
            assert deferred.total_energy_pj == expected.total_energy_pj
            assert deferred.group_energy_pj == expected.group_energy_pj
            assert (deferred.transition_counts
                    == expected.transition_counts)
        assert (deferred.energy_last_cycle_pj()
                == eager.energy_last_cycle_pj()
                == reference.energies[-1])


@pytest.mark.parametrize("script_name", sorted(SCRIPTS))
class TestLayer1SlicedReadEquality:
    """Energy reads mid-run flush partial deferred windows; every
    per-slice reading must match the eager run and the reference."""

    def test_sliced_readings_identical(self, script_name):
        deferred, _, readings = _run_layer1_sliced(
            script_name, "pipelined", with_recorder=False)
        _eager, recorder, eager_readings = _run_layer1_sliced(
            script_name, "pipelined", with_recorder=True)
        assert readings == eager_readings
        reference = ReferenceLayer1(TABLE)
        expected = []
        start = 0
        for end, _energy in readings:
            reference.replay(recorder.snapshots[start:end])
            expected.append((end, reference._acc.since_last_call()))
            start = end
        assert readings == expected
        assert deferred.total_energy_pj == reference.total_energy_pj
        assert deferred.group_energy_pj == reference.group_energy_pj
        assert deferred.transition_counts == reference.transition_counts


class TestDeferredWindowCap:
    """A run longer than FLUSH_CAP cycles flushes full windows on its
    own, and the capped windows still replay the reference exactly."""

    def test_capped_windows_identical(self):
        cycles = 2 * FLUSH_CAP + 3
        recorder = SignalStateRecorder()
        eager = Layer1PowerModel(TABLE, recorder=recorder)
        deferred = Layer1PowerModel(TABLE)
        _drive(eager, cycles)
        _drive(deferred, cycles)
        # two full windows were flushed by the cap, three cycles wait
        assert len(deferred._pending) == 3
        reference = ReferenceLayer1(TABLE)
        reference.replay(recorder.snapshots)
        for expected in (eager, reference):
            assert deferred.total_energy_pj == expected.total_energy_pj
            assert deferred.group_energy_pj == expected.group_energy_pj
            assert (deferred.transition_counts
                    == expected.transition_counts)
        assert deferred.energy_last_cycle_pj() == reference.energies[-1]


@pytest.mark.parametrize("discipline", sorted(MASTERS))
@pytest.mark.parametrize("script_name", sorted(SCRIPTS))
class TestLayer2CompiledEquality:
    """Compiled layer-2 phase accounting vs the live-lookup reference."""

    def test_totals_identical(self, script_name, discipline):
        reference = _run_layer2(script_name, discipline,
                                ReferenceLayer2Model)
        compiled = _run_layer2(script_name, discipline, Layer2PowerModel)
        assert compiled.total_energy_pj == reference.total_energy_pj
        assert compiled.group_energy_pj == reference.group_energy_pj
