"""Shared machinery for the paper-reproduction experiments.

Provides the §4.1 verification/evaluation flow:

1. execute an assembly test program on the layer-1 platform with the
   MIPS core and trace the bus transactions,
2. replay the trace on the gate-level bus, the layer-1 bus and the
   layer-2 bus,
3. compare cycle counts (Table 1), energies (Table 2) and simulation
   speed (Table 3).
"""

from __future__ import annotations

import dataclasses
import functools
import time
import typing

from repro.power.characterize import (CharacterizationResult,
                                      default_characterization)
from repro.power.table import CharacterizationTable
# CLOCK_PERIOD is re-exported: scripts outside the package import it here
from repro.soc.layers import CLOCK_PERIOD, build_bus
from repro.soc.smartcard import SmartCardPlatform, fresh_memory_map
from repro.tlm import MessageRun, PipelinedMaster, run_script
from repro.workloads import BusTrace

#: cycle budget of one replay; every script here ends long before it
MAX_REPLAY_CYCLES = 2_000_000


@dataclasses.dataclass
class RunResult:
    """Outcome of one model run over one script."""

    model: str
    cycles: int
    transactions: int
    wall_seconds: float
    energy_pj: typing.Optional[float] = None

    @property
    def transactions_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return float("inf")
        return self.transactions / self.wall_seconds


@functools.lru_cache(maxsize=1)
def characterization() -> CharacterizationResult:
    """The shared characterisation run (cached per process)."""
    return default_characterization()


def run_on_layer(layer: str, script, table: typing.Optional[
        CharacterizationTable] = None) -> RunResult:
    """Replay *script* on one rung (``"layer1"``, ``"layer2"``,
    ``"gate-level"`` or ``"layer3"``) over a fresh Figure-1 memory map.

    With *table* the run is priced: the TLM layers through their energy
    models, gate level through Diesel.  Layer 3 is untimed and
    unpriced: the script completes through
    :class:`~repro.tlm.MessageRun`, in 0 cycles and with energy
    ``None``.  An unknown *layer* raises :class:`ValueError`.
    """
    layer_bus = build_bus(layer, None, None, fresh_memory_map(),
                          table=table)
    simulator, clock = layer_bus.simulator, layer_bus.clock
    if clock is None:
        started = time.perf_counter()
        run = MessageRun(layer_bus.bus, script)
    else:
        run = PipelinedMaster(simulator, clock, layer_bus.bus, script)
        started = time.perf_counter()
        run_script(simulator, run, MAX_REPLAY_CYCLES, clock)
    # the energy read is part of the run: it settles deferred work
    # (layer 1's last flush, gate level's Diesel estimate)
    energy = layer_bus.energy_pj()
    wall = time.perf_counter() - started
    cycles = 0 if clock is None else _busy_cycles(run)
    return RunResult(layer_bus.layer, cycles, len(run.completed), wall,
                     energy)


def _busy_cycles(master) -> int:
    """Cycle span from first issue to last completion, inclusive."""
    issued = [t.issue_cycle for t in master.completed
              if t.issue_cycle is not None]
    done = [t.data_done_cycle for t in master.completed
            if t.data_done_cycle is not None]
    if not issued or not done:
        return 0
    return max(done) - min(issued) + 1


#: The §4.1 assembly test program: a smart card "transaction": read a
#: record from EEPROM into RAM, checksum it, update a counter record
#: in EEPROM (triggering programming-busy windows), then log a byte
#: stream to the UART — a realistic mix of fetch bursts, RAM traffic
#: and slow EEPROM accesses.
TEST_PROGRAM = """
        lui   $s0, 0x0030          # RAM
        lui   $s1, 0x0020          # EEPROM
        lui   $s2, 0x0040          # UART

        # seed a record in EEPROM (8 words)
        addiu $t0, $zero, 0
        addiu $t1, $zero, 8
seed:   sll   $t2, $t0, 10
        xori  $t2, $t2, 0x2BAD
        sll   $t3, $t0, 2
        addu  $t3, $t3, $s1
        sw    $t2, 0($t3)
        addiu $t0, $t0, 1
        bne   $t0, $t1, seed

        # copy the record EEPROM -> RAM, accumulating a checksum
        addiu $t0, $zero, 0
        addiu $t4, $zero, 0
copy:   sll   $t3, $t0, 2
        addu  $t5, $t3, $s1
        lw    $t2, 0($t5)
        addu  $t6, $t3, $s0
        sw    $t2, 0($t6)
        addu  $t4, $t4, $t2
        addiu $t0, $t0, 1
        bne   $t0, $t1, copy

        # store checksum and bump the update counter in EEPROM
        sw    $t4, 64($s1)
        lw    $t7, 68($s1)
        addiu $t7, $t7, 1
        sw    $t7, 68($s1)

        # enable the UART and log four checksum bytes
        addiu $t0, $zero, 1
        sw    $t0, 8($s2)
        addiu $t0, $zero, 0
        addiu $t1, $zero, 4
log:    andi  $t2, $t4, 0xFF
        sw    $t2, 0($s2)
        srl   $t4, $t4, 8
        addiu $t0, $t0, 1
        bne   $t0, $t1, log

        # drain: spin while the UART shifts the bytes out
        addiu $t2, $zero, 80
spin:   addiu $t2, $t2, -1
        bne   $t2, $zero, spin

        # commit burst: four posted stores straight into EEPROM (the
        # write budget fills) followed by immediate read-back — the
        # programming-busy window makes wait states change between
        # request creation and service, the one situation where the
        # layer-2 snapshot is stale
        addiu $t0, $zero, 4
commit: sll   $t3, $t0, 2
        addu  $t3, $t3, $s1
        sw    $t7, 256($t3)
        addiu $t0, $t0, -1
        bne   $t0, $zero, commit
        lw    $t8, 260($s1)
        lw    $t8, 264($s1)
        lw    $t8, 268($s1)

        halt
"""


@functools.lru_cache(maxsize=1)
def test_program_trace() -> BusTrace:
    """Execute the §4.1 test program and capture its bus trace."""
    platform = SmartCardPlatform(bus_layer=1, with_cpu=True)
    platform.bus.enable_tracing()
    platform.load_assembly(TEST_PROGRAM)
    platform.cpu.run_to_halt(200_000)
    if platform.cpu.fault:
        raise RuntimeError(f"test program faulted: {platform.cpu.fault}")
    finished = [t for t in platform.bus.trace_log if t.finished]
    return BusTrace.from_completed(finished)


def evaluation_script() -> list:
    """The Table-1/Table-2 evaluation workload.

    Two back-to-back runs of the traced §4.1 test program (two card
    transactions) followed by an EEPROM programming-contention
    epilogue: a record write whose programming-busy window is still
    open when the subsequent reads are *created* but already closed
    when they are *serviced* — the one situation where the layer-2
    wait-state snapshot (§3.2) mis-times the bus.
    """
    from repro.ec import data_read, data_write
    from repro.soc.smartcard import EEPROM_BASE, RAM_BASE

    trace = test_program_trace()
    script = trace.to_script()
    second = trace.to_script()
    gap, first = second[0]
    second[0] = (gap + 20, first)
    script += second
    script += [
        data_write(EEPROM_BASE + 0x400, [0x5A5A0001]),
        (10, data_read(EEPROM_BASE + 0x404)),
        data_read(EEPROM_BASE + 0x408),
        data_read(RAM_BASE + 0x40),
    ]
    return script


def percent_error(value: float, reference: float) -> float:
    """Signed percentage error of *value* against *reference*."""
    if reference == 0:
        raise ZeroDivisionError("reference value is zero")
    return 100.0 * (value - reference) / reference
