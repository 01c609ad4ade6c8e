"""HW/SW interface study for the crypto coprocessor (extension).

The paper's introduction motivates the whole bus-modelling effort with
exactly this question: "Algorithms with high computational effort,
like cryptographic algorithms, are often supported by dedicated
coprocessors.  The chosen HW/SW interface to control these
coprocessors influences both system performance and power consumption"
(§1).  The paper never quantifies it; with the substrate built here we
can.  Three implementations of XTEA-encrypting a message are compared
on the energy-aware layer-1 bus:

* ``software``  — the cipher in MIPS assembly on the core (every round
  hits the bus for key loads, and the loop streams instruction
  fetches),
* ``pio``       — the crypto coprocessor driven by the CPU through its
  special-function registers (write block, start, poll, read block),
* ``dma``       — the coprocessor fetches and stores blocks itself
  through an arbitrated bus master port while the CPU only programs
  the descriptor and polls once.

All three run behind the same registered bus arbiter so the bus-level
playing field is identical.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.ec import MemoryMap
from repro.report import Column, Report, Reported, yes_no
from repro.soc.crypto import (CryptoCoprocessor, DmaDriver,
                              xtea_encrypt)
from repro.soc.cpu import MipsCore
from repro.soc.memory import Rom, ScratchpadRam
from repro.soc.layers import build_bus
from repro.tlm import BusArbiter

from .common import characterization

ROM_BASE = 0x0000_0000
RAM_BASE = 0x0004_0000
CRYPTO_BASE = 0x0005_0000

KEY = [0x0F1E2D3C, 0x4B5A6978, 0x8796A5B4, 0xC3D2E1F0]

#: RAM layout (byte offsets)
KEY_OFFSET = 0x000
SRC_OFFSET = 0x100
DST_OFFSET = 0x500
FLAG_OFFSET = 0x7FC  # completion flag the programs set before halt


def make_plaintext(blocks: int) -> typing.List[typing.Tuple[int, int]]:
    return [((0x01010101 * (i + 1)) & 0xFFFFFFFF,
             (0x10F0F0F0 ^ (i * 0x01020304)) & 0xFFFFFFFF)
            for i in range(blocks)]


# ---------------------------------------------------------------------------
# the three programs
# ---------------------------------------------------------------------------

def software_program(blocks: int) -> str:
    """XTEA fully in software: 32 Feistel rounds per block."""
    return f"""
        lui   $s0, {RAM_BASE >> 16:#x}      # RAM base
        addiu $s1, $s0, {KEY_OFFSET}        # key[]
        addiu $s4, $s0, {SRC_OFFSET}        # src cursor
        addiu $s5, $s0, {DST_OFFSET}        # dst cursor
        addiu $s6, $zero, {blocks}          # block counter
        lui   $s3, 0x9E37
        ori   $s3, $s3, 0x79B9              # delta

block:  lw    $t0, 0($s4)                   # v0
        lw    $t1, 4($s4)                   # v1
        addiu $t2, $zero, 0                 # sum
        addiu $t3, $zero, 32                # round counter

round:  sll   $t4, $t1, 4
        srl   $t5, $t1, 5
        xor   $t4, $t4, $t5
        addu  $t4, $t4, $t1
        andi  $t5, $t2, 3
        sll   $t5, $t5, 2
        addu  $t5, $t5, $s1
        lw    $t5, 0($t5)                   # key[sum & 3]
        addu  $t5, $t2, $t5
        xor   $t4, $t4, $t5
        addu  $t0, $t0, $t4                 # v0 += ...
        addu  $t2, $t2, $s3                 # sum += delta
        sll   $t4, $t0, 4
        srl   $t5, $t0, 5
        xor   $t4, $t4, $t5
        addu  $t4, $t4, $t0
        srl   $t5, $t2, 11
        andi  $t5, $t5, 3
        sll   $t5, $t5, 2
        addu  $t5, $t5, $s1
        lw    $t5, 0($t5)                   # key[(sum >> 11) & 3]
        addu  $t5, $t2, $t5
        xor   $t4, $t4, $t5
        addu  $t1, $t1, $t4                 # v1 += ...
        addiu $t3, $t3, -1
        bne   $t3, $zero, round

        sw    $t0, 0($s5)
        sw    $t1, 4($s5)
        addiu $s4, $s4, 8
        addiu $s5, $s5, 8
        addiu $s6, $s6, -1
        bne   $s6, $zero, block

        addiu $t0, $zero, 1
        sw    $t0, {FLAG_OFFSET}($s0)
        halt
"""


def pio_program(blocks: int) -> str:
    """CPU drives the coprocessor's registers block by block."""
    return f"""
        lui   $s0, {RAM_BASE >> 16:#x}
        lui   $s2, {CRYPTO_BASE >> 16:#x}
        addiu $s4, $s0, {SRC_OFFSET}
        addiu $s5, $s0, {DST_OFFSET}
        addiu $s6, $zero, {blocks}

block:  lw    $t0, 0($s4)
        sw    $t0, 16($s2)                  # DIN0
        lw    $t0, 4($s4)
        sw    $t0, 20($s2)                  # DIN1
        addiu $t0, $zero, 1
        sw    $t0, 32($s2)                  # CTRL = START

poll:   lw    $t0, 36($s2)                  # STATUS
        andi  $t0, $t0, 2                   # DONE bit
        beq   $t0, $zero, poll

        lw    $t0, 24($s2)                  # DOUT0
        sw    $t0, 0($s5)
        lw    $t0, 28($s2)                  # DOUT1
        sw    $t0, 4($s5)
        addiu $s4, $s4, 8
        addiu $s5, $s5, 8
        addiu $s6, $s6, -1
        bne   $s6, $zero, block

        addiu $t0, $zero, 1
        sw    $t0, {FLAG_OFFSET}($s0)
        halt
"""


def dma_program(blocks: int) -> str:
    """CPU programs one DMA descriptor and waits for completion."""
    return f"""
        lui   $s0, {RAM_BASE >> 16:#x}
        lui   $s2, {CRYPTO_BASE >> 16:#x}
        addiu $t0, $s0, {SRC_OFFSET}
        sw    $t0, 40($s2)                  # SRC
        addiu $t0, $s0, {DST_OFFSET}
        sw    $t0, 44($s2)                  # DST
        addiu $t0, $zero, {blocks}
        sw    $t0, 48($s2)                  # LEN
        addiu $t0, $zero, 2
        sw    $t0, 32($s2)                  # CTRL = DMA_START

poll:   lw    $t0, 36($s2)                  # STATUS
        andi  $t0, $t0, 2
        beq   $t0, $zero, poll

        addiu $t0, $zero, 1
        sw    $t0, {FLAG_OFFSET}($s0)
        halt
"""


# ---------------------------------------------------------------------------
# the harness
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class ImplementationResult:
    """Measured cost of one implementation style."""

    name: str
    cycles: int
    bus_energy_pj: float
    coprocessor_energy_pj: float
    bus_transactions: int
    cpu_instructions: int
    correct: bool

    @property
    def total_energy_pj(self) -> float:
        return self.bus_energy_pj + self.coprocessor_energy_pj


@dataclasses.dataclass
class CoprocessorStudyResult(Reported):
    blocks: int
    rows: typing.List[ImplementationResult]

    def row(self, name: str) -> ImplementationResult:
        for row in self.rows:
            if row.name == name:
                return row
        raise KeyError(name)

    def report(self) -> Report:
        return Report(
            f"Crypto HW/SW interface study ({self.blocks} XTEA blocks):",
            columns=[
                Column("implementation", 12, "{name}", "<"),
                Column("cycles", 9, "{cycles}"),
                Column("bus pJ", 11, "{bus_energy_pj:.1f}"),
                Column("engine pJ", 11, "{coprocessor_energy_pj:.1f}"),
                Column("bus txns", 10, "{bus_transactions}"),
                Column("CPU instr", 11, "{cpu_instructions}"),
                Column("ok", 4, lambda row: yes_no(row.correct)),
            ], rows=self.rows)


def _run_implementation(name: str, program: str, blocks: int,
                        table) -> ImplementationResult:
    memory_map = MemoryMap()
    rom = Rom(ROM_BASE)
    ram = ScratchpadRam(RAM_BASE, size=0x800)
    crypto = CryptoCoprocessor(CRYPTO_BASE)
    memory_map.add_slave(rom, "rom")
    memory_map.add_slave(ram, "ram")
    memory_map.add_slave(crypto, "crypto")
    layer_bus = build_bus("layer1", None, None, memory_map, table)
    simulator, clock, bus = layer_bus.simulator, layer_bus.clock, layer_bus.bus
    bus.enable_tracing()
    arbiter = BusArbiter(simulator, clock, bus, policy="priority")
    cpu = MipsCore(simulator, clock, arbiter.port("cpu", priority=0),
                   reset_pc=ROM_BASE)
    crypto.attach_dma_port(arbiter.port("crypto_dma", priority=1))
    DmaDriver(simulator, clock, crypto)
    # memory image: key, plaintext, program
    plaintext = make_plaintext(blocks)
    for index, word in enumerate(KEY):
        ram.poke(KEY_OFFSET + 4 * index, word)
        crypto.registers[index] = word  # pre-loaded key registers
    for index, (v0, v1) in enumerate(plaintext):
        ram.poke(SRC_OFFSET + 8 * index, v0)
        ram.poke(SRC_OFFSET + 8 * index + 4, v1)
    from repro.soc.assembler import assemble
    rom.load(0, assemble(program, origin=ROM_BASE))
    cpu.run_to_halt(2_000_000)
    if cpu.fault:
        raise RuntimeError(f"{name} implementation faulted: {cpu.fault}")
    correct = ram.peek(FLAG_OFFSET) == 1
    for index, (v0, v1) in enumerate(plaintext):
        expected = xtea_encrypt(v0, v1, KEY)
        got = (ram.peek(DST_OFFSET + 8 * index),
               ram.peek(DST_OFFSET + 8 * index + 4))
        if got != expected:
            correct = False
    # busy span: first issue to last completion (bus.cycle includes
    # the idle tail of the last run slice)
    finished = [t for t in bus.trace_log if t.data_done_cycle is not None]
    cycles = (max(t.data_done_cycle for t in finished)
              - min(t.issue_cycle for t in finished) + 1)
    return ImplementationResult(
        name, cycles, layer_bus.energy_pj(), crypto.energy_pj,
        bus.transactions_completed, cpu.instructions_executed, correct)


def run_coprocessor_study(blocks: int = 4) -> CoprocessorStudyResult:
    """Measure the three implementation styles (see module docstring)."""
    table = characterization().table
    rows = [
        _run_implementation("software", software_program(blocks), blocks,
                            table),
        _run_implementation("pio", pio_program(blocks), blocks, table),
        _run_implementation("dma", dma_program(blocks), blocks, table),
    ]
    return CoprocessorStudyResult(blocks, rows)
