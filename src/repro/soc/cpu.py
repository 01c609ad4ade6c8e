"""MIPS-like instruction-set simulator acting as the bus master.

The paper's master is the MIPS 4KSc core whose bus interface unit
issues EC transactions; this ISS reproduces the externally visible
behaviour the bus cares about:

* instruction fetches are 4-word burst reads through a small line
  buffer (the cache-line fill traffic of Figure 1's I-cache),
* loads are blocking data reads of the addressed width,
* stores are *posted*: the core issues the write and keeps running,
  polling outstanding stores to completion (the 4-deep write budget),
* ``halt`` (MIPS ``break``) stops the core and fires an event.

Branch delay slots are not modelled — the assembler/ISS pair is a
trace generator for the bus, not a micro-architectural model; the
simplification is invisible at the bus interface.
"""

from __future__ import annotations

import collections
import typing

from repro.ec import (BusState, MergePattern, Transaction, data_read,
                      data_write, instruction_fetch)
from repro.ec.interfaces import BusMasterInterface
from repro.kernel import Clock, Module, Simulator

from .assembler import DI_WORD, EI_WORD, HALT_WORD

#: MIPS ``eret`` (COP0 function 0x18): return from exception
ERET_WORD = 0x42000018

#: default fetch line: 4 words (the 4K cache-line fill)
DEFAULT_FETCH_BURST = 4


def sign_extend_16(value: int) -> int:
    value &= 0xFFFF
    return value - 0x10000 if value & 0x8000 else value


def sign_extend_8(value: int) -> int:
    value &= 0xFF
    return value - 0x100 if value & 0x80 else value


class CpuFault(RuntimeError):
    """The core hit a bus error or an undecodable instruction."""


class MipsCore(Module):
    """A small MIPS-I subset ISS with an EC bus interface unit."""

    def __init__(self, simulator: Simulator, clock: Clock,
                 bus: BusMasterInterface, reset_pc: int = 0,
                 line_buffer_lines: int = 8,
                 fetch_burst_length: int = DEFAULT_FETCH_BURST,
                 name: str = "cpu") -> None:
        super().__init__(simulator, name)
        if fetch_burst_length not in (1, 2, 4):
            raise ValueError("fetch burst length must be 1, 2 or 4")
        self.clock = clock
        self.bus = bus
        self.fetch_burst_length = fetch_burst_length
        self._line_bytes = 4 * fetch_burst_length
        self._line_mask = ~(self._line_bytes - 1) & 0xFFFFFFFFF
        self.pc = reset_pc
        self.registers = [0] * 32
        # interrupt machinery: a source callable (usually the interrupt
        # controller's ``active``), a vector, and an EPC register
        self._interrupt_source: typing.Optional[
            typing.Callable[[], bool]] = None
        self.interrupt_vector = 0x0000_0180
        self.interrupts_enabled = False
        self.in_interrupt = False
        self.epc = 0
        self.interrupts_taken = 0
        self.hi = 0
        self.lo = 0
        self.halted = False
        self.fault: typing.Optional[str] = None
        self.instructions_executed = 0
        self.halted_event = simulator.event(f"{name}.halted")
        self._lines: "collections.OrderedDict[int, typing.List[int]]" = \
            collections.OrderedDict()
        self._line_capacity = line_buffer_lines
        self._fetch_txn: typing.Optional[Transaction] = None
        self._load_txn: typing.Optional[Transaction] = None
        self._load_target: typing.Optional[typing.Tuple[str, int, int]] = None
        self._pending_stores: typing.List[Transaction] = []
        self._stalled_store: typing.Optional[Transaction] = None
        self.method(self._step, name="step",
                    sensitive=[clock.posedge_event], dont_initialize=True)

    # ------------------------------------------------------------------
    # per-cycle behaviour
    # ------------------------------------------------------------------

    def bind_interrupt_source(self, source: typing.Callable[[], bool],
                              vector: int = 0x0000_0180) -> None:
        """Attach an interrupt line (level-sensitive) and its vector."""
        self._interrupt_source = source
        self.interrupt_vector = vector

    def _maybe_take_interrupt(self) -> bool:
        """Enter the handler if an enabled interrupt is pending."""
        if (self._interrupt_source is None or not self.interrupts_enabled
                or self.in_interrupt):
            return False
        if not self._interrupt_source():
            return False
        self.epc = self.pc
        self.pc = self.interrupt_vector
        self.in_interrupt = True
        self.interrupts_taken += 1
        return True

    def _step(self) -> None:
        if self.halted:
            # drain posted stores so late bus errors are still observed
            if self._pending_stores:
                self._poll_stores()
            return
        self._poll_stores()
        if self.halted:
            return  # a posted store faulted this cycle
        if self._stalled_store is not None:
            state = self.bus.issue(self._stalled_store)
            if state is BusState.WAIT:
                return
            self._pending_stores.append(self._stalled_store)
            self._stalled_store = None
        if self._load_txn is not None:
            self._advance_load()
            return
        if self._fetch_txn is not None:
            self._advance_fetch()
            return
        self._maybe_take_interrupt()
        word = self._fetch_word(self.pc)
        if word is None:
            return  # line fill issued; wait
        self._execute(word)

    def _halt(self, fault: typing.Optional[str] = None) -> None:
        self.halted = True
        if fault is not None:
            self.fault = fault  # never clear an earlier fault record
        self.halted_event.notify_delta()

    # -- instruction supply -------------------------------------------------

    def _fetch_word(self, address: int) -> typing.Optional[int]:
        line_address = address & self._line_mask
        line = self._lines.get(line_address)
        if line is not None:
            self._lines.move_to_end(line_address)
            return line[(address - line_address) // 4]
        self._fetch_txn = instruction_fetch(
            line_address, burst_length=self.fetch_burst_length)
        self.bus.issue(self._fetch_txn)
        return None

    def _advance_fetch(self) -> None:
        state = self.bus.issue(self._fetch_txn)
        if not state.finished:
            return
        if state is BusState.ERROR:
            self._halt(f"instruction fetch fault at {self.pc:#x}")
            return
        line_address = self._fetch_txn.address
        self._lines[line_address] = list(self._fetch_txn.data)
        if len(self._lines) > self._line_capacity:
            self._lines.popitem(last=False)
        self._fetch_txn = None
        # the fetched instruction executes next cycle (fill latency)

    # -- posted stores ---------------------------------------------------------

    def _poll_stores(self) -> None:
        still_pending = []
        for txn in self._pending_stores:
            state = self.bus.issue(txn)
            if state is BusState.ERROR:
                self._halt(f"store fault at {txn.address:#x}")
            elif not state.finished:
                still_pending.append(txn)
        self._pending_stores = still_pending

    # -- loads -----------------------------------------------------------------

    def _advance_load(self) -> None:
        state = self.bus.issue(self._load_txn)
        if not state.finished:
            return
        if state is BusState.ERROR:
            self._halt(f"load fault at {self._load_txn.address:#x}")
            return
        kind, register, address = self._load_target
        word = self._load_txn.data[0]
        lane = address % 4
        if kind == "lw":
            value = word
        elif kind == "lh":
            value = sign_extend_16(word >> (8 * lane)) & 0xFFFFFFFF
        elif kind == "lhu":
            value = (word >> (8 * lane)) & 0xFFFF
        elif kind == "lb":
            value = sign_extend_8(word >> (8 * lane)) & 0xFFFFFFFF
        elif kind == "lbu":
            value = (word >> (8 * lane)) & 0xFF
        else:  # pragma: no cover - decode guarantees the kinds above
            raise CpuFault(f"bad load kind {kind}")
        self._write_register(register, value)
        self._load_txn = None
        self._load_target = None

    # ------------------------------------------------------------------
    # decode & execute
    # ------------------------------------------------------------------

    def _read_register(self, index: int) -> int:
        return self.registers[index]

    def _write_register(self, index: int, value: int) -> None:
        if index != 0:
            self.registers[index] = value & 0xFFFFFFFF

    def _execute(self, word: int) -> None:
        self.instructions_executed += 1
        next_pc = self.pc + 4
        if word == HALT_WORD:
            self._halt()
            return
        if word == ERET_WORD:
            # return from the handler and re-enable interrupt entry
            self.in_interrupt = False
            self.pc = self.epc
            return
        if word == EI_WORD:
            self.interrupts_enabled = True
            self.pc = next_pc
            return
        if word == DI_WORD:
            self.interrupts_enabled = False
            self.pc = next_pc
            return
        opcode = (word >> 26) & 0x3F
        rs = (word >> 21) & 0x1F
        rt = (word >> 16) & 0x1F
        if opcode == 0x00:
            next_pc = self._execute_r_type(word, rs, rt, next_pc)
        elif opcode in (0x02, 0x03):  # j / jal
            if opcode == 0x03:
                self._write_register(31, next_pc)
            next_pc = ((self.pc + 4) & 0xF0000000) | ((word & 0x3FFFFFF) << 2)
        elif opcode in (0x04, 0x05):  # beq / bne
            taken = (self._read_register(rs) == self._read_register(rt))
            if opcode == 0x05:
                taken = not taken
            if taken:
                next_pc = self.pc + 4 + (sign_extend_16(word) << 2)
        elif opcode in (0x09, 0x0A, 0x0B, 0x0C, 0x0D, 0x0E, 0x0F):
            self._execute_immediate(word, opcode, rs, rt)
        elif opcode in (0x20, 0x21, 0x23, 0x24, 0x25):  # loads
            self._issue_load(word, opcode, rs, rt)
        elif opcode in (0x28, 0x29, 0x2B):  # stores
            self._issue_store(word, opcode, rs, rt)
        else:
            self._halt(f"illegal opcode {opcode:#x} at {self.pc:#x}")
            return
        self.pc = next_pc & 0xFFFFFFFF

    def _execute_r_type(self, word: int, rs: int, rt: int,
                        next_pc: int) -> int:
        funct = word & 0x3F
        rd = (word >> 11) & 0x1F
        shamt = (word >> 6) & 0x1F
        a = self._read_register(rs)
        b = self._read_register(rt)
        if funct == 0x08:  # jr
            return a
        if funct == 0x09:  # jalr
            self._write_register(rd, next_pc)
            return a
        if funct == 0x18:  # mult (signed)
            product = _signed(a) * _signed(b)
            self.lo = product & 0xFFFFFFFF
            self.hi = (product >> 32) & 0xFFFFFFFF
            return next_pc
        if funct == 0x19:  # multu
            product = a * b
            self.lo = product & 0xFFFFFFFF
            self.hi = (product >> 32) & 0xFFFFFFFF
            return next_pc
        if funct == 0x1A:  # div (signed, MIPS truncates toward zero)
            if b != 0:
                quotient = int(_signed(a) / _signed(b))
                self.lo = quotient & 0xFFFFFFFF
                self.hi = (_signed(a) - quotient * _signed(b)) \
                    & 0xFFFFFFFF
            return next_pc
        if funct == 0x1B:  # divu
            if b != 0:
                self.lo = a // b
                self.hi = a % b
            return next_pc
        if funct == 0x10:  # mfhi
            self._write_register(rd, self.hi)
            return next_pc
        if funct == 0x12:  # mflo
            self._write_register(rd, self.lo)
            return next_pc
        if funct == 0x21:
            result = a + b
        elif funct == 0x23:
            result = a - b
        elif funct == 0x24:
            result = a & b
        elif funct == 0x25:
            result = a | b
        elif funct == 0x26:
            result = a ^ b
        elif funct == 0x27:
            result = ~(a | b)
        elif funct == 0x2A:
            result = int(_signed(a) < _signed(b))
        elif funct == 0x2B:
            result = int(a < b)
        elif funct == 0x00:
            result = b << shamt
        elif funct == 0x02:
            result = b >> shamt
        elif funct == 0x03:
            result = _signed(b) >> shamt
        else:
            self._halt(f"illegal funct {funct:#x} at {self.pc:#x}")
            return next_pc
        self._write_register(rd, result)
        return next_pc

    def _execute_immediate(self, word: int, opcode: int, rs: int,
                           rt: int) -> None:
        a = self._read_register(rs)
        imm_signed = sign_extend_16(word)
        imm_zero = word & 0xFFFF
        if opcode == 0x09:
            result = a + imm_signed
        elif opcode == 0x0A:
            result = int(_signed(a) < imm_signed)
        elif opcode == 0x0B:
            result = int(a < (imm_signed & 0xFFFFFFFF))
        elif opcode == 0x0C:
            result = a & imm_zero
        elif opcode == 0x0D:
            result = a | imm_zero
        elif opcode == 0x0E:
            result = a ^ imm_zero
        else:  # lui
            result = imm_zero << 16
        self._write_register(rt, result)

    _LOAD_KINDS = {0x23: "lw", 0x21: "lh", 0x25: "lhu",
                   0x20: "lb", 0x24: "lbu"}
    _LOAD_PATTERNS = {"lw": MergePattern.WORD, "lh": MergePattern.HALFWORD,
                      "lhu": MergePattern.HALFWORD,
                      "lb": MergePattern.BYTE, "lbu": MergePattern.BYTE}

    def _issue_load(self, word: int, opcode: int, rs: int,
                    rt: int) -> None:
        kind = self._LOAD_KINDS[opcode]
        address = (self._read_register(rs) + sign_extend_16(word)) \
            & 0xFFFFFFFF
        txn = data_read(address, self._LOAD_PATTERNS[kind])
        self._load_txn = txn
        self._load_target = (kind, rt, address)
        self.bus.issue(txn)

    def _issue_store(self, word: int, opcode: int, rs: int,
                     rt: int) -> None:
        address = (self._read_register(rs) + sign_extend_16(word)) \
            & 0xFFFFFFFF
        value = self._read_register(rt)
        lane = address % 4
        if opcode == 0x2B:
            pattern, data = MergePattern.WORD, value
        elif opcode == 0x29:
            pattern, data = MergePattern.HALFWORD, \
                (value & 0xFFFF) << (8 * lane)
        else:
            pattern, data = MergePattern.BYTE, (value & 0xFF) << (8 * lane)
        txn = data_write(address, [data], pattern)
        state = self.bus.issue(txn)
        if state is BusState.WAIT:
            self._stalled_store = txn  # write budget full: retry
        else:
            self._pending_stores.append(txn)

    # ------------------------------------------------------------------

    @property
    def quiesced(self) -> bool:
        """Halted with no bus activity left in flight."""
        return (self.halted and not self._pending_stores
                and self._stalled_store is None)

    def run_to_halt(self, max_cycles: int = 1_000_000) -> None:
        """Run the kernel in slices until the core halts and its posted
        stores have drained."""
        slice_cycles = 256
        elapsed = 0
        while elapsed < max_cycles:
            self.simulator.run(slice_cycles * self.clock.period)
            elapsed += slice_cycles
            if self.quiesced:
                return
        raise TimeoutError(
            f"core did not halt within {max_cycles} cycles "
            f"(pc={self.pc:#x})")


def _signed(value: int) -> int:
    value &= 0xFFFFFFFF
    return value - 0x100000000 if value & 0x80000000 else value
