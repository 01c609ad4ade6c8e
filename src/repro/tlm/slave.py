"""Generic behavioural bus slaves.

These implement the paper's slave side: address range, per-phase wait
states, access-right bits (§3.1), and a non-blocking per-beat data
interface that returns ``WAIT`` for its configured number of cycles
before answering ``OK``.  Concrete peripherals in :mod:`repro.soc`
subclass :class:`MemorySlave` / :class:`RegisterSlave`.
"""

from __future__ import annotations

import typing

from repro.ec import (AccessRights, BYTES_PER_WORD, DATA_MASK, BusState,
                      SlaveResponse, WaitStates)
from repro.ec.interfaces import Slave

_OK = BusState.OK


def _lane_merge(old: int, new: int, byte_enables: int) -> int:
    """Merge *new* into *old* on the byte lanes enabled."""
    result = old
    for lane in range(BYTES_PER_WORD):
        if byte_enables & (1 << lane):
            shift = 8 * lane
            result = (result & ~(0xFF << shift)) | (new & (0xFF << shift))
    return result & DATA_MASK


class BehaviouralSlave(Slave):
    """Base class handling wait-state pacing for the data interface.

    The bus process invokes ``read_beat``/``write_beat`` every cycle of
    the data phase; this class counts the invocations and answers
    ``WAIT`` until the configured read/write wait states have elapsed,
    then delegates to :meth:`do_read` / :meth:`do_write`.
    """

    def __init__(self, base_address: int, size: int,
                 wait_states: WaitStates = WaitStates(),
                 access_rights: AccessRights = AccessRights.ALL,
                 name: str = "slave") -> None:
        self.name = name
        self._base_address = base_address
        self._size = size
        self._wait_states = wait_states
        self._access_rights = access_rights
        # one pacing slot per direction: the bus may advance a read and
        # a write beat on the same slave in the same cycle (§3.1)
        self._pending: typing.Dict[str, typing.Optional[list]] = {
            "r": None, "w": None}
        self.reads = 0
        self.writes = 0

    # -- control interface -------------------------------------------------

    @property
    def base_address(self) -> int:
        return self._base_address

    @property
    def size(self) -> int:
        return self._size

    @property
    def wait_states(self) -> WaitStates:
        return self._wait_states

    @wait_states.setter
    def wait_states(self, value: WaitStates) -> None:
        self._wait_states = value

    @property
    def access_rights(self) -> AccessRights:
        return self._access_rights

    # -- data interface -----------------------------------------------------

    def read_beat(self, offset: int, byte_enables: int) -> SlaveResponse:
        # each beat samples the wait states once, at its first cycle,
        # through the property — dynamic slaves (EEPROM busy windows)
        # override it and the beat must see the live value
        slot = self._pending["r"]
        if slot is None or slot[0] != offset:
            slot = [offset, self.wait_states.read]
            self._pending["r"] = slot
        if slot[1] > 0:
            slot[1] -= 1
            return SlaveResponse.wait()
        self._pending["r"] = None
        self.reads += 1
        return self.do_read(offset, byte_enables)

    def write_beat(self, offset: int, byte_enables: int,
                   data: int) -> SlaveResponse:
        slot = self._pending["w"]
        if slot is None or slot[0] != offset:
            slot = [offset, self.wait_states.write]
            self._pending["w"] = slot
        if slot[1] > 0:
            slot[1] -= 1
            return SlaveResponse.wait()
        self._pending["w"] = None
        self.writes += 1
        return self.do_write(offset, byte_enables, data)

    def cancel_pending(self, direction: typing.Optional[str] = None
                       ) -> None:
        """Clear the wait-state countdown of an in-progress beat.

        Called by the bus models when a watchdog evicts the transaction
        the beat belongs to, so the next beat (a different transaction,
        or a retry of the same one) re-samples the wait states instead
        of inheriting a stale countdown.  *direction* is ``"r"``,
        ``"w"`` or ``None`` for both.
        """
        for slot in ("r", "w") if direction is None else (direction,):
            self._pending[slot] = None

    # -- layer-2 block interface (pointer passing, §3.2) -----------------------

    def read_block(self, offset: int, num_words: int, byte_enables: int
                   ) -> typing.Tuple[typing.List[int], bool]:
        """Layer-2 single-call burst read; returns (words, error_flag).

        Data for the whole transaction is produced at once at the end of
        the data phase — the layer-2 "pointer passing" abstraction.
        *byte_enables* applies to single (sub-word) transfers; bursts
        are whole words.  On a mid-burst error *words* holds the beats
        served before the fault — the same partial progress the layer-1
        beat-level interface would have delivered.
        """
        words: typing.List[int] = []
        for beat in range(num_words):
            enables = byte_enables if num_words == 1 else 0b1111
            response = self.do_read(offset + beat * BYTES_PER_WORD, enables)
            if response.state is not _OK:
                return words, True
            self.reads += 1
            words.append(response.data)
        return words, False

    def write_block(self, offset: int, words: typing.Sequence[int],
                    byte_enables: int) -> typing.Tuple[int, bool]:
        """Layer-2 single-call burst write.

        Returns ``(beats_ok, error_flag)`` — the number of beats
        committed before a fault, mirroring layer 1's partial progress.
        """
        for beat, word in enumerate(words):
            enables = byte_enables if len(words) == 1 else 0b1111
            response = self.do_write(offset + beat * BYTES_PER_WORD,
                                     enables, word)
            if response.state is not _OK:
                return beat, True
            self.writes += 1
        return len(words), False

    # -- hooks ---------------------------------------------------------------

    def do_read(self, offset: int,
                byte_enables: int) -> SlaveResponse:  # pragma: no cover
        raise NotImplementedError

    def do_write(self, offset: int, byte_enables: int,
                 data: int) -> SlaveResponse:  # pragma: no cover
        raise NotImplementedError

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({self.name!r} "
                f"@{self._base_address:#x}+{self._size:#x})")


class MemorySlave(BehaviouralSlave):
    """Word-organised memory with byte-lane merging.

    Models the smart card memories of Figure 1 (ROM, EEPROM, FLASH,
    scratchpad RAM) — each instance differs only in size, wait states
    and access rights.

    The contents are a sparse word store: a dict from word index to
    value holding only the words ever stored, so an absent word reads
    as 0.  A card replay touches a few hundred of the Figure-1 map's
    92,160 words, and a dense per-word list would dominate the cost
    of building (and holding) every fresh card.  Every accessor
    raises ``IndexError`` for an offset outside ``[0, size)``.
    """

    def __init__(self, base_address: int, size: int,
                 wait_states: WaitStates = WaitStates(),
                 access_rights: AccessRights = AccessRights.ALL,
                 name: str = "memory") -> None:
        if size % BYTES_PER_WORD:
            raise ValueError("memory size must be a whole number of words")
        super().__init__(base_address, size, wait_states, access_rights,
                         name)
        self._words: typing.Dict[int, int] = {}

    def _index(self, offset: int) -> int:
        """The word index of *offset*, checked against the memory."""
        if 0 <= offset < self._size:
            return offset // BYTES_PER_WORD
        raise IndexError(f"{self.name}: offset {offset:#x} outside "
                         f"[0, {self._size:#x})")

    def do_read(self, offset: int, byte_enables: int) -> SlaveResponse:
        return SlaveResponse.ok(self._words.get(self._index(offset), 0))

    def do_write(self, offset: int, byte_enables: int,
                 data: int) -> SlaveResponse:
        index = self._index(offset)
        self._words[index] = _lane_merge(self._words.get(index, 0), data,
                                         byte_enables)
        return SlaveResponse.ok()

    # -- back-door access (loaders / checkers, no bus traffic) ----------------

    def load(self, offset: int, words: typing.Sequence[int]) -> None:
        """Back-door initialise memory contents (e.g. program images).

        Zero words are dropped rather than stored, so loading a mostly
        empty image keeps the store sparse.
        """
        if not words:
            return
        start = self._index(offset)
        self._index(offset + (len(words) - 1) * BYTES_PER_WORD)
        store = self._words
        for index, word in enumerate(words, start):
            word &= DATA_MASK
            if word:
                store[index] = word
            else:
                store.pop(index, None)

    def peek(self, offset: int) -> int:
        """Back-door read of the word containing *offset*."""
        return self._words.get(self._index(offset), 0)

    def poke(self, offset: int, word: int) -> None:
        """Back-door write of the word containing *offset*."""
        self._words[self._index(offset)] = word & DATA_MASK

    def snapshot(self) -> typing.Dict[int, int]:
        """Back-door copy of the nonzero words, by byte offset.

        The persistence primitive of power-loss studies: capture the
        non-volatile contents at the tear point, ``poke`` them into the
        replacement device on the next power-up.  Two snapshots are
        equal exactly when the memories read the same everywhere.
        """
        return {index * BYTES_PER_WORD: word
                for index, word in self._words.items() if word}


class RegisterSlave(BehaviouralSlave):
    """Memory-mapped special-function registers with callbacks.

    Peripherals (UART, timers, RNG, the Java Card stack coprocessor)
    expose word registers; optional per-register read/write hooks give
    them behaviour.
    """

    def __init__(self, base_address: int, num_registers: int,
                 wait_states: WaitStates = WaitStates(),
                 access_rights: AccessRights = (AccessRights.READ
                                                | AccessRights.WRITE),
                 name: str = "regs") -> None:
        super().__init__(base_address, num_registers * BYTES_PER_WORD,
                         wait_states, access_rights, name)
        self.registers = [0] * num_registers
        self._read_hooks: typing.Dict[int, typing.Callable[[], int]] = {}
        self._write_hooks: typing.Dict[int, typing.Callable[[int], None]] = {}

    def on_read(self, index: int,
                hook: typing.Callable[[], int]) -> None:
        """Install *hook* producing the value of register *index*."""
        self._read_hooks[index] = hook

    def on_write(self, index: int,
                 hook: typing.Callable[[int], None]) -> None:
        """Install *hook* called with the value written to *index*."""
        self._write_hooks[index] = hook

    def do_read(self, offset: int, byte_enables: int) -> SlaveResponse:
        index = offset // BYTES_PER_WORD
        hook = self._read_hooks.get(index)
        value = hook() if hook is not None else self.registers[index]
        self.registers[index] = value & DATA_MASK
        return SlaveResponse.ok(value & DATA_MASK)

    def do_write(self, offset: int, byte_enables: int,
                 data: int) -> SlaveResponse:
        index = offset // BYTES_PER_WORD
        merged = _lane_merge(self.registers[index], data, byte_enables)
        self.registers[index] = merged
        hook = self._write_hooks.get(index)
        if hook is not None:
            hook(merged)
        return SlaveResponse.ok()
