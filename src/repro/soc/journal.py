"""Anti-tearing transaction journal over the EEPROM (Java-Card style).

Smart card operating systems must keep persistent state consistent
under *tearing* — the card can lose power at any cycle, mid-write,
mid-transaction.  The classic defence (Java Card's transaction
mechanism) is a redo journal in non-volatile memory: record what you
are about to write, commit the record atomically, then write the real
locations, then clear the record.  After any tear, boot-time recovery
either finds no committed record (nothing was promised: the home
locations still hold the old values of any unfinished transaction) or
a committed one (replay the journal; replay is idempotent, so a tear
*during recovery itself* is also survivable).

The journal occupies a small window of the EEPROM:

====  =========  =====================================================
word  name       contents
====  =========  =====================================================
0     HDR        ``(seq & 0xFFFF) << 16 | record_count``
1     COMMIT     0 = no committed frame; else the frame checksum
2+    RECORDS    ``record_count`` (address, value) word pairs
====  =========  =====================================================

Atomicity argument: the EEPROM commits whole words (the per-write
lane-tearing model answers ERROR, which aborts the whole card sequence
anyway), and the firmware discipline writes RECORDS, then HDR, then
COMMIT, then the home locations, then clears COMMIT — each a separate
bus write.  A tear between any two writes leaves COMMIT either 0 or a
checksum that validates exactly the fully-written frame, so recovery
never replays a half-written frame and never misses a committed one.

Two consumers:

* **firmware side** — :meth:`TransactionJournal.update_script` compiles
  one logical transaction into the bus-write script a card OS would
  issue (driven by a :class:`~repro.tlm.BlockingMaster`, whose strict
  ordering *is* the discipline the argument above needs);
* **boot side** — :meth:`decode` / :meth:`recover` inspect and repair
  the EEPROM through back-door word accessors (its stored words are
  what :meth:`~repro.soc.SmartCardPlatform.cold_boot` carries across
  simulator instances), and :meth:`recovery_script` emits the bus
  traffic of the same repair so its cycle and energy cost is
  measurable on every bus layer.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.ec import Transaction, data_read, data_write

HDR_WORDS = 2  # HDR + COMMIT precede the records

_WORD_MASK = 0xFFFFFFFF


def _frame_checksum(seq: int, records: typing.Sequence[
        typing.Tuple[int, int]]) -> int:
    """FNV-1a over the frame contents; never 0 (0 means "no frame")."""
    digest = 0x811C9DC5
    for value in (seq, len(records)):
        digest = ((digest ^ (value & _WORD_MASK)) * 0x01000193) \
            & _WORD_MASK
    for address, value in records:
        digest = ((digest ^ (address & _WORD_MASK)) * 0x01000193) \
            & _WORD_MASK
        digest = ((digest ^ (value & _WORD_MASK)) * 0x01000193) \
            & _WORD_MASK
    return digest or 0x5A5A5A5A


@dataclasses.dataclass(frozen=True)
class JournalState:
    """What boot-time recovery finds in the journal window."""

    committed: bool
    seq: int
    records: typing.Tuple[typing.Tuple[int, int], ...]
    raw_commit: int

    @property
    def empty(self) -> bool:
        return self.raw_commit == 0


class TransactionJournal:
    """Redo journal at *base* (absolute, word-aligned bus address).

    *capacity* bounds the records of one logical transaction; the
    window occupies ``(HDR_WORDS + 2 * capacity)`` EEPROM words.
    """

    def __init__(self, base: int, capacity: int = 8) -> None:
        if base % 4:
            raise ValueError(f"journal base {base:#x} not word aligned")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.base = base
        self.capacity = capacity

    @property
    def size_bytes(self) -> int:
        return 4 * (HDR_WORDS + 2 * self.capacity)

    def _record_address(self, index: int) -> int:
        return self.base + 4 * (HDR_WORDS + 2 * index)

    # -- firmware side ---------------------------------------------------

    def update_script(self, seq: int, writes: typing.Sequence[
            typing.Tuple[int, int]]) -> typing.List[Transaction]:
        """One journaled update as an ordered bus-write script.

        *writes* is the logical transaction: ``(address, value)`` home
        writes that must commit all-or-nothing.  The script performs
        the full discipline — records, header, commit, home writes,
        clear — and is safe to tear between (or during) any two items
        when driven by an in-order master.
        """
        if not 1 <= len(writes) <= self.capacity:
            raise ValueError(
                f"{len(writes)} writes; journal capacity "
                f"{self.capacity}")
        if not 0 <= seq <= 0xFFFF:
            raise ValueError(f"seq must fit 16 bits, got {seq}")
        for address, value in writes:
            if address % 4:
                raise ValueError(
                    f"journaled write to {address:#x} not word aligned")
            if self._overlaps_window(address):
                raise ValueError(
                    f"home write {address:#x} inside the journal window")
        script = []
        for index, (address, value) in enumerate(writes):
            slot = self._record_address(index)
            script.append(data_write(slot, [address & _WORD_MASK]))
            script.append(data_write(slot + 4, [value & _WORD_MASK]))
        script.append(data_write(
            self.base, [((seq & 0xFFFF) << 16) | len(writes)]))
        script.append(data_write(
            self.base + 4, [_frame_checksum(seq, writes)]))
        for address, value in writes:
            script.append(data_write(address, [value & _WORD_MASK]))
        script.append(data_write(self.base + 4, [0]))
        return script

    def _overlaps_window(self, address: int) -> bool:
        return self.base <= address < self.base + self.size_bytes

    # -- boot side -------------------------------------------------------

    def decode(self, read_word: typing.Callable[[int], int]
               ) -> JournalState:
        """Parse the journal window through *read_word* (an absolute
        word reader, e.g. a back-door EEPROM peek).

        A frame is *committed* only when COMMIT is nonzero **and**
        matches the checksum of the header and records it promises —
        anything else (torn mid-record, stale garbage) reads as "no
        committed frame".
        """
        header = read_word(self.base)
        commit = read_word(self.base + 4)
        count = header & 0xFFFF
        seq = (header >> 16) & 0xFFFF
        if commit == 0 or count == 0 or count > self.capacity:
            return JournalState(False, seq, (), commit)
        records = []
        for index in range(count):
            slot = self._record_address(index)
            records.append((read_word(slot), read_word(slot + 4)))
        records = tuple(records)
        committed = commit == _frame_checksum(seq, records)
        return JournalState(committed, seq,
                            records if committed else (), commit)

    def recover(self, read_word: typing.Callable[[int], int],
                write_word: typing.Callable[[int, int], None]
                ) -> JournalState:
        """Back-door recovery: replay a committed frame, clear it.

        Idempotent — recovering an already-recovered (or empty)
        journal is a no-op, which is what makes a tear during recovery
        itself survivable.
        """
        state = self.decode(read_word)
        if state.committed:
            for address, value in state.records:
                write_word(address, value)
            write_word(self.base + 4, 0)
        return state

    def recovery_script(self, state: JournalState
                        ) -> typing.List[Transaction]:
        """The bus traffic of one boot-time recovery pass.

        The firmware always reads the header and commit word; with a
        committed frame (*state* from :meth:`decode` on the same
        EEPROM) it also reads the records, replays the home writes and
        clears the commit word.  Running this on a cold-booted
        platform prices the recovery overhead in cycles and energy.
        """
        script: typing.List[Transaction] = [
            data_read(self.base), data_read(self.base + 4)]
        if not state.committed:
            return script
        for index in range(len(state.records)):
            slot = self._record_address(index)
            script.append(data_read(slot))
            script.append(data_read(slot + 4))
        for address, value in state.records:
            script.append(data_write(address, [value & _WORD_MASK]))
        script.append(data_write(self.base + 4, [0]))
        return script
