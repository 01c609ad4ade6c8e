"""A general memory-to-memory DMA controller.

Smart card SoCs move buffers constantly (APDU payloads, key material,
non-volatile commits); a DMA engine does it without occupying the CPU
and — because it can use burst transactions — with fewer, denser bus
cycles.  Together with :class:`~repro.tlm.arbiter.BusArbiter` this
gives the platform a second general-purpose master, and gives HW/SW
interface studies a CPU-copy vs DMA-copy axis.

Register map (word offsets):

====  ========  ====================================================
0     SRC       source byte address (word aligned)
1     DST       destination byte address (word aligned)
2     LEN       number of words to move
3     CTRL      bit0 START, bit1 BURST (4-word bursts where possible)
4     STATUS    bit0 BUSY, bit1 DONE, bit2 ERROR
====  ========  ====================================================
"""

from __future__ import annotations

import random
import typing

from repro.ec import BusState, data_read, data_write
from repro.ec.interfaces import BusMasterInterface

from .peripheral import Peripheral

SRC, DST, LEN, CTRL, STATUS = range(5)

CTRL_START = 1 << 0
CTRL_BURST = 1 << 1

STATUS_BUSY = 1 << 0
STATUS_DONE = 1 << 1
STATUS_ERROR = 1 << 2

#: RAM staging windows of :func:`ram_move_script`, as offsets from the
#: card's RAM base (above the spans the seeded workloads touch)
_MOVE_SRC = 0x600
_MOVE_DST = 0x700
_MOVE_WORDS = 8


def ram_move_script(rng: random.Random) -> typing.List:
    """Bus script programming the card's DMA for one burst RAM-to-RAM
    move: stage *rng*'s words, then write SRC, DST, LEN and CTRL."""
    from .smartcard import DMA_BASE, RAM_BASE
    source = RAM_BASE + _MOVE_SRC
    payload = [rng.getrandbits(32) for _ in range(_MOVE_WORDS)]
    script = [data_write(source, payload[:4]),
              data_write(source + 16, payload[4:])]
    for offset, value in ((SRC, source), (DST, RAM_BASE + _MOVE_DST),
                          (LEN, _MOVE_WORDS),
                          (CTRL, CTRL_START | CTRL_BURST)):
        script.append(data_write(DMA_BASE + 4 * offset, [value]))
    return script


class DmaController(Peripheral):
    """Word/burst memory-to-memory mover with a bus master port."""

    ENERGY_COSTS_PJ = dict(Peripheral.ENERGY_COSTS_PJ)
    ENERGY_COSTS_PJ.update({
        "descriptor": 0.9,
        "word_moved": 0.25,
    })

    def __init__(self, base_address: int, name: str = "dma") -> None:
        super().__init__(base_address, 5, name=name)
        self._port: typing.Optional[BusMasterInterface] = None
        self._governor = None
        self._state = "idle"
        self._remaining = 0
        self._src = 0
        self._dst = 0
        self._burst = False
        self._txn = None
        self._buffer: typing.List[int] = []
        self.words_moved = 0
        self.on_write(CTRL, self._on_ctrl)
        self.on_read(STATUS, lambda: self.registers[STATUS])

    def attach_port(self, port: BusMasterInterface) -> None:
        """Attach the bus master port (usually an arbiter port)."""
        self._port = port

    def attach_governor(self, governor) -> None:
        """Consult *governor* (:class:`~repro.power.EnergyGovernor`)
        before starting each chunk transaction; transfers already on
        the bus are never deferred.  None detaches."""
        self._governor = governor

    def _issue_allowed(self) -> bool:
        return (self._governor is None
                or self._txn.issue_cycle is not None
                or self._governor.may_issue(self._txn))

    # -- control ---------------------------------------------------------

    def _on_ctrl(self, value: int) -> None:
        if not value & CTRL_START:
            return
        if self._port is None:
            raise RuntimeError(f"{self.name}: started without a port")
        if self._state != "idle":
            return  # start while busy is ignored, like most hardware
        self._src = self.registers[SRC] & ~0x3
        self._dst = self.registers[DST] & ~0x3
        self._remaining = self.registers[LEN]
        self._burst = bool(value & CTRL_BURST)
        self._state = "read"
        self._txn = None
        self.registers[STATUS] = STATUS_BUSY
        self.book("descriptor")

    def _chunk(self) -> int:
        if not self._burst:
            return 1
        for size in (4, 2, 1):
            if self._remaining >= size and self._src % (4 * size) == 0 \
                    and self._dst % (4 * size) == 0:
                return size
        return 1

    # -- engine (ticked by the platform / a DmaDriver) ----------------------

    def tick(self) -> None:
        if self._dpm_frozen():
            return
        if self._state == "idle":
            return
        if self._state == "read":
            if self._remaining == 0:
                self._finish(error=False)
                return
            if self._txn is None:
                self._txn = data_read(self._src,
                                      burst_length=self._chunk())
            if not self._issue_allowed():
                return  # governor deferral: retry next tick
            state = self._port.issue(self._txn)
            if state is BusState.OK:
                self._buffer = list(self._txn.data)
                self._txn = None
                self._state = "write"
            elif state is BusState.ERROR:
                self._finish(error=True)
        elif self._state == "write":
            if self._txn is None:
                self._txn = data_write(self._dst, self._buffer)
            if not self._issue_allowed():
                return  # governor deferral: retry next tick
            state = self._port.issue(self._txn)
            if state is BusState.OK:
                moved = len(self._buffer)
                self.words_moved += moved
                self.book("word_moved", moved)
                self._src += 4 * moved
                self._dst += 4 * moved
                self._remaining -= moved
                self._txn = None
                self._state = "read"
            elif state is BusState.ERROR:
                self._finish(error=True)

    def _finish(self, error: bool) -> None:
        self._state = "idle"
        self._txn = None
        self.registers[STATUS] = STATUS_DONE | (STATUS_ERROR if error
                                                else 0)

    @property
    def busy(self) -> bool:
        return self._state != "idle"
