"""Smart card memories of the Figure-1 platform.

The target architecture carries 256 kB ROM program memory, 32 kB
EEPROM data & program memory, 64 kB FLASH program memory and a
scratchpad RAM.  Each memory type differs in wait states, access
rights and — for the non-volatile memories — programming behaviour:
an EEPROM write triggers an internal programming operation during
which the device answers with extra wait states.  That dynamic is what
separates layer 1 (which interacts with the slave every cycle) from
layer 2 (which snapshots wait states at request creation, §3.2) in the
Table-1 timing experiment.
"""

from __future__ import annotations

import random
import typing

from repro.ec import AccessRights, SlaveResponse, WaitStates
from repro.tlm.slave import MemorySlave


class Rom(MemorySlave):
    """Mask ROM: execute/read only, one read wait state."""

    def __init__(self, base_address: int, size: int = 256 * 1024,
                 name: str = "rom") -> None:
        super().__init__(base_address, size,
                         WaitStates(address=0, read=1),
                         AccessRights.READ | AccessRights.EXECUTE, name)

    def do_write(self, offset: int, byte_enables: int,
                 data: int) -> SlaveResponse:
        # a ROM cannot be written; rights normally catch this at decode
        return SlaveResponse.error()


class ScratchpadRam(MemorySlave):
    """On-core scratchpad RAM: zero wait states, full rights."""

    def __init__(self, base_address: int, size: int = 8 * 1024,
                 name: str = "scratchpad") -> None:
        super().__init__(base_address, size, WaitStates(),
                         AccessRights.ALL, name)


class Eeprom(MemorySlave):
    """EEPROM with a programming-busy window after every write.

    While programming (``program_cycles`` bus cycles after a completed
    write beat) the device inserts ``busy_extra_waits`` additional wait
    states on every access.  The busy window is measured against a
    cycle source the platform binds after bus construction.

    Write tearing (the classic smart card failure: the card is pulled
    from the reader mid-programming) is modelled with *tear_rate* and a
    caller-supplied *tear_rng*: a torn write commits only some byte
    lanes and answers ``ERROR``, leaving a partially-programmed word
    for the retry to repair.  Which lanes survive depends on where in
    the programming sequence the power failed, so the committed lane
    mask is sampled from *tear_rng* per torn write.  With the default
    ``tear_rate=0.0`` the device never tears, and no random stream is
    consumed.
    """

    def __init__(self, base_address: int, size: int = 32 * 1024,
                 name: str = "eeprom", program_cycles: int = 12,
                 busy_extra_waits: int = 4, tear_rate: float = 0.0,
                 tear_rng: typing.Optional[random.Random] = None) -> None:
        super().__init__(base_address, size,
                         WaitStates(address=1, read=2, write=3),
                         AccessRights.READ | AccessRights.WRITE, name)
        if not 0.0 <= tear_rate <= 1.0:
            raise ValueError(f"tear_rate must be in [0, 1], got {tear_rate}")
        if tear_rate and tear_rng is None:
            raise ValueError("a nonzero tear_rate needs a seeded tear_rng")
        self.program_cycles = program_cycles
        self.busy_extra_waits = busy_extra_waits
        self.tear_rate = tear_rate
        self.tear_rng = tear_rng
        self.torn_writes = 0
        self._base_waits = WaitStates(address=1, read=2, write=3)
        self._busy_until = -1
        self._cycle_source: typing.Callable[[], int] = lambda: 0
        self.programming_operations = 0
        self._psm = None

    def bind_cycle_source(self,
                          cycle_source: typing.Callable[[], int]) -> None:
        """Attach the bus-cycle counter used for the busy window."""
        self._cycle_source = cycle_source

    @property
    def busy(self) -> bool:
        """True while an internal programming operation is running."""
        return self._cycle_source() < self._busy_until

    def busy_cycles_left(self) -> int:
        """Cycles of the programming window still to run (0 when idle):
        :attr:`busy` stays True for exactly that many cycle-source
        values."""
        left = self._busy_until - self._cycle_source()
        return left if left > 0 else 0

    def attach_power_state_machine(self, psm) -> None:
        """Manage the EEPROM with *psm*
        (:class:`~repro.power.PowerStateMachine`); ``None`` detaches.

        The EEPROM has no event ledger of its own — DPM overhead lands
        in the PSM's ledger — but a gated/sleeping array pays its wake
        latency as extra wait states on the access that wakes it,
        stacking on top of any programming-busy window.
        """
        self._psm = psm

    @property
    def power_state_machine(self):
        return self._psm

    @property
    def wait_states(self) -> WaitStates:
        base = self._base_waits
        extra = 0
        if self._psm is not None:
            extra = self._psm.wake()
        if self.busy:
            extra += self.busy_extra_waits
        if not extra:
            return base
        return WaitStates(address=base.address, read=base.read + extra,
                          write=base.write + extra)

    def do_write(self, offset: int, byte_enables: int,
                 data: int) -> SlaveResponse:
        if (self.tear_rate
                and self.tear_rng.random() < self.tear_rate):
            # programming started, then tore: some lanes are committed,
            # the cell is left busy, and the voltage monitor flags it;
            # the surviving lanes depend on where in the programming
            # sequence power failed — sample them
            committed = byte_enables & self.tear_rng.randrange(0b10000)
            if committed:
                super().do_write(offset, committed, data)
            self.torn_writes += 1
            self._busy_until = self._cycle_source() + self.program_cycles
            return SlaveResponse.error()
        response = super().do_write(offset, byte_enables, data)
        self._busy_until = self._cycle_source() + self.program_cycles
        self.programming_operations += 1
        return response


class Flash(MemorySlave):
    """FLASH program memory: fast reads, slow page-programming writes."""

    def __init__(self, base_address: int, size: int = 64 * 1024,
                 name: str = "flash") -> None:
        super().__init__(base_address, size,
                         WaitStates(address=0, read=1, write=6),
                         AccessRights.READ | AccessRights.WRITE
                         | AccessRights.EXECUTE, name)
        self.program_count = 0

    def do_write(self, offset: int, byte_enables: int,
                 data: int) -> SlaveResponse:
        self.program_count += 1
        return super().do_write(offset, byte_enables, data)
