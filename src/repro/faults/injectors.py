"""Composable, seeded fault injectors for the bus slaves.

Smart cards in the field see exactly the transient faults the EC
protocol's ``ERROR`` state encodes: power tearing during EEPROM
programming, glitched transfers flipping data bits, and misbehaving
slaves that stop answering.  Each injector models one such mechanism
as a deterministic function of an explicit ``random.Random`` stream
and the bus cycle, so campaigns are exactly reproducible at a fixed
seed.

Injectors are passive decision objects: they are consulted by
:class:`~repro.faults.wrapper.FaultySlave` on every slave data-interface
access and answer one of

* *nothing* — the access proceeds untouched,
* :attr:`FaultAction.ERROR` — the beat terminates with a bus error,
* a data *corruption* — bit flips on the value read or written,
* *extra wait states* — a stuck-``WAIT`` window (hung slave).

The same injector instance therefore behaves identically no matter
which model layer drives the slave: layer 1 and the RTL reference
reach it per beat, layer 2 per block call — one decision per beat in
every case.
"""

from __future__ import annotations

import dataclasses
import enum
import random
import typing

from repro.ec import Direction, SlaveResponse, WaitStates
from repro.tlm.slave import BehaviouralSlave


class FaultKind(enum.Enum):
    """The fault mechanisms the subsystem can inject."""

    TRANSIENT_ERROR = "transient_error"
    INTERMITTENT_ERROR = "intermittent_error"
    BIT_FLIP = "bit_flip"
    STUCK_WAIT = "stuck_wait"


class FaultAction(enum.Enum):
    """Pre-access verdict of an injector."""

    ERROR = "error"


@dataclasses.dataclass(frozen=True)
class FaultEvent:
    """One injected fault, for campaign reporting."""

    kind: FaultKind
    cycle: int
    direction: Direction
    offset: int
    detail: str = ""


class FaultInjector:
    """Base class: no faults.  Subclasses override the hooks they use."""

    kind: FaultKind

    def pre_access(self, direction: Direction, offset: int,
                   cycle: int) -> typing.Optional[FaultAction]:
        """Decide whether this beat faults before touching the slave."""
        return None

    def corrupt(self, direction: Direction, offset: int, data: int,
                cycle: int) -> typing.Optional[int]:
        """Return corrupted *data*, or None to leave it untouched."""
        return None

    def extra_wait_states(self, cycle: int) -> int:
        """Additional wait states the slave inserts at *cycle*."""
        return 0


class TransientErrorInjector(FaultInjector):
    """Each beat independently errors with probability *rate*."""

    kind = FaultKind.TRANSIENT_ERROR

    def __init__(self, rate: float, rng: random.Random) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        self.rate = rate
        self.rng = rng

    def pre_access(self, direction: Direction, offset: int,
                   cycle: int) -> typing.Optional[FaultAction]:
        if self.rate and self.rng.random() < self.rate:
            return FaultAction.ERROR
        return None


class IntermittentErrorInjector(FaultInjector):
    """Errors arrive in bursts: one trigger faults *burst* accesses.

    Models a marginal contact or solder joint that, once it starts
    bouncing, disturbs several consecutive transfers.
    """

    kind = FaultKind.INTERMITTENT_ERROR

    def __init__(self, rate: float, rng: random.Random,
                 burst: int = 2) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        if burst < 1:
            raise ValueError("burst must be at least 1")
        self.rate = rate
        self.rng = rng
        self.burst = burst
        self._remaining = 0

    def pre_access(self, direction: Direction, offset: int,
                   cycle: int) -> typing.Optional[FaultAction]:
        if self._remaining > 0:
            self._remaining -= 1
            return FaultAction.ERROR
        if self.rate and self.rng.random() < self.rate:
            self._remaining = self.burst - 1
            return FaultAction.ERROR
        return None


class BitFlipInjector(FaultInjector):
    """Flips one random bit of the data with probability *rate*.

    Silent corruption: the beat still completes ``OK``, so this class
    of fault is visible in the energy model (different Hamming
    distances) and in the event log, but not to the retry machinery —
    as on a real bus without parity.
    """

    kind = FaultKind.BIT_FLIP

    def __init__(self, rate: float, rng: random.Random,
                 directions: typing.Iterable[Direction] = (
                     Direction.READ, Direction.WRITE)) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        self.rate = rate
        self.rng = rng
        self.directions = frozenset(directions)

    def corrupt(self, direction: Direction, offset: int, data: int,
                cycle: int) -> typing.Optional[int]:
        if direction not in self.directions or not self.rate:
            return None
        if self.rng.random() >= self.rate:
            return None
        return data ^ (1 << self.rng.randrange(32))


class StuckWaitInjector(FaultInjector):
    """Opens hung-slave windows: accesses see *extra_waits* more wait
    states for *duration* cycles.

    A window opens with probability *rate* per access (windows do not
    nest).  With *extra_waits* larger than a master's watchdog budget
    this models a slave that has effectively stopped answering; the
    watchdog aborts the transfer and a later retry — after the window
    closed — completes it.
    """

    kind = FaultKind.STUCK_WAIT

    def __init__(self, rate: float, rng: random.Random,
                 duration: int = 64, extra_waits: int = 256) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        if duration < 1 or extra_waits < 1:
            raise ValueError("duration and extra_waits must be >= 1")
        self.rate = rate
        self.rng = rng
        self.duration = duration
        self.extra_waits = extra_waits
        self._window_until = -1
        self.windows_opened = 0

    def pre_access(self, direction: Direction, offset: int,
                   cycle: int) -> typing.Optional[FaultAction]:
        if (cycle >= self._window_until and self.rate
                and self.rng.random() < self.rate):
            self._window_until = cycle + self.duration
            self.windows_opened += 1
        return None  # the window only inflates wait states

    def extra_wait_states(self, cycle: int) -> int:
        return self.extra_waits if cycle < self._window_until else 0


class ErrorSlave(BehaviouralSlave):
    """A slave that always answers with a bus error (fault injection).

    *wait_states* lets errors arrive only after the configured wait
    cycles have elapsed, as on real buses where the slave decodes the
    access before rejecting it.
    """

    def __init__(self, base_address: int, size: int = 0x100,
                 wait_states: WaitStates = WaitStates(),
                 name: str = "error") -> None:
        super().__init__(base_address, size, wait_states, name=name)

    def do_read(self, offset: int, byte_enables: int) -> SlaveResponse:
        return SlaveResponse.error()

    def do_write(self, offset: int, byte_enables: int,
                 data: int) -> SlaveResponse:
        return SlaveResponse.error()
