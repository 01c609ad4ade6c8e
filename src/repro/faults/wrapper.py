"""Fault-injecting slave wrapper, layer-agnostic by construction.

:class:`FaultySlave` wraps any :class:`~repro.tlm.slave.BehaviouralSlave`
and applies a list of injectors at the single point every model layer
funnels through — the ``do_read``/``do_write`` hooks:

* layer 1 reaches them through the wrapper's inherited per-beat
  ``read_beat``/``write_beat`` pacing,
* the RTL reference calls ``do_read``/``do_write`` directly (its
  channel engines do their own wait-state pacing),
* layer 2 and layer 3 reach them through the inherited
  ``read_block``/``write_block`` loops — still one injector decision
  per beat.

Stuck-``WAIT`` windows are expressed through the one mechanism all
layers already sample: the slave control interface's ``wait_states``
property (inflated while a window is open).  Layer 1 and the RTL model
re-sample it at each beat, layer 2 snapshots it at request creation —
each layer mis-predicts a hung slave exactly the way its abstraction
says it must.
"""

from __future__ import annotations

import typing

from repro.ec import (AccessRights, BusState, Direction, SlaveResponse,
                      WaitStates)
from repro.tlm.slave import BehaviouralSlave

from .injectors import FaultAction, FaultEvent, FaultInjector, FaultKind


class FaultySlave(BehaviouralSlave):
    """A transparent fault-injection wrapper around another slave."""

    def __init__(self, inner: BehaviouralSlave,
                 injectors: typing.Sequence[FaultInjector] = (),
                 name: typing.Optional[str] = None) -> None:
        super().__init__(inner.base_address, inner.size,
                         name=name or f"faulty({inner.name})")
        self.inner = inner
        self.injectors = list(injectors)
        self.events: typing.List[FaultEvent] = []
        self._cycle_source: typing.Optional[
            typing.Callable[[], int]] = None
        self._accesses = 0

    # -- plumbing ---------------------------------------------------------

    def bind_cycle_source(self,
                          cycle_source: typing.Callable[[], int]) -> None:
        """Attach the bus-cycle counter; forwarded to dynamic inners."""
        self._cycle_source = cycle_source
        if hasattr(self.inner, "bind_cycle_source"):
            self.inner.bind_cycle_source(cycle_source)

    def _now(self) -> int:
        """Current bus cycle, or an access counter when unbound."""
        if self._cycle_source is not None:
            return self._cycle_source()
        return self._accesses

    def event_counts(self) -> typing.Dict[FaultKind, int]:
        counts = {kind: 0 for kind in FaultKind}
        for event in self.events:
            counts[event.kind] += 1
        return counts

    # -- slave control interface ------------------------------------------

    @property
    def wait_states(self) -> WaitStates:
        base = self.inner.wait_states
        extra = sum(injector.extra_wait_states(self._now())
                    for injector in self.injectors)
        if not extra:
            return base
        return WaitStates(address=base.address, read=base.read + extra,
                          write=base.write + extra)

    @property
    def access_rights(self) -> AccessRights:
        return self.inner.access_rights

    # -- faulted data interface -------------------------------------------

    def do_read(self, offset: int, byte_enables: int) -> SlaveResponse:
        self._accesses += 1
        cycle = self._now()
        for injector in self.injectors:
            action = injector.pre_access(Direction.READ, offset, cycle)
            if action is FaultAction.ERROR:
                self._record(injector.kind, Direction.READ, offset, cycle)
                return SlaveResponse.error()
        response = self.inner.do_read(offset, byte_enables)
        if response.state is BusState.OK:
            for injector in self.injectors:
                corrupted = injector.corrupt(Direction.READ, offset,
                                             response.data, cycle)
                if corrupted is not None:
                    self._record(injector.kind, Direction.READ, offset,
                                 cycle, f"{response.data:#010x}->"
                                        f"{corrupted:#010x}")
                    response = SlaveResponse.ok(corrupted)
        return response

    def do_write(self, offset: int, byte_enables: int,
                 data: int) -> SlaveResponse:
        self._accesses += 1
        cycle = self._now()
        for injector in self.injectors:
            action = injector.pre_access(Direction.WRITE, offset, cycle)
            if action is FaultAction.ERROR:
                self._record(injector.kind, Direction.WRITE, offset, cycle)
                return SlaveResponse.error()
        for injector in self.injectors:
            corrupted = injector.corrupt(Direction.WRITE, offset, data,
                                         cycle)
            if corrupted is not None:
                self._record(injector.kind, Direction.WRITE, offset,
                             cycle, f"{data:#010x}->{corrupted:#010x}")
                data = corrupted
        return self.inner.do_write(offset, byte_enables, data)

    def _record(self, kind: FaultKind, direction: Direction, offset: int,
                cycle: int, detail: str = "") -> None:
        self.events.append(FaultEvent(kind, cycle, direction, offset,
                                      detail))

    # -- back-door delegation ---------------------------------------------

    def __getattr__(self, name: str):
        # loaders/checkers reach the wrapped slave's back-door helpers
        # (load/peek/poke, programming counters) through the wrapper
        if name == "inner":  # not yet bound during construction
            raise AttributeError(name)
        return getattr(self.inner, name)

    def __repr__(self) -> str:
        return (f"FaultySlave({self.inner!r}, "
                f"injectors={len(self.injectors)}, "
                f"events={len(self.events)})")
