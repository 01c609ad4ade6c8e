"""Signal-level ("layer 0") EC bus reference model.

This is an *independent* implementation of the EC protocol, coded the
way the hardware is structured — per-channel engines with wait-state
registers — rather than with the layer-1 transaction queues.  Per cycle
it drives a value for every EC interface wire, drives the synthesised
gate-level address decoder (collecting internal transitions and
glitches) and reports its control-register activity.  Together with the
Diesel estimator it plays the role of the paper's gate-level reference:
the source of power characterisation and the accuracy baseline.

The master-facing interface is the same non-blocking one the TLM
layers offer, so identical scripts drive all three models; the
layer-1-vs-RTL equivalence tests then check that two independent
implementations agree wire-for-wire and cycle-for-cycle.
"""

from __future__ import annotations

import typing

from repro.ec import (BusState, DecodeError, Direction, ErrorCause,
                      MemoryMap, Region, Transaction)
from repro.kernel import Clock, Simulator
from repro.tlm.bus_base import EcBusBase

from .decoder import AddressDecoder, build_address_decoder

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.power.diesel import InterfaceActivityLog
    from repro.power.layer1 import SignalStateRecorder

#: Sequential elements of the bus controller (state registers, wait
#: counters, pipeline registers) — the clock load Diesel charges.
CONTROL_FLOP_COUNT = 64


class _ChannelRegs:
    """Wait/beat registers of one data channel engine."""

    __slots__ = ("active", "wait", "beat", "pending")

    def __init__(self) -> None:
        self.active: typing.Optional[typing.Tuple[Transaction, Region]] = None
        #: wait-state countdown of the current beat; None until the
        #: beat's first cycle samples the slave's current wait states,
        #: mirroring the per-beat pacing of the behavioural slaves
        self.wait: typing.Optional[int] = None
        self.beat = 0
        self.pending: typing.List[typing.Tuple[Transaction, Region]] = []

    def state_word(self) -> int:
        """Pack the register bits for control-activity accounting."""
        return ((int(self.active is not None))
                | (((self.wait or 0) & 0xF) << 1)
                | ((self.beat & 0x7) << 5)
                | ((len(self.pending) & 0x7) << 8))


class RtlBus(EcBusBase):
    """Signal-level EC bus + gate-level bus controller."""

    def __init__(self, simulator: Simulator, clock: Clock,
                 memory_map: MemoryMap, name: str = "ec_bus_rtl",
                 activity_log: typing.Optional["InterfaceActivityLog"] = None,
                 recorder: typing.Optional["SignalStateRecorder"] = None,
                 ) -> None:
        super().__init__(simulator, clock, memory_map, name)
        self.decoder: AddressDecoder = build_address_decoder(memory_map)
        self.activity_log = activity_log
        self.recorder = recorder
        self._sinks: typing.List[typing.Callable[
            [int, typing.Dict[str, int], float], None]] = []
        if recorder is not None:
            self._sinks.append(recorder.record)
        self._biu_queue: typing.List[Transaction] = []
        self._addr_active: typing.Optional[Transaction] = None
        self._addr_region: typing.Optional[Region] = None
        self._addr_wait = 0
        self._addr_is_new = False
        self._read = _ChannelRegs()
        self._write = _ChannelRegs()
        self._values = self._reset_values()
        self._control_state = 0
        self.control_register_toggles = 0
        self.control_flop_count = CONTROL_FLOP_COUNT
        self.method(self._bus_process, name="bus_process",
                    sensitive=[clock.negedge_event], dont_initialize=True)

    def add_signal_sink(self, sink: typing.Callable[
            [int, typing.Dict[str, int], float], None]) -> None:
        """Stream each cycle's committed wire values to *sink* (RTL has
        no per-cycle energy, so the energy argument is always 0.0)."""
        if sink not in self._sinks:
            self._sinks.append(sink)

    @staticmethod
    def _reset_values() -> typing.Dict[str, int]:
        values = {name: 0 for name in (
            "EB_A", "EB_AValid", "EB_Instr", "EB_Write", "EB_Burst",
            "EB_BFirst", "EB_BLast", "EB_BE", "EB_ARdy",
            "EB_RData", "EB_RdVal", "EB_RBErr",
            "EB_WData", "EB_WDRdy", "EB_WBErr")}
        values["EB_ARdy"] = 1
        return values

    def _accept(self, transaction: Transaction) -> None:
        self._biu_queue.append(transaction)

    # ------------------------------------------------------------------
    # the clocked engines
    # ------------------------------------------------------------------

    def _bus_process(self) -> None:
        new = dict(self._values)
        self._address_engine(new)
        self._read_engine(new)
        self._write_engine(new)
        self._commit(new)
        self.cycle += 1

    def _address_engine(self, new: typing.Dict[str, int]) -> None:
        if self._addr_active is None and self._biu_queue:
            transaction = self._biu_queue.pop(0)
            region = self._decode(transaction)
            if region is None:
                # decode/rights failure: bus error, no address tenure
                transaction.fail(self.cycle, ErrorCause.DECODE)
                self.finish_pool.push(transaction)
            else:
                self._addr_active = transaction
                self._addr_region = region
                self._addr_wait = region.slave.wait_states.address
                self._addr_is_new = True
        transaction = self._addr_active
        if transaction is None:
            new["EB_AValid"] = 0
            new["EB_BFirst"] = 0
            new["EB_BLast"] = 0
            new["EB_ARdy"] = 1
            return
        completing = self._addr_wait == 0
        new["EB_A"] = transaction.address
        new["EB_AValid"] = 1
        new["EB_Instr"] = int(transaction.kind.is_instruction)
        new["EB_Write"] = int(transaction.direction is Direction.WRITE)
        new["EB_Burst"] = int(transaction.is_burst)
        new["EB_BE"] = transaction.byte_enables(0)
        new["EB_BFirst"] = int(self._addr_is_new)
        new["EB_BLast"] = int(completing)
        new["EB_ARdy"] = int(completing)
        self._addr_is_new = False
        if completing:
            transaction.address_done_cycle = self.cycle
            channel = (self._read
                       if transaction.direction is Direction.READ
                       else self._write)
            channel.pending.append((transaction, self._addr_region))
            self._addr_active = None
            self._addr_region = None
        else:
            self._addr_wait -= 1

    def _decode(self, transaction: Transaction
                ) -> typing.Optional[Region]:
        """Behavioural decode (rights + window + burst containment).

        The gate-level decoder netlist sees the same address through
        :meth:`_commit` (it is wired to the bus), so its activity is
        collected exactly once per cycle; its functional agreement with
        the behavioural decode is covered by dedicated tests.
        """
        try:
            return self.memory_map.decode_checked(
                transaction.address, transaction.kind,
                transaction.num_bytes)
        except DecodeError:
            return None

    def _read_engine(self, new: typing.Dict[str, int]) -> None:
        channel = self._read
        if channel.active is None and channel.pending:
            transaction, region = channel.pending.pop(0)
            channel.active = (transaction, region)
            channel.beat = 0
            channel.wait = None
        if channel.active is None:
            new["EB_RdVal"] = 0
            new["EB_RBErr"] = 0
            return
        transaction, region = channel.active
        if channel.wait is None:
            channel.wait = region.slave.wait_states.read
        if channel.wait > 0:
            channel.wait -= 1
            new["EB_RdVal"] = 0
            new["EB_RBErr"] = 0
            return
        # beat completes this cycle
        offset = region.slave.offset_of(
            transaction.beat_address(channel.beat))
        response = region.slave.do_read(
            offset, transaction.byte_enables(channel.beat))
        region.slave.reads += 1
        if response.state is BusState.ERROR:
            new["EB_RdVal"] = 0
            new["EB_RBErr"] = 1
            transaction.fail(self.cycle, ErrorCause.SLAVE_ERROR)
            self.finish_pool.push(transaction)
            channel.active = None
            return
        new["EB_RData"] = response.data
        new["EB_RdVal"] = 1
        new["EB_RBErr"] = 0
        transaction.complete_beat(self.cycle, response.data)
        channel.beat += 1
        if transaction.finished:
            self.finish_pool.push(transaction)
            channel.active = None
        else:
            channel.wait = None

    def _write_engine(self, new: typing.Dict[str, int]) -> None:
        channel = self._write
        if channel.active is None and channel.pending:
            transaction, region = channel.pending.pop(0)
            channel.active = (transaction, region)
            channel.beat = 0
            channel.wait = None
        if channel.active is None:
            new["EB_WDRdy"] = 0
            new["EB_WBErr"] = 0
            return
        transaction, region = channel.active
        new["EB_WData"] = transaction.data[channel.beat]
        if channel.wait is None:
            channel.wait = region.slave.wait_states.write
        if channel.wait > 0:
            channel.wait -= 1
            new["EB_WDRdy"] = 0
            new["EB_WBErr"] = 0
            return
        offset = region.slave.offset_of(
            transaction.beat_address(channel.beat))
        response = region.slave.do_write(
            offset, transaction.byte_enables(channel.beat),
            transaction.data[channel.beat])
        region.slave.writes += 1
        if response.state is BusState.ERROR:
            new["EB_WDRdy"] = 0
            new["EB_WBErr"] = 1
            transaction.fail(self.cycle, ErrorCause.SLAVE_ERROR)
            self.finish_pool.push(transaction)
            channel.active = None
            return
        new["EB_WDRdy"] = 1
        new["EB_WBErr"] = 0
        transaction.complete_beat(self.cycle)
        channel.beat += 1
        if transaction.finished:
            self.finish_pool.push(transaction)
            channel.active = None
        else:
            channel.wait = None

    # ------------------------------------------------------------------

    def _evict(self, transaction: Transaction) -> bool:
        """Remove *transaction* from the BIU queue or a channel engine."""
        if transaction in self._biu_queue:
            self._biu_queue.remove(transaction)
            return True
        if self._addr_active is transaction:
            self._addr_active = None
            self._addr_region = None
            self._addr_wait = 0
            return True
        for channel in (self._read, self._write):
            for entry in channel.pending:
                if entry[0] is transaction:
                    channel.pending.remove(entry)
                    return True
            if channel.active is not None \
                    and channel.active[0] is transaction:
                # activation of the next transaction re-samples the
                # wait-state register, so no countdown leaks across
                channel.active = None
                channel.wait = None
                channel.beat = 0
                return True
        return False

    # ------------------------------------------------------------------

    def _commit(self, new: typing.Dict[str, int]) -> None:
        """End of cycle: decoder activity, logs, register accounting."""
        # the decoder's inputs are wired to the address bus: drive it
        # with the bus value of this cycle so ripple/glitch activity is
        # collected even though the functional decode already happened
        # (the netlist defers the cycle until its activity is read)
        self.decoder.drive(new["EB_A"])
        if self.activity_log is not None:
            self.activity_log.record_cycle(self._values, new)
        for sink in self._sinks:
            sink(self.cycle, new, 0.0)
        state = (self._read.state_word()
                 | (self._write.state_word() << 11)
                 | ((self._addr_wait & 0xF) << 22)
                 | (int(self._addr_active is not None) << 26)
                 | ((len(self._biu_queue) & 0x7) << 27))
        toggled = state ^ self._control_state
        if toggled:
            self.control_register_toggles += toggled.bit_count()
            self._control_state = state
        self._values = new

    @property
    def busy(self) -> bool:
        """True while any transaction is anywhere in the pipe."""
        return bool(self._biu_queue or self._addr_active
                    or self._read.active or self._read.pending
                    or self._write.active or self._write.pending
                    or len(self.finish_pool))
