"""Transaction-level layer-2 (timed, not cycle-accurate) EC bus model.

The paper's §3.2 model: the master interface takes whole transactions
("a burst transfer is performed as a single transaction"), data moves
by reference in one block at the end of the data phase ("pointer
passing"), and timing comes from wait-state counters "read ... when the
transaction is created during the first interface call".

The bus process — still sensitive to the falling clock edge — runs
three phases: address, read and write.  Each phase decrements the
counter of the transaction at the head of its queue; when the counter
expires the phase finishes and (for data phases) the slave's block
interface is invoked once.

Known, deliberate abstractions relative to layer 1 (§3.2 "sources of
inaccuracy"):

* wait states are snapshotted at request creation, so a slave whose
  wait states change while the request is queued (e.g. EEPROM busy
  after a programming write) is mis-timed ("missing interaction with
  the slave"),
* data is delivered only at the end of the burst, never per beat —
  consequently a read racing a write to the same address may observe
  a different (later) memory state than layer 1's beat-level read,
* control-signal activity is reconstructed per phase in isolation —
  the layer-2 energy model cannot see inter-transaction correlation.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.ec import (BusState, DecodeError, Direction, ErrorCause,
                      MemoryMap, Region, Transaction)
from repro.kernel import Clock, Simulator

from .bus_base import EcBusBase
from .queues import TransactionQueue

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.power.layer2 import Layer2PowerModel


@dataclasses.dataclass
class _TimedRequest:
    """One entry of the layer-2 shared transaction data structure."""

    transaction: Transaction
    region: typing.Optional[Region]
    address_remaining: int  # address wait states still to elapse
    data_remaining: int     # total data-phase cycles still to elapse
    decode_failed: bool = False
    data_started: bool = False
    #: set when the first hop is a bus bridge: the data phase then
    #: forwards a clone downstream instead of invoking a block interface
    bridge: typing.Optional[typing.Any] = None
    clone: typing.Optional[Transaction] = None


class EcBusLayer2(EcBusBase):
    """Timed EC bus: wait-state counters, block data transfer."""

    def __init__(self, simulator: Simulator, clock: Clock,
                 memory_map: MemoryMap, name: str = "ec_bus_l2",
                 power_model: typing.Optional["Layer2PowerModel"] = None,
                 requery_wait_states: bool = False) -> None:
        super().__init__(simulator, clock, memory_map, name)
        self.power_model = power_model
        #: ablation knob: re-sample the slave's wait states when the
        #: data phase starts instead of trusting the creation-time
        #: snapshot (the paper's model snapshots; see DESIGN.md)
        self.requery_wait_states = requery_wait_states
        self.address_queue = TransactionQueue("address")
        self._items: typing.Dict[int, _TimedRequest] = {}
        self._read_queue: typing.List[_TimedRequest] = []
        self._write_queue: typing.List[_TimedRequest] = []
        self.method(self._bus_process, name="bus_process",
                    sensitive=[clock.negedge_event], dont_initialize=True)

    # ------------------------------------------------------------------

    def _accept(self, transaction: Transaction) -> None:
        """First interface call: decode and snapshot the wait states."""
        try:
            route = self.memory_map.resolve_checked(
                transaction.address, transaction.kind, transaction.num_bytes)
        except DecodeError:
            item = _TimedRequest(transaction, None, 0, 0, decode_failed=True)
        else:
            region = route.regions[0]
            waits = region.slave.wait_states  # snapshot, §3.2
            data_cycles = transaction.burst_length * (
                waits.for_kind(transaction.kind) + 1)
            item = _TimedRequest(transaction, region, waits.address,
                                 data_cycles,
                                 bridge=(region.slave if route.hops > 0
                                         else None))
        self._items[transaction.txn_id] = item
        self.address_queue.push(transaction)

    # ------------------------------------------------------------------
    # the bus process: three phases per falling edge (§3.2)
    # ------------------------------------------------------------------

    def _bus_process(self) -> None:
        self._address_phase()
        self._data_phase(self._read_queue, is_read=True)
        self._data_phase(self._write_queue, is_read=False)
        self.cycle += 1

    def _address_phase(self) -> None:
        head = self.address_queue.head()
        if head is None:
            return
        item = self._items[head.txn_id]
        if item.address_remaining > 0:
            item.address_remaining -= 1
            return
        # address phase finishes this cycle
        self.address_queue.pop()
        head.address_done_cycle = self.cycle
        if item.decode_failed:
            head.fail(self.cycle, ErrorCause.DECODE)
            self._finish(head)
            return
        if self.power_model is not None:
            self.power_model.address_phase_finished(head)
        if head.direction is Direction.READ:
            self._read_queue.append(item)
        else:
            self._write_queue.append(item)

    def _data_phase(self, queue: typing.List[_TimedRequest],
                    is_read: bool) -> None:
        if not queue:
            return
        item = queue[0]
        if item.bridge is not None:
            self._bridge_data_phase(queue, item, is_read)
            return
        if not item.data_started:
            item.data_started = True
            if self.requery_wait_states:
                waits = item.region.slave.wait_states
                item.data_remaining = item.transaction.burst_length * (
                    waits.for_kind(item.transaction.kind) + 1)
        item.data_remaining -= 1
        if item.data_remaining > 0:
            return
        # data phase finishes this cycle: single block slave invocation
        queue.pop(0)
        transaction = item.transaction
        slave = item.region.slave
        base_offset = slave.offset_of(transaction.address)
        error = False
        if is_read:
            words, error = slave.read_block(
                base_offset, transaction.burst_length,
                transaction.byte_enables(0))
            # beats served before a mid-burst error still completed on
            # the bus — record them so beats_done (and the data words
            # already latched) match the layer-1 beat-level account
            for word in words:
                transaction.complete_beat(self.cycle, word)
        else:
            beats_ok, error = slave.write_block(
                base_offset, transaction.data, transaction.byte_enables(0))
            for _ in range(beats_ok):
                transaction.complete_beat(self.cycle)
        if error:
            transaction.fail(self.cycle, ErrorCause.SLAVE_ERROR)
        self._finish(transaction)

    def _bridge_data_phase(self, queue: typing.List[_TimedRequest],
                           item: _TimedRequest, is_read: bool) -> None:
        """Data phase of a transaction whose first hop is a bridge.

        The upstream wire still carries one beat per cycle
        (``data_remaining`` counts them down); the actual data moves on
        the downstream segment via a forwarded clone — polled to
        completion for reads, latched into the bridge's posted queue
        for writes.  The downstream segment's own wait states therefore
        stretch the upstream transaction naturally, instead of being
        folded into a creation-time snapshot.
        """
        transaction = item.transaction
        bridge = item.bridge
        if not item.data_started:
            item.data_started = True
            if is_read:
                item.clone = bridge.start_read(transaction)
        if item.data_remaining > 0:
            item.data_remaining -= 1
        if is_read:
            state = bridge.timed_read_poll(item.clone)
            if state is BusState.ERROR:
                queue.pop(0)
                # beats the downstream burst did serve completed on the
                # wire; mirror them before reporting the error upstream
                for word in item.clone.data[:item.clone.beats_done]:
                    transaction.complete_beat(self.cycle, word)
                # relay the downstream cause (a decode fault two hops
                # away must not degenerate into SLAVE_ERROR upstream)
                transaction.fail(self.cycle, item.clone.error_cause
                                 or ErrorCause.SLAVE_ERROR)
                self._finish(transaction)
                return
            if item.data_remaining > 0 or state is not BusState.OK:
                return  # still streaming upstream / still downstream
            queue.pop(0)
            for word in item.clone.data:
                transaction.complete_beat(self.cycle, word)
        else:
            if item.data_remaining > 0:
                return
            if item.clone is None:
                item.clone = transaction.clone()
            if not bridge.try_post_write(item.clone):
                return  # posted queue full: back-pressure this phase
            queue.pop(0)
            for _ in range(transaction.burst_length):
                transaction.complete_beat(self.cycle)
        self._finish(transaction)

    def _finish(self, transaction: Transaction) -> None:
        """The one exit of every transaction off the bus, completed or
        failed (``fail`` already called): book its data phase, drop its
        entry, hand it to the finish pool."""
        if self.power_model is not None:
            self.power_model.data_phase_finished(transaction)
        del self._items[transaction.txn_id]
        self.finish_pool.push(transaction)

    def _evict(self, transaction: Transaction) -> bool:
        """Remove *transaction* from whichever phase queue holds it."""
        if transaction.txn_id not in self._items:
            return False
        item = self._items[transaction.txn_id]
        if not self.address_queue.remove(transaction):
            for queue in (self._read_queue, self._write_queue):
                if item in queue:
                    queue.remove(item)
                    break
            else:
                return False
        if (item.bridge is not None and item.clone is not None
                and transaction.direction is Direction.READ
                and not item.clone.finished):
            item.bridge.downstream.cancel(item.clone)
        del self._items[transaction.txn_id]
        return True

    # ------------------------------------------------------------------

    @property
    def busy(self) -> bool:
        """True while any transaction is anywhere in the pipe."""
        return bool(self.address_queue or self._read_queue
                    or self._write_queue or len(self.finish_pool))
