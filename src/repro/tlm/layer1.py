"""Transaction-level layer-1 (cycle-accurate) EC bus model.

This is the paper's §3.1 model.  The bus offers the master non-blocking
instruction and data interfaces that return a :class:`BusState`; the
master re-invokes them every rising clock edge until ``OK``/``ERROR``.
A single bus process — sensitive to the *falling* edge, while masters
and slaves act on the rising edge — executes four phases per cycle:

1. ``get_slave_state()``  — refresh slave wait-state/rights snapshots,
2. ``address_phase()``    — FSM over the head of the request queue,
3. ``read_phase()``       — per-beat slave read interface invocations,
4. ``write_phase()``      — ditto for writes.

Address and data phases of *different* transactions overlap (pipelined
interface); within a cycle the phases run sequentially, so a request
with zero wait states traverses request queue → finish queue in one
cycle, exactly as the paper notes.

The cycle-by-cycle timing produced here is the reference behaviour the
gate-level model reproduces and the layer-2 model approximates.
"""

from __future__ import annotations

import typing

from repro.ec import (BusState, DecodeError, Direction, ErrorCause,
                      MemoryMap, Region, SlaveResponse, Transaction)
from repro.kernel import STEADY_FOREVER, Clock, Simulator

from .bus_base import EcBusBase
from .queues import TransactionQueue

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.power.layer1 import Layer1PowerModel


class _AddressPhaseFsm:
    """The address-phase finite state machine of Figure 3.

    States: IDLE (no request) and BUSY (counting down the slave's
    address wait states for the request at the head of the queue).
    """

    IDLE = "idle"
    BUSY = "busy"

    def __init__(self) -> None:
        self.state = self.IDLE
        self.current: typing.Optional[Transaction] = None
        self.region: typing.Optional[Region] = None
        self.remaining_wait_states = 0

    def start(self, transaction: Transaction, region: Region,
              address_wait_states: int) -> None:
        self.state = self.BUSY
        self.current = transaction
        self.region = region
        self.remaining_wait_states = address_wait_states

    def finish(self) -> None:
        self.state = self.IDLE
        self.current = None
        self.region = None


class EcBusLayer1(EcBusBase):
    """Cycle-accurate EC bus with the four-queue internal structure."""

    def __init__(self, simulator: Simulator, clock: Clock,
                 memory_map: MemoryMap, name: str = "ec_bus_l1",
                 power_model: typing.Optional["Layer1PowerModel"] = None,
                 ) -> None:
        super().__init__(simulator, clock, memory_map, name)
        self.power_model = power_model
        self.request_queue = TransactionQueue("request")
        self.read_queue = TransactionQueue("read")
        self.write_queue = TransactionQueue("write")
        self._address_fsm = _AddressPhaseFsm()
        #: txn_id -> (region, slave, forward_read, forward_write,
        #: slave base address) — the route is resolved once when the
        #: address phase completes, so the per-beat data phases skip
        #: the bridge-capability getattr and the window containment
        #: re-check (resolve_checked already validated the full burst)
        self._routes: typing.Dict[int, tuple] = {}
        self._process = self.method(
            self._bus_process, name="bus_process",
            sensitive=[clock.negedge_event], dont_initialize=True,
            steady=self._steady_idle)

    def _accept(self, transaction: Transaction) -> None:
        self.request_queue.push(transaction)

    # ------------------------------------------------------------------
    # the bus process (falling edge): four sequential phases
    # ------------------------------------------------------------------

    def _bus_process(self) -> None:
        """One bus cycle: the paper's phases 2–4 plus energy commit.

        The phases run inline in one method — they execute every
        single cycle of every layer-1 simulation, so the former
        one-method-per-phase layout paid three calls and repeated
        attribute walks per cycle for structure no caller used.  Each
        phase keeps in locals what it drove; after the write phase the
        power model gets them all in one call (§3.3).
        """
        power_model = self.power_model
        cycle = self.cycle
        routes = self._routes
        completing = False   # the address tenure's last cycle
        read = write = None  # the data beats' slave responses
        write_data = 0

        # -- phase 2: address (the FSM of Figure 3) --------------------
        fsm = self._address_fsm
        # steady: a cycle with every phase idle repeats identically
        # until a master issues (see _steady_idle)
        idle = False
        if fsm.state == fsm.IDLE:
            fifo = self.request_queue._fifo
            if not fifo:
                idle = True
            else:
                head = fifo.popleft()
                try:
                    # hierarchical decode: the first hop is the window
                    # on *this* bus (a local slave, or a bridge to
                    # another segment); rights are checked end-to-end
                    # at every hop
                    route = self.memory_map.resolve_checked(
                        head.address, head.kind, head.num_bytes)
                    region = route.regions[0]
                except DecodeError:
                    head.fail(cycle, ErrorCause.DECODE)
                    self.finish_pool.push(head)
                else:
                    fsm.start(head, region,
                              self.get_slave_state(region).address)
        # BUSY: drive the address channel, count down wait states
        tenure = fsm.current
        if tenure is not None:
            completing = fsm.remaining_wait_states == 0
            if completing:
                tenure.address_done_cycle = cycle
                slave = fsm.region.slave
                routes[tenure.txn_id] = (
                    fsm.region, slave,
                    getattr(slave, "forward_read_beat", None),
                    getattr(slave, "forward_write_beat", None),
                    slave.base_address)
                if tenure.direction is Direction.READ:
                    self.read_queue.push(tenure)
                else:
                    self.write_queue.push(tenure)
                fsm.finish()
            else:
                fsm.remaining_wait_states -= 1

        # -- phase 3: read data ----------------------------------------
        fifo = self.read_queue._fifo
        if fifo:
            idle = False
            transaction = fifo[0]
            (_region, slave, forward, _fw,
             base) = routes[transaction.txn_id]
            if forward is not None:  # bridge: transaction-aware forward
                read = forward(transaction)
            else:
                # beat_address() inlined: the decode already validated
                # the whole burst inside the window, no wrap possible
                read = slave.read_beat(
                    transaction.address - base
                    + (transaction.beats_done << 2),
                    transaction._enables)
            self._apply_response(transaction, read,
                                 self.read_queue, value=read.data)

        # -- phase 4: write data ---------------------------------------
        fifo = self.write_queue._fifo
        if fifo:
            idle = False
            transaction = fifo[0]
            (_region, slave, _fr, forward,
             base) = routes[transaction.txn_id]
            beat = transaction.beats_done
            write_data = transaction.data[beat]
            if forward is not None:  # bridge: transaction-aware forward
                write = forward(transaction, write_data)
            else:
                # beat_address() inlined, as in the read phase
                write = slave.write_beat(
                    transaction.address - base + (beat << 2),
                    transaction._enables, write_data)
            self._apply_response(transaction, write, self.write_queue)

        if power_model is not None:
            power_model.commit_cycle(cycle, tenure, completing, read,
                                     write_data, write)
        self.cycle = cycle + 1
        process = self._process
        if process.steady_armed:
            process.steady_until = (
                STEADY_FOREVER if idle and (power_model is None
                                            or power_model.steady_idle_ok())
                else 0)

    def _steady_idle(self, cycles: int) -> None:
        """*cycles* more all-idle cycles: the energy model books the
        same idle word again each cycle (marking where it started, see
        :mod:`repro.power.interfaces`) and the cycle counter
        advances."""
        power_model = self.power_model
        if power_model is not None:
            energy = power_model.total_energy_pj
            power_model.span_start = (self.simulator.steady_spans, energy,
                                      power_model.span(cycles))
        self.cycle += cycles

    def get_slave_state(self, region: Region):
        """Invoke the slave control interface (the paper's phase 1).

        Invoked lazily when a phase actually needs the state — every
        cycle an eager snapshot of all slaves would produce the same
        values, just slower.
        """
        return region.slave.wait_states

    def _apply_response(self, transaction: Transaction,
                        response: SlaveResponse, queue: TransactionQueue,
                        value: typing.Optional[int] = None) -> None:
        state = response.state
        if state is BusState.OK:
            transaction.complete_beat(self.cycle, value)
            if transaction.finished:
                queue.pop()
                del self._routes[transaction.txn_id]
                self.finish_pool.push(transaction)
        elif state is BusState.ERROR:
            queue.pop()
            del self._routes[transaction.txn_id]
            # a cause-carrying response (bridge relaying a downstream
            # fault) keeps its original cause; plain slave errors stay
            # SLAVE_ERROR
            transaction.fail(self.cycle,
                             response.cause or ErrorCause.SLAVE_ERROR)
            self.finish_pool.push(transaction)
        # WAIT: beat stays at the head; retried next cycle

    # ------------------------------------------------------------------

    def _evict(self, transaction: Transaction) -> bool:
        """Remove *transaction* from whichever pipeline stage holds it."""
        if self.request_queue.remove(transaction):
            return True
        fsm = self._address_fsm
        if fsm.current is transaction:
            fsm.finish()
            return True
        for queue in (self.read_queue, self.write_queue):
            was_head = queue.head() is transaction
            if queue.remove(transaction):
                region = self._routes.pop(transaction.txn_id)[0]
                # the head may have started a paced beat: clear the
                # slave's wait-state countdown so the next transaction
                # (or a retry of this one) re-samples from scratch
                if was_head and hasattr(region.slave, "cancel_pending"):
                    region.slave.cancel_pending(
                        "r" if queue is self.read_queue else "w")
                # a bridge may hold a forwarded clone on the
                # downstream bus: withdraw it too
                abandon = getattr(region.slave, "abandon", None)
                if abandon is not None:
                    abandon(transaction)
                return True
        return False

    # ------------------------------------------------------------------

    @property
    def busy(self) -> bool:
        """True while any transaction is anywhere in the pipe."""
        return bool(self.request_queue or self.read_queue
                    or self.write_queue or len(self.finish_pool)
                    or self._address_fsm.state != _AddressPhaseFsm.IDLE)

    def __repr__(self) -> str:
        return (f"EcBusLayer1({self.name!r}, cycle={self.cycle}, "
                f"completed={self.transactions_completed})")
