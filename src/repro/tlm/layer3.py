"""Transaction-level layer-3 (message layer, untimed) EC bus model.

The paper adopts Haverinen et al.'s layering (§2): above the transfer
layer (1) and the transaction layer (2) sits layer 3, the *message
layer* — "Systems at this level are untimed ... Data representation
may be of a very abstract data type and several data items can be
transferred by a single transaction".  The paper's own untimed Java
Card model is a layer-3 system; this module makes the layer explicit
so the full hierarchy (3 → 2 → 1 → 0) is available for top-down
refinement.

:class:`EcBusLayer3` needs no simulation kernel at all: a message is
routed, checked and completed within the call.  It still honours the
protocol's *functional* contract — memory map decode, access rights,
window containment, byte-lane merging — so software developed against
it behaves identically when re-targeted to the timed layers (the
cross-layer property tests check exactly that).

Two interfaces are offered:

* the blocking message interface (``read_message``/``write_message``)
  natural at this layer, moving arbitrarily long payloads in one call,
* the standard non-blocking :class:`BusMasterInterface`, completing
  every transaction on its first invocation, so every existing master
  and adapter runs unchanged (just infinitely fast).

:class:`MessageRun` completes a bus script on the layer without a
clock: the untimed counterpart of
:class:`~repro.tlm.master.BlockingMaster`.
"""

from __future__ import annotations

import typing

from repro.ec import (BYTES_PER_WORD, BusState, DecodeError, ErrorCause,
                      FaultReport, MemoryMap, RetryPolicy, Transaction,
                      TransactionKind)
from repro.ec.interfaces import BusMasterInterface

from .master import ScriptItem, normalise_script


class EcBusLayer3(BusMasterInterface):
    """Untimed functional bus: decode, check, move data, return."""

    def __init__(self, memory_map: MemoryMap,
                 name: str = "ec_bus_l3") -> None:
        self.memory_map = memory_map
        self.name = name
        self.messages = 0
        self.transactions_completed = 0
        self.errors = 0

    # ------------------------------------------------------------------
    # the message interface (layer-3 native)
    # ------------------------------------------------------------------

    def read_message(self, address: int, num_words: int,
                     instruction: bool = False) -> typing.List[int]:
        """Read *num_words* words starting at *address* in one message.

        Messages may span any length within one slave window; there is
        no burst-length restriction at this layer.
        """
        kind = (TransactionKind.INSTRUCTION_READ if instruction
                else TransactionKind.DATA_READ)
        route = self.memory_map.resolve_checked(
            address, kind, num_words * BYTES_PER_WORD)
        for hop in route.bridges:
            hop.slave.note_message()
        region = route.terminal
        base = region.slave.offset_of(address)
        words, error = region.slave.read_block(base, num_words, 0b1111)
        if error:
            self.errors += 1
            raise DecodeError(f"slave error reading {address:#x}")
        self.messages += 1
        return words

    def write_message(self, address: int,
                      words: typing.Sequence[int]) -> None:
        """Write *words* starting at *address* in one message."""
        route = self.memory_map.resolve_checked(
            address, TransactionKind.DATA_WRITE,
            len(words) * BYTES_PER_WORD)
        for hop in route.bridges:
            hop.slave.note_message()
        region = route.terminal
        base = region.slave.offset_of(address)
        _, error = region.slave.write_block(base, list(words), 0b1111)
        if error:
            self.errors += 1
            raise DecodeError(f"slave error writing {address:#x}")
        self.messages += 1

    # ------------------------------------------------------------------
    # the non-blocking interface: completes immediately
    # ------------------------------------------------------------------

    def instruction_fetch(self, transaction: Transaction) -> BusState:
        return self._complete(transaction)

    def data_read(self, transaction: Transaction) -> BusState:
        return self._complete(transaction)

    def data_write(self, transaction: Transaction) -> BusState:
        return self._complete(transaction)

    def _complete(self, transaction: Transaction) -> BusState:
        if transaction.finished:
            return transaction.state
        try:
            route = self.memory_map.resolve_checked(
                transaction.address, transaction.kind,
                transaction.num_bytes)
        except DecodeError:
            transaction.issue_cycle = 0
            transaction.fail(0, ErrorCause.DECODE)
            self.errors += 1
            return BusState.ERROR
        # notify each bridge hop; a fault-injecting bridge may fail the
        # crossing (returning the cause) or corrupt the posted drain
        # ("drop"/"dup") — the same schedule the timed layers apply
        drop = dup = False
        for hop in route.bridges:
            verdict = hop.slave.forward_message(transaction)
            if isinstance(verdict, ErrorCause):
                transaction.issue_cycle = 0
                transaction.fail(0, verdict)
                self.errors += 1
                return BusState.ERROR
            if verdict == "drop":
                drop = True
            elif verdict == "dup":
                dup = True
        region = route.terminal
        transaction.issue_cycle = 0
        transaction.address_done_cycle = 0
        slave = region.slave
        base = slave.offset_of(transaction.address)
        if transaction.kind is TransactionKind.DATA_WRITE:
            enables = (transaction.byte_enables(0)
                       if transaction.burst_length == 1 else 0b1111)
            if drop:
                # dropped posted write: acknowledged upstream, never
                # committed — complete the beats without touching the
                # slave, exactly what the timed drain process does
                beats_ok, error = transaction.burst_length, False
            else:
                beats_ok, error = slave.write_block(
                    base, transaction.data, enables)
                if dup and not error:
                    slave.write_block(base, transaction.data, enables)
            for _ in range(beats_ok):
                transaction.complete_beat(0)
            if error:
                transaction.fail(0, ErrorCause.SLAVE_ERROR)
                self.errors += 1
                return BusState.ERROR
        else:
            words, error = slave.read_block(
                base, transaction.burst_length,
                transaction.byte_enables(0))
            for word in words:
                transaction.complete_beat(0, word)
            if error:
                transaction.fail(0, ErrorCause.SLAVE_ERROR)
                self.errors += 1
                return BusState.ERROR
        self.transactions_completed += 1
        return BusState.OK

    def __repr__(self) -> str:
        return (f"EcBusLayer3({self.name!r}, messages={self.messages}, "
                f"transactions={self.transactions_completed})")


class MessageRun:
    """Complete *script* on the untimed *bus*, one item at a time.

    A failed attempt is re-issued as a fresh clone while
    *retry_policy* says so: the same
    :meth:`~repro.ec.RetryPolicy.should_retry` decisions
    :class:`~repro.tlm.master.BlockingMaster` makes (its backoff and
    watchdog count cycles, so they do not apply).  The result has the
    masters' surface: ``completed`` holds each item's final attempt in
    script order, ``errors`` the failed ones, ``retries`` the
    re-issues and, with a policy, ``fault_reports`` one report per
    item that ever failed.
    """

    def __init__(self, bus: BusMasterInterface,
                 script: typing.Iterable[ScriptItem],
                 retry_policy: typing.Optional[RetryPolicy] = None) -> None:
        self.completed: typing.List[Transaction] = []
        self.errors: typing.List[Transaction] = []
        self.fault_reports: typing.List[FaultReport] = []
        self.retries = 0
        for _, transaction in normalise_script(script):
            failures, cause = 0, None
            while True:
                if not bus.issue(transaction).finished:
                    raise RuntimeError(f"layer-3 transaction did not "
                                       f"complete synchronously: "
                                       f"{transaction}")
                if not transaction.error:
                    break
                failures, cause = failures + 1, transaction.error_cause
                if retry_policy is None or not retry_policy.should_retry(
                        cause, failures):
                    break
                self.retries += 1
                transaction = transaction.clone()
            if retry_policy is not None and failures:
                # every cycle is 0 on this bus: nothing is lost to them
                self.fault_reports.append(FaultReport(
                    address=transaction.address,
                    kind=transaction.kind.value, cause=cause,
                    attempts=failures + (0 if transaction.error else 1),
                    recovered=not transaction.error, first_issue_cycle=0,
                    resolved_cycle=0, cycles_lost=0))
            self.completed.append(transaction)
            if transaction.error:
                self.errors.append(transaction)
