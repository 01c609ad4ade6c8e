"""Bus masters driving the TLM models.

The paper's master is the 4KSc core's bus interface unit; for bus-level
experiments it is replaced by programmable masters that replay scripted
transaction sequences — exactly how the paper drove its models with
bus traces captured from an assembly test program (§4.1).

Masters act on the rising clock edge and re-invoke the non-blocking bus
interfaces every cycle until ``OK``/``ERROR`` (§3.1).  Two issue
disciplines are provided:

* :class:`BlockingMaster` — one transaction in flight at a time,
* :class:`PipelinedMaster` — keeps a window of transactions in flight,
  exercising the pipelined address/data phases and the 4/4/4 budgets.

A script item is either a :class:`~repro.ec.Transaction` or an
``(idle_gap, Transaction)`` pair requesting *idle_gap* idle cycles
before the transaction is issued.

Both masters optionally carry a :class:`~repro.ec.RetryPolicy` — the
fault-tolerance layer of a power-aware card OS: failed transactions are
re-issued (as fresh clones) after a backoff, a per-transaction watchdog
cancels transfers stuck on a hung slave instead of letting the whole
run hit :func:`run_script`'s global :class:`TimeoutError`, and every
recovery episode is recorded as a :class:`~repro.ec.FaultReport`.
Without a policy the behaviour is bit-identical to the fault-oblivious
masters the accuracy experiments were built on.
"""

from __future__ import annotations

import typing

from repro.ec import (BusState, ErrorCause, FaultReport, RetryPolicy,
                      Transaction)
from repro.ec.interfaces import BusMasterInterface
from repro.kernel import (BlockedWaiter, Clock, Module, ProgressWatchdog,
                          Simulator, StallError)

from .bus_base import EcBusBase

ScriptItem = typing.Union[Transaction, typing.Tuple[int, Transaction]]


def normalise_script(script: typing.Iterable[ScriptItem]
                     ) -> typing.List[typing.Tuple[int, Transaction]]:
    """Expand script items to uniform ``(idle_gap, transaction)`` pairs."""
    items = []
    for entry in script:
        if isinstance(entry, Transaction):
            items.append((0, entry))
        else:
            gap, transaction = entry
            if gap < 0:
                raise ValueError(f"negative idle gap: {gap}")
            items.append((gap, transaction))
    return items


class _Recovery:
    """Per-script-item recovery bookkeeping across retry attempts."""

    __slots__ = ("attempts", "cause", "first_issue_cycle",
                 "first_error_cycle", "energy_at_first_error")

    def __init__(self) -> None:
        self.attempts = 0  # failed attempts so far
        self.cause: typing.Optional[ErrorCause] = None  # last failure's
        self.first_issue_cycle: typing.Optional[int] = None
        self.first_error_cycle: typing.Optional[int] = None
        self.energy_at_first_error: typing.Optional[float] = None


class ScriptedMaster(Module):
    """Common machinery for script-replaying masters."""

    def __init__(self, simulator: Simulator, clock: Clock,
                 bus: BusMasterInterface,
                 script: typing.Iterable[ScriptItem],
                 name: str = "master",
                 retry_policy: typing.Optional[RetryPolicy] = None,
                 energy_probe: typing.Optional[
                     typing.Callable[[], float]] = None,
                 governor=None) -> None:
        super().__init__(simulator, name)
        self.bus = bus
        # EcBusBase buses complete in-flight transactions only through
        # the finish pool, so its dict doubles as a "did anything
        # finish?" probe the per-cycle loops can test before paying
        # for a full (almost always WAIT) re-issue call.  Foreign
        # buses (layer 3, arbiter ports) keep the plain re-issue.
        self._completions: typing.Optional[dict] = (
            bus.finish_pool._done if isinstance(bus, EcBusBase)
            else None)
        self.clock = clock
        self.script = normalise_script(script)
        self.retry_policy = retry_policy
        self.energy_probe = energy_probe
        self.governor = governor
        self.completed: typing.List[Transaction] = []
        self.errors: typing.List[Transaction] = []
        self.fault_reports: typing.List[FaultReport] = []
        self.retries = 0   # re-issues of failed transactions
        self.timeouts = 0  # watchdog aborts
        self._next_index = 0
        self._idle_remaining = self.script[0][0] if self.script else 0
        self.done = len(self.script) == 0
        self.done_event = simulator.event(f"{name}.done")
        self.method(self._on_clock, name="on_clock",
                    sensitive=[clock.posedge_event], dont_initialize=True)
        # report this master in DeadlockError/StallError diagnostics
        # while it still has unfinished script work
        simulator.add_waiter_hook(self._blocked_waiters)

    def _blocked_waiters(self) -> typing.List[BlockedWaiter]:
        """Waiter hook: describe this master while it is not done."""
        if self.done:
            return []
        in_flight = self._in_flight_summary()
        return [BlockedWaiter(
            f"master {self.name!r}",
            in_flight or "next script item",
            f"{len(self.completed)}/{len(self.script)} transactions, "
            f"{len(self.errors)} errors, {self.retries} retries, "
            f"{self.timeouts} watchdog timeouts")]

    def _in_flight_summary(self) -> str:
        """Describe the in-flight transactions (subclass-specific)."""
        return ""  # pragma: no cover - overridden

    @staticmethod
    def _describe(transaction: Transaction) -> str:
        return (f"{transaction.kind.value}@{transaction.address:#x} "
                f"beat {transaction.beats_done}/"
                f"{transaction.burst_length} "
                f"issued c{transaction.issue_cycle}")

    def _on_clock(self) -> None:
        raise NotImplementedError  # pragma: no cover

    def _record(self, transaction: Transaction) -> None:
        self.completed.append(transaction)
        if transaction.error:
            self.errors.append(transaction)
        if (self._next_index >= len(self.script)
                and self._nothing_in_flight() and not self.done):
            self.done = True
            self.done_event.notify_delta()

    def _nothing_in_flight(self) -> bool:
        raise NotImplementedError  # pragma: no cover

    def _arm_gap_for_next(self) -> None:
        """Load the idle gap of the next script item, if any."""
        if self._next_index < len(self.script):
            self._idle_remaining = self.script[self._next_index][0]

    def _may_issue(self, transaction: Transaction) -> bool:
        """Consult the energy governor before issuing *new* work.

        Retries are never gated: recovery traffic repairs state the
        card has already paid for.  Without a governor this is a
        constant True and the issue timing is bit-identical to the
        governor-less masters.
        """
        return (self.governor is None
                or self.governor.may_issue(transaction))

    # -- recovery machinery (inert without a retry policy) ----------------

    def _watchdog_expired(self, transaction: Transaction,
                          attempt_start: int) -> bool:
        policy = self.retry_policy
        return (policy is not None
                and policy.timeout_cycles is not None
                and not transaction.finished
                and self.clock.cycles - attempt_start
                > policy.timeout_cycles)

    def _abort(self, transaction: Transaction) -> bool:
        """Watchdog abort: cancel on the bus, mark as timed out."""
        if not self.bus.cancel(transaction):
            return False  # already finishing: collect it normally
        transaction.fail(self.clock.cycles, ErrorCause.TIMEOUT)
        self.timeouts += 1
        return True

    def _handle_finished(self, transaction: Transaction,
                         rec: _Recovery) -> typing.Optional[Transaction]:
        """Process a finished attempt; returns a retry clone or None.

        None means the script item is final and has been recorded
        (successfully, or as a permanent error).
        """
        if rec.first_issue_cycle is None:
            rec.first_issue_cycle = transaction.issue_cycle
        if not transaction.error:
            self._finalize(transaction, rec)
            return None
        rec.attempts += 1
        rec.cause = transaction.error_cause
        if rec.first_error_cycle is None:
            rec.first_error_cycle = transaction.data_done_cycle
            if self.energy_probe is not None:
                rec.energy_at_first_error = self.energy_probe()
        policy = self.retry_policy
        if policy is None or not policy.should_retry(
                transaction.error_cause, rec.attempts):
            self._finalize(transaction, rec)
            return None
        self.retries += 1
        return transaction.clone()

    def _finalize(self, transaction: Transaction, rec: _Recovery) -> None:
        """Record the final outcome of a script item (+ fault report).

        Reports are an artefact of the opt-in recovery layer: without
        a policy, errors land in ``self.errors`` exactly as before.
        """
        if self.retry_policy is not None and rec.attempts > 0:
            recovered = not transaction.error
            resolved = transaction.data_done_cycle
            cycles_lost = None
            if (resolved is not None
                    and rec.first_issue_cycle is not None):
                span = resolved - rec.first_issue_cycle
                if recovered and transaction.latency_cycles is not None:
                    span -= transaction.latency_cycles
                cycles_lost = max(span, 0)
            retry_energy = None
            if (self.energy_probe is not None
                    and rec.energy_at_first_error is not None):
                retry_energy = (self.energy_probe()
                                - rec.energy_at_first_error)
            self.fault_reports.append(FaultReport(
                address=transaction.address,
                kind=transaction.kind.value,
                cause=rec.cause,
                attempts=rec.attempts + (0 if transaction.error else 1),
                recovered=recovered,
                first_issue_cycle=rec.first_issue_cycle,
                resolved_cycle=resolved,
                cycles_lost=cycles_lost,
                retry_energy_pj=retry_energy))
        self._record(transaction)


class BlockingMaster(ScriptedMaster):
    """Issues one transaction at a time; waits for completion."""

    def __init__(self, simulator: Simulator, clock: Clock,
                 bus: BusMasterInterface,
                 script: typing.Iterable[ScriptItem],
                 name: str = "blocking_master",
                 retry_policy: typing.Optional[RetryPolicy] = None,
                 energy_probe: typing.Optional[
                     typing.Callable[[], float]] = None,
                 governor=None) -> None:
        super().__init__(simulator, clock, bus, script, name,
                         retry_policy, energy_probe, governor)
        self._current: typing.Optional[Transaction] = None
        self._rec: typing.Optional[_Recovery] = None
        self._attempt_start = 0
        self._pending_retry: typing.Optional[Transaction] = None
        self._retry_wait = 0

    def _nothing_in_flight(self) -> bool:
        return self._current is None and self._pending_retry is None

    def _in_flight_summary(self) -> str:
        if self._current is not None:
            return f"bus completion of {self._describe(self._current)}"
        if self._pending_retry is not None:
            return (f"retry backoff ({self._retry_wait} cycles left) for "
                    f"{self._describe(self._pending_retry)}")
        return ""

    def _start_item(self) -> None:
        self._current = self.script[self._next_index][1]
        self._next_index += 1
        self._rec = _Recovery()
        self._attempt_start = self.clock.cycles

    def _on_clock(self) -> None:
        if self.done:
            return
        if (self._current is not None
                and self._watchdog_expired(self._current,
                                           self._attempt_start)):
            if self._abort(self._current):
                aborted, self._current = self._current, None
                self._resolve_attempt(aborted)
                return
        if self._current is None and self._pending_retry is not None:
            if self._retry_wait > 0:
                self._retry_wait -= 1
                return
            self._current = self._pending_retry
            self._pending_retry = None
            self._attempt_start = self.clock.cycles
        if self._current is None:
            if self._next_index >= len(self.script):
                return
            if self._idle_remaining > 0:
                self._idle_remaining -= 1
                return
            if not self._may_issue(self.script[self._next_index][1]):
                return
            self._start_item()
        state = self.bus.issue(self._current)
        if state.finished:
            finished = self._current
            self._current = None
            self._resolve_attempt(finished)
            # back-to-back issue: the BIU starts the next request in the
            # same cycle it samples a completion (EC back-to-back reads)
            if (self._current is None and self._pending_retry is None
                    and self._idle_remaining == 0
                    and self._next_index < len(self.script)
                    and self._may_issue(self.script[self._next_index][1])):
                self._start_item()
                self.bus.issue(self._current)

    def _resolve_attempt(self, finished: Transaction) -> None:
        """Finalize or schedule a retry for the attempt just ended."""
        clone = self._handle_finished(finished, self._rec)
        if clone is None:
            self._rec = None
            self._arm_gap_for_next()
            return
        backoff = self.retry_policy.backoff_cycles
        if backoff == 0:
            # immediate re-issue, mirroring the back-to-back path
            self._current = clone
            self._attempt_start = self.clock.cycles
            self.bus.issue(self._current)
        else:
            self._pending_retry = clone
            self._retry_wait = backoff


class PipelinedMaster(ScriptedMaster):
    """Keeps up to *window* transactions in flight simultaneously."""

    def __init__(self, simulator: Simulator, clock: Clock,
                 bus: BusMasterInterface,
                 script: typing.Iterable[ScriptItem],
                 window: int = 4, name: str = "pipelined_master",
                 retry_policy: typing.Optional[RetryPolicy] = None,
                 energy_probe: typing.Optional[
                     typing.Callable[[], float]] = None,
                 governor=None) -> None:
        if window < 1:
            raise ValueError("window must be at least 1")
        super().__init__(simulator, clock, bus, script, name,
                         retry_policy, energy_probe, governor)
        self.window = window
        self._in_flight: typing.List[Transaction] = []
        #: txn_id -> [recovery record, attempt-start clock cycle]
        self._meta: typing.Dict[int, list] = {}
        #: [backoff countdown, clone, recovery record] awaiting re-issue
        self._retry_queue: typing.List[list] = []

    def _nothing_in_flight(self) -> bool:
        return not self._in_flight and not self._retry_queue

    def _in_flight_summary(self) -> str:
        parts = [f"bus completion of {self._describe(t)}"
                 for t in self._in_flight]
        parts.extend(f"retry backoff for {self._describe(entry[1])}"
                     for entry in self._retry_queue)
        return "; ".join(parts)

    def _on_clock(self) -> None:
        if self.done:
            return
        in_flight = self._in_flight
        retry_queue = self._retry_queue
        issue = self.bus.issue
        finished: typing.Optional[typing.List[Transaction]] = None
        # watchdog: abort in-flight transactions stuck past the budget
        retry_policy = self.retry_policy
        if (retry_policy is not None
                and retry_policy.timeout_cycles is not None):
            for transaction in list(in_flight):
                meta = self._meta[transaction.txn_id]
                if self._watchdog_expired(transaction, meta[1]):
                    if self._abort(transaction):
                        in_flight.remove(transaction)
                        (finished := finished or []).append(transaction)
        # advance everything already in flight, collecting completions
        completions = self._completions
        if in_flight and (completions is None or completions):
            still_flying: typing.List[Transaction] = []
            for transaction in in_flight:
                if (completions is not None
                        and transaction.txn_id not in completions):
                    still_flying.append(transaction)  # would be WAIT
                    continue
                state = issue(transaction)
                if state.finished:
                    (finished := finished or []).append(transaction)
                else:
                    still_flying.append(transaction)
            in_flight = self._in_flight = still_flying
        # re-issue retries whose backoff elapsed, window permitting
        if retry_queue:
            for entry in retry_queue:
                if entry[0] > 0:
                    entry[0] -= 1
            while (retry_queue and retry_queue[0][0] <= 0
                   and len(in_flight) < self.window):
                _, clone, rec = retry_queue[0]
                state = issue(clone)
                if state is BusState.WAIT:
                    break  # budget full: retry the same clone next cycle
                retry_queue.pop(0)
                self._meta[clone.txn_id] = [rec, self.clock.cycles]
                if state.finished:
                    (finished := finished or []).append(clone)
                else:
                    in_flight.append(clone)
        # issue new work while the window, gaps and script allow
        if self._idle_remaining > 0:
            self._idle_remaining -= 1
        else:
            script = self.script
            window = self.window
            governor = self.governor
            while (len(in_flight) < window
                   and self._next_index < len(script)
                   and self._idle_remaining == 0):
                transaction = script[self._next_index][1]
                if (governor is not None
                        and not governor.may_issue(transaction)):
                    break  # governor deferral: try again next cycle
                state = issue(transaction)
                if state is BusState.WAIT:
                    break  # budget full: retry the same item next cycle
                self._next_index += 1
                self._arm_gap_for_next()
                self._meta[transaction.txn_id] = [_Recovery(),
                                                  self.clock.cycles]
                if state.finished:
                    (finished := finished or []).append(transaction)
                else:
                    in_flight.append(transaction)
        if finished:
            for transaction in finished:
                rec = self._meta.pop(transaction.txn_id)[0]
                clone = self._handle_finished(transaction, rec)
                if clone is not None:
                    retry_queue.append(
                        [retry_policy.backoff_cycles, clone, rec])


def run_script(simulator: Simulator, master: ScriptedMaster,
               max_cycles: int, clock: Clock,
               stall_cycles: typing.Optional[int] = None,
               wall_seconds: typing.Optional[float] = None) -> int:
    """Run until the master finishes; returns elapsed clock cycles.

    Raises :class:`~repro.kernel.StallError` (a
    :class:`TimeoutError` subclass, so pre-existing guards still work)
    if the script does not complete within *max_cycles* — a guard
    against protocol deadlocks in tests.  The message reports how far
    the master got, including its recovery statistics, and now also the
    blocked-waiter/event-journal diagnostic from the kernel, so a stuck
    run is diagnosable from the exception alone.

    *stall_cycles* / *wall_seconds* optionally arm a
    :class:`~repro.kernel.ProgressWatchdog` keyed to the master's
    completion counters: a master making *no* progress for that many
    bus cycles (or seconds of wall clock) trips early with the same
    diagnostic, instead of burning the whole *max_cycles* budget.  The
    kernel polls it at every clock edge, so a trip lands on the first
    edge past the budget, wherever it falls in the 64-cycle slices.
    """
    start_cycle = clock.cycles
    slice_cycles = 64
    elapsed = 0
    watchdog = None
    if stall_cycles is not None or wall_seconds is not None:
        watchdog = ProgressWatchdog(
            progress=lambda: (len(master.completed), master.retries,
                              master.timeouts, master._next_index),
            stall_time=(None if stall_cycles is None
                        else stall_cycles * clock.period),
            wall_seconds=wall_seconds,
            name=f"{master.name}.progress")
        simulator.attach_watchdog(watchdog)
    try:
        while elapsed < max_cycles:
            simulator.run(slice_cycles * clock.period)
            elapsed += slice_cycles
            if master.done or simulator.powered_off:
                # power loss is a clean (if abrupt) end of the run, not
                # a stall: the caller inspects simulator.powered_off
                return clock.cycles - start_cycle
    finally:
        if watchdog is not None:
            simulator.detach_watchdog(watchdog)
    raise simulator.diagnose(
        f"master {master.name!r} not done after {max_cycles} cycles "
        f"({len(master.completed)}/{len(master.script)} transactions, "
        f"{len(master.errors)} errors, {master.retries} retries, "
        f"{master.timeouts} watchdog timeouts)",
        kind="stall", exc_class=StallError)
