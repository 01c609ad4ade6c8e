"""Discrete-event scheduler implementing the SystemC 2.0 evaluate/update
delta-cycle semantics.

The paper's models are written against SystemC 2.0 (``SC_METHOD``
processes, static sensitivity to clock edges, non-blocking interface
method calls).  This module provides the minimal kernel those models
need, structured as the classic three-phase loop:

1. **evaluate** — run every runnable process once,
2. **update**   — commit primitive-channel (signal) writes,
3. **delta notification** — turn value changes into newly runnable
   processes; if any, repeat from 1 without advancing time, otherwise
   advance to the earliest timed notification.
"""

from __future__ import annotations

import collections
import heapq
import itertools
import typing

from . import fastlane
from .event import Event

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .module import Process
    from .signal import SignalBase
    from .supervision import (BlockedWaiter, DeadlockError, JournalEntry,
                              ProgressWatchdog)
    from .thread import ThreadProcess


class SimulationError(RuntimeError):
    """Raised for kernel misuse (e.g. running a finished simulator)."""


#: Watchdogs are also polled every this many delta cycles within one
#: time instant, so a delta-cycle livelock (processes immediate-notifying
#: each other forever) still hits the wall-clock budget.
_DELTAS_PER_WATCHDOG_CHECK = 4096


class Simulator:
    """The simulation kernel: owns time, events, signals and processes."""

    def __init__(self, name: str = "sim",
                 journal_capacity: int = 32,
                 fast_lane: bool = True) -> None:
        self.name = name
        self.now: int = 0
        self.delta_count: int = 0
        self._events: list[Event] = []
        self._processes: list["Process"] = []
        self._signals: list["SignalBase"] = []
        self._clocks: list = []
        self._runnable: list["Process"] = []
        self._update_requests: list["SignalBase"] = []
        # ordered list (determinism) paired with a set (O(1) membership)
        self._delta_events: list[Event] = []
        self._delta_events_set: set = set()
        self._timed_queue: list[list] = []  # [when, seq, cancelled, event]
        #: live (non-tombstone) entries in the timed queue, maintained at
        #: every push/pop/cancel so pending_activity() never has to scan
        self._timed_live = 0
        self._seq = itertools.count()
        self._fast_lane_enabled = fast_lane
        self._fast_lane = None
        self._fast_lane_time = 0
        self._steady_cycles = 0
        self._stop_requested = False
        self._started = False
        self._powered_off = False
        self.power_off_reason: typing.Optional[str] = None
        self._power_off_hooks: typing.List[
            typing.Callable[[str], None]] = []
        # ring buffer of the most recent event notifications — the
        # "flight recorder" DeadlockError diagnostics embed.  Raw
        # (time, delta, kind, event-name) tuples: this append sits on
        # the kernel's notification hot path, so the pretty
        # JournalEntry objects are only built in journal_entries()
        self._journal: typing.Deque[tuple] = collections.deque(
            maxlen=journal_capacity)
        self._threads: list["ThreadProcess"] = []
        self._waiter_hooks: list[typing.Callable[
            [], typing.Iterable["BlockedWaiter"]]] = []
        self._watchdogs: list["ProgressWatchdog"] = []
        self._deltas_since_check = 0

    # -- registration (used by Event/Signal/Module constructors) ---------

    def _register_event(self, event: Event) -> None:
        self._events.append(event)

    def _register_process(self, process: "Process") -> None:
        self._processes.append(process)

    def _register_signal(self, signal: "SignalBase") -> None:
        self._signals.append(signal)

    def _register_thread(self, thread: "ThreadProcess") -> None:
        self._threads.append(thread)

    def _register_clock(self, clock) -> None:
        self._clocks.append(clock)

    # -- notification plumbing ------------------------------------------

    def _notify_immediate(self, event: Event) -> None:
        self._journal.append((self.now, self.delta_count, "immediate",
                              event.name))
        for process in event._collect_triggered():
            self._make_runnable(process)

    def _notify_delta(self, event: Event) -> None:
        if event not in self._delta_events_set:
            self._delta_events_set.add(event)
            self._delta_events.append(event)

    def _schedule_event(self, event: Event, when: int) -> list:
        entry = [when, next(self._seq), False, event]
        heapq.heappush(self._timed_queue, entry)
        self._timed_live += 1
        return entry

    def _request_update(self, signal: "SignalBase") -> None:
        self._update_requests.append(signal)

    def _make_runnable(self, process: "Process") -> None:
        if not process._runnable_flag:
            process._runnable_flag = True
            self._runnable.append(process)

    # -- control ---------------------------------------------------------

    def stop(self) -> None:
        """Request the simulation stop at the end of the current delta."""
        self._stop_requested = True

    @property
    def powered_off(self) -> bool:
        """True once :meth:`power_off` has been called."""
        return self._powered_off

    def add_power_off_hook(
            self, hook: typing.Callable[[str], None]) -> None:
        """Register *hook* to run inside :meth:`power_off`.

        Hooks model the few nanoseconds of residual charge a dying
        card still has: enough for combinational state to settle into
        non-volatile side effects (a bus bridge flushing its posted
        write buffer), not enough to clock anything.  A hook must not
        schedule events or advance time — the kernel is already
        latched off when it runs.
        """
        self._power_off_hooks.append(hook)

    def power_off(self, reason: str = "power loss") -> None:
        """Cooperative whole-card power loss.

        Stops the simulation like :meth:`stop`, but latches: any later
        :meth:`run` returns immediately without consuming time.  Models
        a contactless card leaving the reader field — in-flight signal
        updates are abandoned exactly where the current delta left
        them, and only state the testbench explicitly carries over
        (e.g. the EEPROM image) survives into the next simulator.
        Registered power-off hooks run exactly once, on the first
        call (see :meth:`add_power_off_hook`).
        """
        if self._powered_off:
            return
        self.power_off_reason = reason
        self._powered_off = True
        self._stop_requested = True
        for hook in list(self._power_off_hooks):
            hook(reason)

    def initialize(self) -> None:
        """Make every process runnable once, as SystemC elaboration does
        (processes created with ``dont_initialize`` are skipped)."""
        if self._started:
            return
        self._started = True
        for process in self._processes:
            if not process.dont_initialize:
                self._make_runnable(process)

    def _drain_delta_events(self) -> None:
        """Turn pending delta notifications into runnable processes."""
        if self._delta_events:
            events, self._delta_events = self._delta_events, []
            self._delta_events_set.clear()
            for event in events:
                self._journal.append((self.now, self.delta_count,
                                      "delta", event.name))
                for process in event._collect_triggered():
                    self._make_runnable(process)

    def _run_delta(self) -> bool:
        """Run one delta cycle.  Returns True if any process ran."""
        if not self._runnable:
            # delta notifications posted from outside a delta cycle
            # (e.g. test benches priming an event) still need to fire
            self._drain_delta_events()
            if not self._runnable:
                return False
        self.delta_count += 1
        # evaluate phase: immediate notifications extend the current
        # phase, so keep draining until no process is runnable
        while self._runnable:
            runnable, self._runnable = self._runnable, []
            for process in runnable:
                process._runnable_flag = False
            for process in runnable:
                process._execute()
        # update phase
        if self._update_requests:
            updates, self._update_requests = self._update_requests, []
            for signal in updates:
                signal._update()
        # delta notification phase
        self._drain_delta_events()
        return True

    def _advance_time(self) -> bool:
        """Pop the earliest timed notification(s).  Returns False if none."""
        queue = self._timed_queue
        while queue and queue[0][2]:
            heapq.heappop(queue)  # drop cancelled tombstones
        if not queue:
            return False
        when = queue[0][0]
        if when < self.now:
            raise SimulationError(
                f"timed queue went backwards: {when} < {self.now}")
        self.now = when
        while queue and queue[0][0] == when:
            entry = heapq.heappop(queue)
            if entry[2]:
                continue
            self._timed_live -= 1
            event: Event = entry[3]
            self._journal.append((self.now, self.delta_count, "timed",
                                  event.name))
            for process in event._collect_triggered():
                self._make_runnable(process)
        return True

    def run(self, duration: typing.Optional[int] = None) -> int:
        """Run the simulation.

        With *duration* (kernel time units) the kernel returns once
        simulated time would exceed ``start + duration``; without it,
        runs until no activity remains or :meth:`stop` is called.
        Returns the simulated time consumed.

        Raises :class:`~repro.kernel.DeadlockError` if all activity
        drains while blocked waiters remain (unfinished thread
        processes, or anything reported by a waiter hook) — a bounded
        run that merely reaches its deadline does not deadlock-check.
        Attached :class:`~repro.kernel.ProgressWatchdog` instances are
        polled at every time advance (and periodically inside delta
        storms) and raise :class:`~repro.kernel.StallError` when their
        budgets expire.
        """
        start = self.now
        if self._powered_off:
            return 0
        deadline = None if duration is None else start + duration
        self.initialize()
        self._stop_requested = False
        while True:
            while self._run_delta():
                if self._stop_requested:
                    return self.now - start
                if self._watchdogs:
                    self._deltas_since_check += 1
                    if (self._deltas_since_check
                            >= _DELTAS_PER_WATCHDOG_CHECK):
                        self._check_watchdogs()
            if self._stop_requested:
                return self.now - start
            queue = self._timed_queue
            while queue and queue[0][2]:
                heapq.heappop(queue)
            if not queue:
                self._check_deadlock()
                return self.now - start
            if deadline is not None and queue[0][0] > deadline:
                self.now = deadline
                return self.now - start
            if self._fast_lane_enabled:
                status = self._run_fast_lane(deadline)
                if status == fastlane.FINISHED:
                    return self.now - start
                if status == fastlane.FELL_BACK:
                    continue
            self._advance_time()
            if self._watchdogs:
                self._check_watchdogs()

    def _run_fast_lane(self, deadline: typing.Optional[int]) -> int:
        """Attempt the precompiled clocked cycle loop (see fastlane.py)."""
        lane = self._fast_lane
        if lane is None:
            lane = self._fast_lane = fastlane.FastLane(self)
        start = self.now
        try:
            return lane.run(deadline)
        finally:
            self._fast_lane_time += self.now - start

    @property
    def fast_lane_time(self) -> int:
        """Simulated time (kernel units) advanced inside the fast lane.

        The rest of ``now`` was advanced by the generic loop, so this
        tells which path a run took.
        """
        return self._fast_lane_time

    @property
    def steady_cycles(self) -> int:
        """Clock cycles the fast lane advanced through steady steps
        (see :mod:`repro.kernel.fastlane`) instead of full activations.
        """
        return self._steady_cycles

    # -- supervision -------------------------------------------------------

    def add_waiter_hook(self, hook: typing.Callable[
            [], typing.Iterable["BlockedWaiter"]]) -> None:
        """Register a callable reporting blocked waiters for diagnostics.

        Hooks are consulted when a deadlock or stall is being diagnosed;
        each returns an iterable of
        :class:`~repro.kernel.BlockedWaiter` records (empty when its
        owner is not blocked).
        """
        self._waiter_hooks.append(hook)

    def attach_watchdog(self, watchdog: "ProgressWatchdog") -> None:
        """Poll *watchdog* during :meth:`run` until it is detached."""
        watchdog.reset(self)
        self._watchdogs.append(watchdog)

    def detach_watchdog(self, watchdog: "ProgressWatchdog") -> None:
        if watchdog in self._watchdogs:
            self._watchdogs.remove(watchdog)

    def blocked_waiters(self) -> list:
        """Everything currently waiting: unfinished threads + hooks."""
        from .supervision import BlockedWaiter
        blocked = []
        for thread in self._threads:
            if not thread.finished:
                blocked.append(BlockedWaiter(
                    f"thread {thread.name!r}",
                    thread.waiting_on or "first resume",
                    f"resumed {thread.resume_count} times"))
        for hook in self._waiter_hooks:
            blocked.extend(hook())
        return blocked

    def journal_entries(self) -> tuple:
        """The event-notification ring buffer as
        :class:`~repro.kernel.JournalEntry` records, oldest first."""
        from .supervision import JournalEntry
        return tuple(JournalEntry(*entry) for entry in self._journal)

    def diagnose(self, message: str, *, kind: str = "deadlock",
                 exc_class: typing.Optional[type] = None
                 ) -> "DeadlockError":
        """Build a structured supervision error with the live context."""
        from .supervision import DeadlockError
        factory = exc_class or DeadlockError
        return factory(message, kind=kind, now=self.now,
                       delta_count=self.delta_count,
                       blocked=self.blocked_waiters(),
                       journal=self.journal_entries())

    def _check_deadlock(self) -> None:
        blocked = self.blocked_waiters()
        if blocked:
            raise self.diagnose(
                f"deadlock in {self.name!r}: no runnable process and no "
                f"pending event, but {len(blocked)} waiter(s) remain",
                kind="deadlock")

    def _check_watchdogs(self) -> None:
        self._deltas_since_check = 0
        for watchdog in self._watchdogs:
            watchdog.check(self)

    # -- conveniences -----------------------------------------------------

    def event(self, name: str = "event") -> Event:
        """Create a fresh :class:`Event` bound to this kernel."""
        return Event(self, name)

    def pending_activity(self) -> bool:
        """True if any runnable process, delta event or timed event exists."""
        if self._update_requests:
            return True
        if self._runnable or self._delta_events:
            return True
        return self._timed_live > 0

    def __repr__(self) -> str:
        return (f"Simulator({self.name!r}, now={self.now}, "
                f"processes={len(self._processes)})")
