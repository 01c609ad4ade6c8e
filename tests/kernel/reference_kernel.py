"""The SystemC 2.0 evaluate/update/notify loop, kept as the kernel's oracle.

:class:`repro.kernel.Simulator` runs the models' one shape — a single
two-phase clock triggering static-sensitivity method processes — as a
compiled two-edge cycle loop.  This module keeps the general
three-phase scheduler that loop replaced, for tests to hold it
against:

1. **evaluate** — run every runnable process once,
2. **update**   — commit the clock level written in the evaluate phase,
3. **delta notification** — journal the notified events and make
   their waiters runnable; if any, repeat from 1 without advancing
   time, otherwise advance to the earliest timed notification (the
   clock driver's tick) and journal it.

Watchdogs are polled after every time advance; a trip leaves the
clock driver runnable, so a later :meth:`Simulator.run` resumes there.

Its :class:`Simulator` and :class:`Clock` stand in for the real ones:
models register their :class:`repro.kernel.Process` objects with it,
and their edge and notification events are this module's
:class:`Event`.  :func:`building_with` points a model module's
``Simulator``/``Clock`` names here, for models that build their own
(:class:`~repro.soc.SmartCardPlatform`).  The oracle never
fast-forwards: its ``steady_cycles`` is always 0.
"""

import collections
import contextlib
import heapq
import itertools

from repro.kernel import Process
from repro.kernel.supervision import DeadlockError, JournalEntry


class Event:
    """An event with static waiters, delta and timed notification."""

    def __init__(self, simulator, name="event"):
        self.name = name
        self._simulator = simulator
        self._static_waiters = []

    def add_static_sensitivity(self, process):
        if process not in self._static_waiters:
            self._static_waiters.append(process)

    def notify_delta(self):
        self._simulator._notify_delta(self)

    def notify_delayed(self, delay):
        self._simulator._schedule(self, self._simulator.now + delay)


class Simulator:
    """The generic three-phase scheduler (see the module docstring)."""

    def __init__(self, name="sim", journal_capacity=32):
        self.name = name
        self.now = 0
        self.delta_count = 0
        self.steady_cycles = 0
        self.power_off_reason = None
        self._processes = []
        self._runnable = []
        self._update_requests = []
        self._delta_events = []
        self._timed_queue = []  # [when, seq, event]
        self._seq = itertools.count()
        self._stop_requested = False
        self._started = False
        self._powered_off = False
        self._power_off_hooks = []
        self._journal = collections.deque(maxlen=journal_capacity)
        self._waiter_hooks = []
        self._watchdogs = []

    # -- registration and notification ---------------------------------

    def _register_process(self, process):
        self._processes.append(process)

    def _make_runnable(self, process):
        if process not in self._runnable:
            self._runnable.append(process)

    def _notify_delta(self, event):
        if event not in self._delta_events:
            self._delta_events.append(event)

    def _schedule(self, event, when):
        heapq.heappush(self._timed_queue, [when, next(self._seq), event])

    def _request_update(self, channel):
        self._update_requests.append(channel)

    def event(self, name="event"):
        return Event(self, name)

    # -- control ---------------------------------------------------------

    def stop(self):
        self._stop_requested = True

    @property
    def powered_off(self):
        return self._powered_off

    def add_power_off_hook(self, hook):
        self._power_off_hooks.append(hook)

    def power_off(self, reason="power loss"):
        if self._powered_off:
            return
        self.power_off_reason = reason
        self._powered_off = True
        self._stop_requested = True
        for hook in list(self._power_off_hooks):
            hook(reason)

    # -- the three-phase loop --------------------------------------------

    def _drain_delta_events(self):
        events, self._delta_events = self._delta_events, []
        for event in events:
            self._journal.append((self.now, self.delta_count, "delta",
                                  event.name))
            for process in event._static_waiters:
                self._make_runnable(process)

    def _run_delta(self):
        """Run one delta cycle.  Returns True if any process ran."""
        if not self._runnable:
            self._drain_delta_events()
            if not self._runnable:
                return False
        self.delta_count += 1
        runnable, self._runnable = self._runnable, []
        for process in runnable:  # evaluate
            process.run_count += 1
            process.func()
        updates, self._update_requests = self._update_requests, []
        for channel in updates:  # update
            channel._update()
        self._drain_delta_events()  # delta notification
        return True

    def _advance_time(self):
        queue = self._timed_queue
        when = queue[0][0]
        self.now = when
        while queue and queue[0][0] == when:
            event = heapq.heappop(queue)[2]
            self._journal.append((when, self.delta_count, "timed",
                                  event.name))
            for process in event._static_waiters:
                self._make_runnable(process)

    def run(self, duration=None):
        start = self.now
        if self._powered_off:
            return 0
        deadline = None if duration is None else start + duration
        if not self._started:
            self._started = True
            for process in self._processes:
                if not process.dont_initialize:
                    self._make_runnable(process)
        self._stop_requested = False
        while True:
            while self._run_delta():
                if self._stop_requested:
                    return self.now - start
            if self._stop_requested:
                return self.now - start
            if not self._timed_queue:
                self._check_deadlock()
                return self.now - start
            if deadline is not None and self._timed_queue[0][0] > deadline:
                self.now = deadline
                return self.now - start
            self._advance_time()
            for watchdog in self._watchdogs:
                watchdog.check(self)

    # -- supervision -------------------------------------------------------

    def add_waiter_hook(self, hook):
        self._waiter_hooks.append(hook)

    def attach_watchdog(self, watchdog):
        watchdog.reset(self)
        self._watchdogs.append(watchdog)

    def detach_watchdog(self, watchdog):
        if watchdog in self._watchdogs:
            self._watchdogs.remove(watchdog)

    def blocked_waiters(self):
        return [waiter for hook in self._waiter_hooks for waiter in hook()]

    def journal_entries(self):
        return tuple(JournalEntry(*entry) for entry in self._journal)

    def diagnose(self, message, *, kind="deadlock", exc_class=None):
        return (exc_class or DeadlockError)(
            message, kind=kind, now=self.now, delta_count=self.delta_count,
            blocked=self.blocked_waiters(), journal=self.journal_entries())

    def _check_deadlock(self):
        blocked = self.blocked_waiters()
        if blocked:
            raise self.diagnose(
                f"deadlock in {self.name!r}: no runnable process and no "
                f"pending event, but {len(blocked)} waiter(s) remain",
                kind="deadlock")


class Clock:
    """A two-phase clock: a driver process re-arming a timed tick and
    writing its level through the update phase."""

    def __init__(self, simulator, name, period, start_high=True):
        if period <= 0 or period % 2:
            raise ValueError(
                f"clock period must be positive and even, got {period}")
        self.simulator = simulator
        self.name = name
        self.period = period
        self.half_period = period // 2
        self.start_high = start_high
        self._level = self._next = start_high
        self._cycles = 0
        self._posedge_event = None
        self._negedge_event = None
        self._tick_event = Event(simulator, f"{name}.tick")
        self._process = Process(simulator, self._toggle, f"{name}.driver")
        self._process.sensitive(self._tick_event)

    def _toggle(self):
        # the elaboration run only arms the first tick
        if self._process.run_count > 1:
            self._next = not self._level
            self.simulator._request_update(self)
            if self._next:
                self._cycles += 1
        self._tick_event.notify_delayed(self.half_period)

    def _update(self):
        if self._next != self._level:
            self._level = self._next
            edge = (self._posedge_event if self._level
                    else self._negedge_event)
            if edge is not None:
                edge.notify_delta()

    @property
    def posedge_event(self):
        if self._posedge_event is None:
            self._posedge_event = Event(self.simulator,
                                        f"{self.name}.sig.posedge")
        return self._posedge_event

    @property
    def negedge_event(self):
        if self._negedge_event is None:
            self._negedge_event = Event(self.simulator,
                                        f"{self.name}.sig.negedge")
        return self._negedge_event

    @property
    def cycles(self):
        return self._cycles

    def read(self):
        return self._level


@contextlib.contextmanager
def building_with(module):
    """Inside the block, *module* (which imported ``Simulator`` and
    ``Clock`` from :mod:`repro.kernel`) builds on the oracle."""
    saved = module.Simulator, module.Clock
    module.Simulator, module.Clock = Simulator, Clock
    try:
        yield
    finally:
        module.Simulator, module.Clock = saved
