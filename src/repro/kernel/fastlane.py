"""Precompiled cycle loop for the common clocked activity shape.

Most of this reproduction's simulation time is spent in one pattern:
a single free-running :class:`~repro.kernel.Clock` whose rising edge
triggers the masters/slaves and whose falling edge triggers the bus
process — all plain static-sensitivity ``SC_METHOD`` processes (§3.1).
The generic evaluate/update/notify machinery rediscovers that schedule
from scratch every half-period: heap-pop the tick, run the clock
driver, commit the toggle through the update phase, drain the edge
events, look up the same waiter lists.

:class:`FastLane` compiles the schedule once — per clock edge, the
events that will fire and the ordered, deduplicated process list they
trigger — and then runs a flat cycle loop that keeps every piece of
kernel bookkeeping (simulated time, ``delta_count``, process
``run_count``, signal transition counters, the notification journal,
the timed queue and its live-entry counter) exactly as the generic
loop would have left it.

Attached :class:`~repro.kernel.ProgressWatchdog` instances are polled
where the generic loop polls them: after each time advance (the tick
pop and its ``"timed"`` journal entry), before that instant's first
delta.  A check that raises leaves the clock driver runnable, so the
kernel state at the raise is the generic loop's.

Steady cycles: when every process on both edge plans registered a
``steady`` step (:class:`~repro.kernel.Process`) and no watchdog is
attached, the lane *arms* those processes, and each activation pushes
a hint: how many of the process's following activations would only
repeat its steady step (0 after real work another process can see).
Before a rising edge, once a full cycle has run in this call, the lane
reads the hints; when the smallest, *n*, is at least 1 it runs the
next *n* cycles as a tight loop of steady steps in plan order — every
float accumulator still sees the same additions in the same order —
and applies the kernel's per-edge bookkeeping (``now``,
``delta_count``, the tick entry and its sequence number,
``run_count``, the clock signal's counters, the journal ring) in one
batch, exactly as if every edge had run.  Because such real work pushes 0, a fast-forward only
starts after a cycle without it, so no hint can have been computed
before another process changed the state it reads.

Equivalence contract: the fast lane bails out to the generic path at
well-defined points — any immediate notification, signal write, delta
notification, timed notification, stop/power-off request, or
sensitivity change observed after a process slate runs — leaving the
kernel in a state from which :meth:`Simulator.run` resumes
bit-identically.  Eligibility is re-established (and the plans
recompiled if stale) on every attempt, so dynamic features such as
``next_trigger`` and thread processes simply force the generic path
while they are armed.
"""

from __future__ import annotations

import collections
import itertools
import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .signal import BitSignal, Clock
    from .simulator import Simulator

#: FastLane.run() verdicts consumed by Simulator.run()
INELIGIBLE = 0  #: activity is not the clocked shape; use the generic path
FELL_BACK = 1   #: ran zero or more cycles, left pending work for the
#:              generic loop to drain
FINISHED = 2    #: hit the deadline or a stop request; run() should return

#: most cycles one fast-forward runs when no deadline bounds it
STEADY_SPAN_CAP = 1 << 20


def _no_step() -> None:
    """Pads a steady cycle's unrolled step list."""


class _SteadyPlan:
    """What a fast-forward needs of the two edge plans, compiled once."""

    __slots__ = ("procs", "groups", "journal", "deltas")

    def __init__(self, pos: "_EdgePlan", neg: "_EdgePlan",
                 tick_name: str, half: int) -> None:
        #: every process of both plans, rising edge first
        self.procs = pos.procs + neg.procs
        # their steady steps in plan order, unrolled by eight (padded
        # with no-ops) to spare a loop iteration per step
        steps = [process.steady for process in self.procs]
        steps += [_no_step] * (-len(steps) % 8)
        self.groups = [steps[index:index + 8]
                       for index in range(0, len(steps), 8)]
        # one cycle's journal entries as (time, delta) offsets from the
        # rising edge: each edge journals its tick, runs the driver's
        # delta, journals its events, then runs its processes' delta
        journal = []
        delta = 0
        for offset, plan in ((0, pos), (half, neg)):
            journal.append((offset, delta, "timed", tick_name))
            delta += 1
            journal.extend((offset, delta, "delta", name)
                           for name in plan.names)
            if plan.procs:
                delta += 1
        self.journal = tuple(journal)
        #: delta cycles per clock cycle
        self.deltas = delta


class _EdgePlan:
    """Compiled delta-notification plan for one direction of the clock."""

    __slots__ = ("changed", "changed_version", "edge", "edge_version",
                 "names", "procs")

    def __init__(self, changed, edge, names, procs) -> None:
        self.changed = changed
        self.changed_version = (0 if changed is None
                                else changed._waiters_version)
        self.edge = edge
        self.edge_version = 0 if edge is None else edge._waiters_version
        self.names = names
        self.procs = procs


class FastLane:
    """Owns the compiled plans for one simulator's clock."""

    __slots__ = ("_simulator", "_clock", "_plans", "_tick_version",
                 "_steady", "_armed")

    def __init__(self, simulator: "Simulator") -> None:
        self._simulator = simulator
        self._clock: typing.Optional["Clock"] = None
        self._plans: typing.Optional[dict] = None
        self._tick_version = -1
        #: the fast-forward plan, when every process of both plans has
        #: a steady step (None otherwise: the plans never fast-forward)
        self._steady: typing.Optional[_SteadyPlan] = None
        #: the plan whose processes are armed to push hints
        self._armed: typing.Optional[_SteadyPlan] = None

    # -- eligibility and compilation -----------------------------------

    def _compile_edge(self, signal: "BitSignal",
                      level: bool) -> typing.Optional[_EdgePlan]:
        events = []
        if signal._changed_event is not None:
            events.append(signal._changed_event)
        edge_event = (signal._posedge_event if level
                      else signal._negedge_event)
        if edge_event is not None:
            events.append(edge_event)
        procs: list = []
        for event in events:
            if event._dynamic_waiters:
                return None
            for process in event._static_waiters:
                if process._dynamic_event is not None:
                    return None
                if process not in procs:
                    procs.append(process)
        names = tuple(event.name for event in events)
        return _EdgePlan(signal._changed_event, edge_event, names,
                         tuple(procs))

    def _plans_valid(self, signal: "BitSignal") -> bool:
        plans = self._plans
        if plans is None:
            return False
        for level in (True, False):
            plan = plans[level]
            edge_event = (signal._posedge_event if level
                          else signal._negedge_event)
            if (plan.changed is not signal._changed_event
                    or plan.edge is not edge_event):
                return False
            if (plan.changed is not None
                    and plan.changed._waiters_version
                    != plan.changed_version):
                return False
            if (plan.edge is not None
                    and plan.edge._waiters_version != plan.edge_version):
                return False
        return True

    def _prepare(self) -> typing.Optional["Clock"]:
        """Re-establish eligibility; (re)compile stale plans.

        Returns the clock when the simulator's remaining activity is
        the fast-lane shape, None otherwise.
        """
        sim = self._simulator
        clocks = sim._clocks
        if len(clocks) != 1:
            return None
        clock = clocks[0]
        queue = sim._timed_queue
        if len(queue) != 1:
            return None
        entry = queue[0]
        tick = clock._tick_event
        if entry[2] or entry[3] is not tick:
            return None
        for thread in sim._threads:
            if not thread.finished:
                return None
        driver = clock._process
        # run_count 0 means elaboration hasn't run the driver yet;
        # its first execution is the no-toggle arming special case
        if driver.run_count < 1 or driver._dynamic_event is not None:
            return None
        if (len(tick._static_waiters) != 1
                or tick._static_waiters[0] is not driver
                or tick._dynamic_waiters):
            return None
        signal = clock.signal
        if signal._update_pending:
            return None
        if (self._clock is not clock
                or self._tick_version != tick._waiters_version
                or not self._plans_valid(signal)):
            pos = self._compile_edge(signal, True)
            neg = self._compile_edge(signal, False)
            if pos is None or neg is None:
                self._plans = None
                return None
            self._clock = clock
            self._plans = {True: pos, False: neg}
            self._tick_version = tick._waiters_version
            self._steady = (
                _SteadyPlan(pos, neg, tick.name, clock.half_period)
                if all(process.steady is not None
                       for process in pos.procs + neg.procs) else None)
        # hints cost their models work: ask for them only while a
        # fast-forward could use them
        armed = None if sim._watchdogs else self._steady
        if armed is not self._armed:
            for plan, flag in ((self._armed, False), (armed, True)):
                if plan is not None:
                    for process in plan.procs:
                        process.steady_armed = flag
            self._armed = armed
        return clock

    # -- steady cycles --------------------------------------------------

    def _fast_forward(self, cycles: int, entry: list) -> list:
        """Run *cycles* steady cycles from the rising edge *entry*
        schedules; returns the tick entry left pending, as the cycle
        loop would have."""
        sim = self._simulator
        clock = self._clock
        plan = self._steady
        groups = plan.groups
        for _ in range(cycles):
            for s0, s1, s2, s3, s4, s5, s6, s7 in groups:
                s0()
                s1()
                s2()
                s3()
                s4()
                s5()
                s6()
                s7()
        # per-edge kernel bookkeeping, in one batch
        period = clock.period
        edges = 2 * cycles
        start = entry[0]
        end = start + period * cycles  # the next rising edge
        last = end - clock.half_period
        # only the journal ring's last entries survive: replay just the
        # cycles that fill it
        journal = sim._journal
        replay = cycles
        if journal.maxlen is not None:
            replay = min(cycles, -(-journal.maxlen // len(plan.journal)))
        first = cycles - replay
        delta = sim.delta_count
        journal.extend([
            (when + time_offset, base + delta_offset, kind, name)
            for when, base in zip(
                range(start + first * period, end, period),
                range(delta + first * plan.deltas,
                      delta + cycles * plan.deltas, plan.deltas))
            for time_offset, delta_offset, kind, name in plan.journal])
        sim.delta_count = delta + cycles * plan.deltas
        sim.now = last
        for process in plan.procs:
            process.run_count += cycles
        clock._process.run_count += edges
        signal = clock.signal
        signal.last_change_time = last
        signal.transition_count += edges
        clock._cycles += cycles
        seq = sim._seq
        collections.deque(itertools.islice(seq, edges - 1), maxlen=0)
        tick = clock._tick_event
        entry = [end, next(seq), False, tick]
        queue = sim._timed_queue
        queue[0] = entry
        tick._timed_handle = entry
        sim._steady_cycles += cycles
        return entry

    # -- the cycle loop -------------------------------------------------

    def run(self, deadline: typing.Optional[int]) -> int:
        clock = self._prepare()
        if clock is None:
            return INELIGIBLE
        sim = self._simulator
        queue = sim._timed_queue
        journal = sim._journal
        seq = sim._seq
        half = clock.half_period
        signal = clock.signal
        tick = clock._tick_event
        tick_name = tick.name
        tick_version = tick._waiters_version
        driver = clock._process
        watchdogs = sim._watchdogs
        plan_pos = self._plans[True]
        plan_neg = self._plans[False]
        steady = (self._steady.procs
                  if self._steady is not None and not watchdogs else None)
        # hints pushed before this call may predate outside changes
        # (a bench poking a model between runs): only trust them after
        # one full cycle has run here
        primed = False
        # the process whose 0 hint stopped the last attempt: while it
        # still says 0, no other hint needs reading
        blocker = None
        entry = queue[0]
        level = signal._current
        while True:
            when = entry[0]
            if deadline is not None and when > deadline:
                sim.now = deadline
                return FINISHED
            if steady is not None and not level:
                # a rising edge comes next: fast-forward the cycles
                # every process's hint says are steady
                if not primed:
                    primed = True
                elif (blocker is None
                        or blocker.steady_until > blocker.run_count):
                    blocker = None
                    cycles = STEADY_SPAN_CAP
                    for process in steady:
                        left = process.steady_until - process.run_count
                        if left < cycles:
                            if left < 1:
                                blocker = process
                                break
                            cycles = left
                    if blocker is None:
                        if deadline is not None:
                            cycles = min(cycles, ((deadline - when)
                                                  // half + 1) // 2)
                        if cycles > 0 and self._plans_valid(signal):
                            entry = self._fast_forward(cycles, entry)
                            continue
            # timed-notification phase: the tick is the only live entry
            queue.pop()
            sim._timed_live -= 1
            tick._timed_handle = None
            sim.now = when
            delta = sim.delta_count
            journal.append((when, delta, "timed", tick_name))
            if watchdogs:
                try:
                    sim._check_watchdogs()
                except BaseException:
                    # the generic loop's _advance_time has queued the
                    # driver by now
                    sim._make_runnable(driver)
                    raise
                # the generic loop counts the driver's delta below
                sim._deltas_since_check = 1
            # delta cycle 1: the clock driver toggles and re-arms itself
            delta += 1
            sim.delta_count = delta
            driver.run_count += 1
            entry = [when + half, next(seq), False, tick]
            queue.append(entry)  # heap of one: invariant holds trivially
            sim._timed_live += 1
            tick._timed_handle = entry
            level = not level
            # update phase: commit the toggle
            signal._current = level
            signal._next = level
            signal.last_change_time = when
            signal.transition_count += 1
            if level:
                clock._cycles += 1
                plan = plan_pos
                edge_event = signal._posedge_event
            else:
                plan = plan_neg
                edge_event = signal._negedge_event
            # staleness check before the delta-notification phase; on a
            # miss, post the notifications generically and bail out —
            # the generic loop drains them with identical accounting
            if (plan.changed is not signal._changed_event
                    or plan.edge is not edge_event
                    or (plan.changed is not None
                        and plan.changed._waiters_version
                        != plan.changed_version)
                    or (edge_event is not None
                        and edge_event._waiters_version
                        != plan.edge_version)):
                if signal._changed_event is not None:
                    signal._changed_event.notify_delta()
                stale_edge = (signal._posedge_event if level
                              else signal._negedge_event)
                if stale_edge is not None:
                    stale_edge.notify_delta()
                return FELL_BACK
            # delta-notification phase
            for name in plan.names:
                journal.append((when, delta, "delta", name))
            procs = plan.procs
            if procs:
                # delta cycle 2: the edge-triggered processes
                delta += 1
                sim.delta_count = delta
                for process in procs:
                    process.run_count += 1
                    process.func()
                if sim._runnable:
                    # immediate notifications extend the evaluate phase
                    while sim._runnable:
                        runnable, sim._runnable = sim._runnable, []
                        for process in runnable:
                            process._runnable_flag = False
                        for process in runnable:
                            process._execute()
                if sim._update_requests:
                    updates, sim._update_requests = (
                        sim._update_requests, [])
                    for written in updates:
                        written._update()
                if sim._delta_events:
                    sim._drain_delta_events()
                    if sim._stop_requested:
                        return FINISHED
                    if watchdogs:
                        sim._deltas_since_check = 2
                    return FELL_BACK
                if sim._stop_requested:
                    return FINISHED
                if watchdogs:
                    # ... and the edge delta, once it ran without a stop
                    sim._deltas_since_check = 2
                if (len(queue) != 1 or entry[2]
                        or tick._waiters_version != tick_version):
                    return FELL_BACK
