"""The simulation kernel: one clock, two compiled edge plans.

Every model here has the shape of the paper's (§3.1): a single
free-running :class:`~repro.kernel.Clock` whose rising edge triggers
the masters and slaves and whose falling edge triggers the bus
process, all static-sensitivity ``SC_METHOD`` processes.  So the
kernel is a cycle loop, not a general discrete-event scheduler.  It
compiles, per edge, the ordered list of processes that edge triggers
— again only after a process, a sensitivity or an edge event is
registered — and then advances time edge by edge, arithmetically,
with no event queue.

The loop keeps the observable bookkeeping of the SystemC 2.0
evaluate/update/notify loop it replaced (kept as the test oracle,
``tests/kernel/reference_kernel.py``): simulated time,
``delta_count`` (a delta for the clock driver's toggle, then one for
the edge's processes when it has any), every process's ``run_count``
and the notification journal — per edge the ``"timed"`` tick, the
``"delta"`` edge event, then the notification events
(:meth:`~repro.kernel.Event.notify_delta`) its processes posted.

Supervision: attached :class:`~repro.kernel.ProgressWatchdog`
instances are polled at every edge, after its tick is journaled and
before its first delta; after a trip, the next :meth:`Simulator.run`
resumes that edge there.  :meth:`Simulator.stop` and
:meth:`Simulator.power_off` end a run after the edge that asked.

Steady cycles: when every process on both edge plans registered a
``steady`` span step (:class:`~repro.kernel.Process`) and no watchdog
is attached, the kernel *arms* those processes, and each activation
pushes a hint: how many of the process's following activations would
only repeat steady bookkeeping (0 after real work another process can
see).  Before a rising edge, once a full cycle has run in this call
(and since the last notification event), the kernel reads the hints;
when the smallest, *n*, is at least 1 it *fast-forwards*: it calls
each process's span step once, in plan order, to advance that process
*n* cycles, and applies the per-edge bookkeeping in one batch, exactly
as if every edge had run.  Because real work pushes 0, a fast-forward
only starts after a cycle without it, so no hint can have been
computed before another process changed the state it reads.  A span
step that another step reads across (the power domain sampling the
energy ledgers) reads :attr:`Simulator.steady_spans`, already counting
this fast-forward, to tell the steps that ran before it in this one.
"""

from __future__ import annotations

import collections
import typing

from .event import Event

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .clock import Clock
    from .module import Process
    from .supervision import (BlockedWaiter, DeadlockError,
                              ProgressWatchdog)


class SimulationError(RuntimeError):
    """Raised for kernel misuse (e.g. a second clock on one simulator)."""


#: most cycles one fast-forward runs when no deadline bounds it
STEADY_SPAN_CAP = 1 << 20


class _SteadyPlan:
    """What a fast-forward needs of the two edge plans, compiled once."""

    __slots__ = ("procs", "steps", "journal", "period", "deltas", "tail")

    def __init__(self, rise: tuple, fall: tuple, tick_name: str,
                 half: int, capacity: typing.Optional[int]) -> None:
        #: every process of both plans, rising edge first
        self.procs = rise[1] + fall[1]
        #: their span steps, in the same order
        self.steps = tuple(process.steady for process in self.procs)
        # one cycle's journal entries as (time, delta) offsets from the
        # rising edge: each edge journals its tick, runs the driver's
        # delta, journals its event, then runs its processes' delta
        journal = []
        delta = 0
        for offset, (name, procs) in ((0, rise), (half, fall)):
            journal.append((offset, delta, "timed", tick_name))
            delta += 1
            if name is not None:
                journal.append((offset, delta, "delta", name))
            if procs:
                delta += 1
        self.journal = tuple(journal)
        self.period = 2 * half
        #: delta cycles per clock cycle
        self.deltas = delta
        #: the entries of the last cycles that fill a journal ring of
        #: *capacity* (None: unbounded, see :meth:`entries`)
        self.tail = (None if capacity is None else
                     self.entries(-(-capacity // len(journal))))

    def entries(self, cycles: int) -> tuple:
        """The journal entries of a fast-forward's last *cycles* cycles,
        with time and delta as offsets from the rising edge and delta
        count that follow it."""
        period, deltas = self.period, self.deltas
        return tuple((time - back * period, delta - back * deltas, kind,
                      name)
                     for back in range(cycles, 0, -1)
                     for time, delta, kind, name in self.journal)


class Simulator:
    """The simulation kernel: owns time, the clock and the processes."""

    def __init__(self, name: str = "sim",
                 journal_capacity: typing.Optional[int] = 32) -> None:
        self.name = name
        self.now: int = 0
        self.delta_count: int = 0
        self._processes: list["Process"] = []
        self._clock: typing.Optional["Clock"] = None
        #: (rising, falling) edge plans, each (journaled event name or
        #: None, processes in trigger order); None: recompile
        self._plans: typing.Optional[tuple] = None
        #: the fast-forward plan, when every process of both plans has
        #: a steady step (None otherwise: the plans never fast-forward)
        self._steady: typing.Optional[_SteadyPlan] = None
        #: the plan whose processes are armed to push hints
        self._armed: typing.Optional[_SteadyPlan] = None
        #: time of the clock's next edge (None until the clock is armed)
        self._next_edge: typing.Optional[int] = None
        #: something the cycle loop must act on after the current edge:
        #: a notification event, a stop request or a stale plan
        self._attention = False
        self._delta_events: list[Event] = []
        #: a watchdog tripped between an edge's tick and its deltas
        self._resume_edge = False
        self._steady_cycles = 0
        self._steady_spans = 0
        self._stop_requested = False
        self._started = False
        self._powered_off = False
        self.power_off_reason: typing.Optional[str] = None
        self._power_off_hooks: typing.List[
            typing.Callable[[str], None]] = []
        # ring buffer of the most recent event notifications — the
        # "flight recorder" DeadlockError diagnostics embed.  Raw
        # (time, delta, kind, event-name) tuples: this append sits on
        # the cycle loop's hot path, so the pretty JournalEntry
        # objects are only built in journal_entries()
        self._journal: typing.Deque[tuple] = collections.deque(
            maxlen=journal_capacity)
        self._waiter_hooks: list[typing.Callable[
            [], typing.Iterable["BlockedWaiter"]]] = []
        self._watchdogs: list["ProgressWatchdog"] = []

    # -- registration (used by Event/Process/Clock constructors) ---------

    def _register_process(self, process: "Process") -> None:
        self._processes.append(process)
        self._invalidate_plans()

    def _register_clock(self, clock: "Clock") -> None:
        if self._clock is not None:
            raise SimulationError(
                f"simulator {self.name!r} already runs clock "
                f"{self._clock.name!r}: the kernel runs one clock")
        if self._started:
            raise SimulationError(
                f"clock {clock.name!r} created after simulator "
                f"{self.name!r} started")
        self._clock = clock

    def _invalidate_plans(self) -> None:
        self._plans = None
        self._attention = True

    def _notify_delta(self, event: Event) -> None:
        if event._static_waiters:
            raise SimulationError(
                f"{event.name!r} is a clock edge: only the clock "
                f"notifies it")
        if event not in self._delta_events:
            self._delta_events.append(event)
            self._attention = True

    def _drain_delta_events(self) -> None:
        """Journal the notification events posted in this delta."""
        events, self._delta_events = self._delta_events, []
        now, delta = self.now, self.delta_count
        self._journal.extend((now, delta, "delta", event.name)
                             for event in events)

    # -- control ---------------------------------------------------------

    def stop(self) -> None:
        """Request the simulation stop at the end of the current edge."""
        self._stop_requested = True
        self._attention = True

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
        advance time — the kernel is already latched off when it runs.
        """
        self._power_off_hooks.append(hook)

    def power_off(self, reason: str = "power loss") -> None:
        """Cooperative whole-card power loss.

        Stops the simulation like :meth:`stop`, but latches: any later
        :meth:`run` returns immediately without consuming time.  Models
        a contactless card leaving the reader field — the run ends
        after the current edge, and only state the testbench explicitly
        carries over (e.g. the EEPROM image) survives into the next
        simulator.  Registered power-off hooks run exactly once, on
        the first call (see :meth:`add_power_off_hook`).
        """
        if self._powered_off:
            return
        self.power_off_reason = reason
        self._powered_off = True
        self.stop()
        for hook in list(self._power_off_hooks):
            hook(reason)

    def run(self, duration: typing.Optional[int] = None) -> int:
        """Run the simulation.

        With *duration* (kernel time units) the kernel returns once
        the clock's next edge would fall after ``start + duration``,
        with ``now`` at that deadline; without it, runs until
        :meth:`stop` is called.  Returns the simulated time consumed.
        The first call runs the elaboration delta: every process not
        created with ``dont_initialize`` runs once, and the clock arms
        its first edge.

        Without a clock there is nothing to advance time: the run
        returns at once, raising :class:`~repro.kernel.DeadlockError`
        if blocked waiters (anything a waiter hook reports) remain.
        Attached :class:`~repro.kernel.ProgressWatchdog` instances are
        polled at every clock edge and raise
        :class:`~repro.kernel.StallError` when their budgets expire.
        """
        start = self.now
        if self._powered_off:
            return 0
        self._stop_requested = False
        if not self._started:
            self._initialize()
        if self._delta_events:
            self._drain_delta_events()
        if not self._stop_requested:
            if self._next_edge is None:
                self._check_deadlock()
            else:
                self._run_edges(None if duration is None
                                else start + duration)
        return self.now - start

    def _initialize(self) -> None:
        """The elaboration delta: run every process once, as SystemC
        does (processes created with ``dont_initialize`` are skipped)."""
        self._started = True
        initial = [process for process in self._processes
                   if not process.dont_initialize]
        if initial:
            self.delta_count += 1
            for process in initial:
                process.run_count += 1
                process.func()

    def _prepare(self) -> tuple:
        """(Re)compile stale edge plans and arm the steady processes;
        returns the rising plan, the falling plan and the processes
        whose hints a fast-forward reads (None: no fast-forward)."""
        self._attention = False
        clock = self._clock
        if self._plans is None:
            rise, fall = self._plans = tuple(
                (None, ()) if event is None
                else (event.name, tuple(event._static_waiters))
                for event in (clock._posedge_event, clock._negedge_event))
            self._steady = (
                _SteadyPlan(rise, fall, clock._tick_name,
                            clock.half_period, self._journal.maxlen)
                if all(process.steady is not None
                       for process in rise[1] + fall[1]) else None)
        # hints cost their models work: ask for them only while a
        # fast-forward could use them
        armed = None if self._watchdogs else self._steady
        if armed is not self._armed:
            for plan, flag in ((self._armed, False), (armed, True)):
                if plan is not None:
                    for process in plan.procs:
                        process.steady_armed = flag
            self._armed = armed
        rise, fall = self._plans
        return rise, fall, None if armed is None else armed.procs

    # -- the cycle loop --------------------------------------------------

    def _run_edges(self, deadline: typing.Optional[int]) -> None:
        clock = self._clock
        half = clock.half_period
        append = self._journal.append
        tick_name = clock._tick_name
        driver = clock._process
        watchdogs = self._watchdogs
        rise, fall, steady = self._prepare()
        when = self._next_edge
        level = clock.read()
        delta = self.delta_count
        # hints pushed before this call may predate outside changes
        # (a bench poking a model between runs): only trust them after
        # one full cycle has run here
        primed = False
        # the process whose 0 hint stopped the last attempt: while it
        # still says 0, no other hint needs reading
        blocker = None
        resume = self._resume_edge
        try:
            while True:
                if resume:
                    # the tick is journaled and polled: go on with its
                    # deltas
                    resume = self._resume_edge = False
                else:
                    if deadline is not None and when > deadline:
                        self.now = deadline
                        return
                    if steady is not None and not level:
                        # a rising edge comes next: fast-forward the
                        # cycles every process's hint says are steady
                        if not primed:
                            primed = True
                        elif (blocker is None or blocker.steady_until
                                > blocker.run_count):
                            blocker = None
                            cycles = STEADY_SPAN_CAP
                            for process in steady:
                                left = (process.steady_until
                                        - process.run_count)
                                if left < cycles:
                                    if left < 1:
                                        blocker = process
                                        break
                                    cycles = left
                            if blocker is None:
                                if deadline is not None:
                                    cycles = min(cycles, ((deadline - when)
                                                          // half + 1) // 2)
                                if cycles > 0:
                                    when = self._fast_forward(cycles, when)
                                    delta = self.delta_count
                                    continue
                    self.now = when
                    append((when, delta, "timed", tick_name))
                    if watchdogs:
                        try:
                            for watchdog in watchdogs:
                                watchdog.check(self)
                        except BaseException:
                            self._resume_edge = True
                            raise
                edge = when
                when += half
                # delta cycle 1: the clock driver toggles
                delta += 1
                driver.run_count += 1
                level = not level
                if level:
                    clock._cycles += 1
                    name, procs = rise
                else:
                    name, procs = fall
                if name is not None:
                    append((edge, delta, "delta", name))
                if procs:
                    # delta cycle 2: the edge-triggered processes
                    delta += 1
                    self.delta_count = delta
                    for process in procs:
                        process.run_count += 1
                        process.func()
                else:
                    self.delta_count = delta
                if self._attention:
                    self._attention = False
                    if self._delta_events:
                        self._drain_delta_events()
                        primed = False
                        blocker = None
                    if self._stop_requested:
                        return
                    if self._plans is None:
                        rise, fall, steady = self._prepare()
                        primed = False
                        blocker = None
        finally:
            # the edge to run next (the tripped one after a watchdog
            # raise: its tick is journaled, its deltas are not)
            self._next_edge = when

    def _fast_forward(self, cycles: int, start: int) -> int:
        """Run *cycles* steady cycles from the rising edge at *start*;
        returns the time of the rising edge after them."""
        plan = self._steady
        self._steady_spans += 1
        for step in plan.steps:
            step(cycles)
        # per-edge kernel bookkeeping, in one batch
        end = start + plan.period * cycles  # the next rising edge
        delta = self.delta_count + cycles * plan.deltas
        # only the journal ring's last entries survive: replay just the
        # cycles that fill it
        entries = plan.tail
        if entries is None:
            entries = plan.entries(cycles)
        elif cycles * len(plan.journal) < len(entries):
            entries = entries[-cycles * len(plan.journal):]
        self._journal.extend([(end + time, delta + base, kind, name)
                              for time, base, kind, name in entries])
        self.delta_count = delta
        self.now = end - plan.period // 2
        for process in plan.procs:
            process.run_count += cycles
        clock = self._clock
        clock._process.run_count += 2 * cycles
        clock._cycles += cycles
        self._steady_cycles += cycles
        return end

    @property
    def steady_cycles(self) -> int:
        """Clock cycles advanced through steady steps (see the module
        docstring) instead of full activations."""
        return self._steady_cycles

    @property
    def steady_spans(self) -> int:
        """Fast-forwards run: each called every process's span step
        once (see the module docstring).  A span step reads this count
        as the number of the fast-forward it runs in."""
        return self._steady_spans

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
        """Everything the waiter hooks report as currently waiting."""
        blocked = []
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

    # -- conveniences -----------------------------------------------------

    def event(self, name: str = "event") -> Event:
        """Create a notification :class:`Event` bound to this kernel."""
        return Event(self, name)

    def __repr__(self) -> str:
        return (f"Simulator({self.name!r}, now={self.now}, "
                f"processes={len(self._processes)})")
