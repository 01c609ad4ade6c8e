"""Kernel-level simulation supervision: deadlock and livelock diagnosis.

A simulation that stops making progress used to fail opaquely: a
caller's wall-clock guard fired a bare :class:`TimeoutError` with no
hint of *what* was stuck.  This module provides the structured
alternative:

* :class:`DeadlockError` — raised when nothing can advance time (no
  clock) but waiters remain; it names every blocked waiter, its wait condition,
  and carries the tail of the kernel's event journal (a ring buffer of
  the most recent notifications) so the last activity before the hang
  is visible in the exception itself.
* :class:`StallError` — the same diagnostic for *livelocks*: the
  kernel is still scheduling (e.g. a free-running clock keeps time
  advancing) but supervised progress has stopped.  It subclasses both
  :class:`DeadlockError` and :class:`TimeoutError`, so existing
  ``except TimeoutError`` guards keep working while gaining the full
  blocked-waiter context.
* :class:`ProgressWatchdog` — trips a :class:`StallError` when a
  progress fingerprint stops changing for a simulated-time budget or a
  wall-clock budget, whichever expires first.

Blocked waiters come from *waiter hooks* higher layers install on the
simulator — e.g. every scripted bus master reports itself, with its
script position and in-flight transactions, while it is not done.
"""

from __future__ import annotations

import dataclasses
import time as _time
import typing

from .simulator import SimulationError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .simulator import Simulator


@dataclasses.dataclass(frozen=True)
class JournalEntry:
    """One event notification recorded in the kernel's ring buffer."""

    time: int
    delta: int
    kind: str        # "immediate" | "delta" | "timed"
    event: str       # name of the notified event

    def __str__(self) -> str:
        return f"t={self.time} d{self.delta} {self.kind:<9} {self.event}"


@dataclasses.dataclass(frozen=True)
class BlockedWaiter:
    """One entity still waiting when the simulation stopped progressing."""

    name: str
    waiting_on: str
    detail: str = ""

    def __str__(self) -> str:
        text = f"{self.name}: waiting on {self.waiting_on}"
        if self.detail:
            text += f" ({self.detail})"
        return text


class DeadlockError(SimulationError):
    """No runnable process, but waiters remain.

    Attributes
    ----------
    kind:
        ``"deadlock"`` (nothing to run) or ``"stall"`` (watchdog trip).
    now / delta_count:
        Kernel time and delta count at detection.
    blocked:
        The :class:`BlockedWaiter` records gathered from the simulator.
    journal:
        The most recent :class:`JournalEntry` records (oldest first).
    """

    def __init__(self, message: str, *, kind: str = "deadlock",
                 now: int = 0, delta_count: int = 0,
                 blocked: typing.Sequence[BlockedWaiter] = (),
                 journal: typing.Sequence[JournalEntry] = ()) -> None:
        self.kind = kind
        self.now = now
        self.delta_count = delta_count
        self.blocked = tuple(blocked)
        self.journal = tuple(journal)
        super().__init__(self._format(message))

    def _format(self, message: str) -> str:
        lines = [message]
        if self.blocked:
            lines.append(f"blocked waiter(s) at t={self.now} "
                         f"(delta {self.delta_count}):")
            lines.extend(f"  - {waiter}" for waiter in self.blocked)
        else:
            lines.append(f"no blocked waiters recorded at t={self.now}")
        if self.journal:
            lines.append(f"last {len(self.journal)} event "
                         f"notification(s), oldest first:")
            lines.extend(f"  {entry}" for entry in self.journal)
        return "\n".join(lines)


class StallError(DeadlockError, TimeoutError):
    """A progress budget expired while the kernel was still scheduling.

    Subclasses :class:`TimeoutError` so the pre-supervision guards
    (``except TimeoutError``) continue to catch global hangs — they now
    receive the structured deadlock diagnostic instead of a bare
    timeout message.
    """

    def __init__(self, message: str, **kwargs) -> None:
        kwargs.setdefault("kind", "stall")
        super().__init__(message, **kwargs)


class ProgressWatchdog:
    """Trips when a progress fingerprint stops changing.

    Parameters
    ----------
    progress:
        Callable returning any equality-comparable fingerprint of
        forward progress (e.g. a tuple of completion counters).  With
        ``None`` the watchdog never observes progress, so the budgets
        measure from :meth:`reset` (attach time) — an absolute budget.
    stall_time:
        Simulated-time budget (kernel time units) without a fingerprint
        change before the watchdog trips.  ``None`` disables it.
    wall_seconds:
        Wall-clock budget without a fingerprint change.  ``None``
        disables it.  Both budgets may be armed; the first to expire
        trips.
    """

    def __init__(self, progress: typing.Optional[
            typing.Callable[[], typing.Any]] = None, *,
            stall_time: typing.Optional[int] = None,
            wall_seconds: typing.Optional[float] = None,
            name: str = "watchdog") -> None:
        if stall_time is not None and stall_time <= 0:
            raise ValueError(f"stall_time must be positive: {stall_time}")
        if wall_seconds is not None and wall_seconds <= 0:
            raise ValueError(
                f"wall_seconds must be positive: {wall_seconds}")
        self.progress = progress
        self.stall_time = stall_time
        self.wall_seconds = wall_seconds
        self.name = name
        self._fingerprint: typing.Any = None
        self._since_time = 0
        self._since_wall = _time.monotonic()
        self._primed = False

    def reset(self, simulator: "Simulator") -> None:
        """Restart both budgets (called when the watchdog is attached)."""
        self._fingerprint = (None if self.progress is None
                             else self.progress())
        self._since_time = simulator.now
        self._since_wall = _time.monotonic()
        self._primed = True

    def check(self, simulator: "Simulator") -> None:
        """Raise :class:`StallError` if a budget expired without progress."""
        if simulator.powered_off:
            # a powered-off card is halted, not stalled: power_off() is
            # a clean cooperative end of the run, and any budget that
            # expires afterwards measured a dead simulator
            return
        if not self._primed:
            self.reset(simulator)
            return
        if self.progress is not None:
            fingerprint = self.progress()
            if fingerprint != self._fingerprint:
                self._fingerprint = fingerprint
                self._since_time = simulator.now
                self._since_wall = _time.monotonic()
                return
        if (self.stall_time is not None
                and simulator.now - self._since_time > self.stall_time):
            raise simulator.diagnose(
                f"watchdog {self.name!r}: no progress for "
                f"{simulator.now - self._since_time} time units "
                f"(budget {self.stall_time})",
                kind="stall", exc_class=StallError)
        if (self.wall_seconds is not None
                and _time.monotonic() - self._since_wall
                > self.wall_seconds):
            raise simulator.diagnose(
                f"watchdog {self.name!r}: no progress for "
                f"{_time.monotonic() - self._since_wall:.1f}s of wall "
                f"clock (budget {self.wall_seconds}s)",
                kind="stall", exc_class=StallError)
