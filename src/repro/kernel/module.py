"""Modules and method processes.

The paper implements its bus processes as ``SC_METHOD`` processes —
functions executed to completion each time an event in their sensitivity
list fires (for the bus: the falling edge of the system clock, §3.1).
:class:`Process` models exactly that, with static sensitivity to the
clock's edges.

A process may also opt in to the kernel's steady-cycle protocol (see
:mod:`repro.kernel.simulator`): it registers a ``steady`` span step,
``steady(k)``, that advances the process *k* steady cycles at once,
and while the kernel has it *armed* every activation pushes a hint
into :attr:`Process.steady_until` — how many of its following
activations would be steady.
"""

from __future__ import annotations

import typing

from .event import Event
from .simulator import Simulator

#: hint for "steady until something else changes": far beyond any run
STEADY_FOREVER = 1 << 62


class Process:
    """An SC_METHOD-style process: runs to completion on each trigger."""

    __slots__ = ("name", "func", "simulator", "dont_initialize",
                 "run_count", "steady", "steady_until", "steady_armed")

    def __init__(self, simulator: Simulator, func: typing.Callable[[], None],
                 name: str, dont_initialize: bool = False,
                 steady: typing.Optional[typing.Callable[[int], None]] = None
                 ) -> None:
        self.name = name
        self.func = func
        #: span step: ``steady(k)`` makes exactly the updates ``func``
        #: makes in *k* steady activations in a row — integer state in
        #: closed form, every float accumulator one addition per cycle
        #: (None: the process has no such state)
        self.steady = steady
        #: the hint: ``run_count`` of the last activation known to be
        #: steady (``run_count + n`` after an activation whose next *n*
        #: are steady; at most ``run_count`` after real work another
        #: process can see)
        self.steady_until = 0
        #: set by the kernel while it may fast-forward this process:
        #: only then need ``func`` push hints
        self.steady_armed = False
        self.simulator = simulator
        self.dont_initialize = dont_initialize
        self.run_count = 0
        simulator._register_process(self)

    def sensitive(self, *events: Event) -> "Process":
        """Append clock-edge *events* to the static sensitivity list."""
        for event in events:
            event.add_static_sensitivity(self)
        return self

    def __repr__(self) -> str:
        return f"Process({self.name!r}, runs={self.run_count})"


class Module:
    """Base class for hardware modules.

    A module owns its processes; subclasses register method processes
    with :meth:`method` in their constructor, exactly as an
    ``SC_MODULE`` does with ``SC_METHOD`` + ``sensitive``.
    """

    def __init__(self, simulator: Simulator, name: str) -> None:
        self.simulator = simulator
        self.name = name
        self._module_processes: list[Process] = []

    def method(self, func: typing.Callable[[], None], *,
               name: typing.Optional[str] = None,
               sensitive: typing.Sequence[Event] = (),
               dont_initialize: bool = False,
               steady: typing.Optional[typing.Callable[[int], None]] = None
               ) -> Process:
        """Register *func* as an SC_METHOD-style process of this module
        (*steady*: its span step, see :class:`Process`)."""
        process_name = f"{self.name}.{name or func.__name__}"
        process = Process(self.simulator, func, process_name,
                          dont_initialize=dont_initialize, steady=steady)
        process.sensitive(*sensitive)
        self._module_processes.append(process)
        return process

    @property
    def processes(self) -> tuple[Process, ...]:
        """The processes registered by this module, in creation order."""
        return tuple(self._module_processes)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"
