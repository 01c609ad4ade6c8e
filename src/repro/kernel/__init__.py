"""Clocked simulation kernel (the SystemC 2.0 subset the models use).

This package substitutes for the SystemC 2.0 kernel the paper's models
were implemented on: ``SC_METHOD`` processes statically sensitive to
the edges of one two-phase clock, run by a cycle loop that keeps the
SystemC delta-cycle bookkeeping (time, delta count, run counts and the
notification journal), plus progress supervision.
"""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "clock": ("Clock",),
    "event": ("Event",),
    "module": ("STEADY_FOREVER", "Module", "Process"),
    "simulator": ("SimulationError", "Simulator"),
    "supervision": ("BlockedWaiter", "DeadlockError", "JournalEntry",
                    "ProgressWatchdog", "StallError"),
    "time": ("time",),
})
