"""Discrete-event simulation kernel (SystemC 2.0 subset).

This package substitutes for the SystemC 2.0 kernel the paper's models
were implemented on: evaluate/update delta cycles, ``sc_signal``
semantics, ``SC_METHOD`` processes with static and dynamic sensitivity,
and a two-phase clock.
"""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "event": ("Event",),
    "module": ("STEADY_FOREVER", "Module", "Process"),
    "signal": ("BitSignal", "Clock", "Signal"),
    "simulator": ("SimulationError", "Simulator"),
    "supervision": ("BlockedWaiter", "DeadlockError", "JournalEntry",
                    "ProgressWatchdog", "StallError"),
    "thread": ("ThreadProcess", "wait_cycles"),
    "time": ("time",),
})
