"""Discrete-event simulation kernel (SystemC 2.0 subset).

This package substitutes for the SystemC 2.0 kernel the paper's models
were implemented on: evaluate/update delta cycles, ``sc_signal``
semantics, ``SC_METHOD`` processes with static and dynamic sensitivity,
and a two-phase clock.
"""

from .event import Event
from .module import STEADY_FOREVER, Module, Process
from .signal import BitSignal, Clock, Signal
from .simulator import SimulationError, Simulator
from .supervision import (BlockedWaiter, DeadlockError, JournalEntry,
                          ProgressWatchdog, StallError)
from .thread import ThreadProcess, wait_cycles
from . import time

__all__ = [
    "BitSignal",
    "BlockedWaiter",
    "Clock",
    "DeadlockError",
    "Event",
    "JournalEntry",
    "Module",
    "Process",
    "ProgressWatchdog",
    "STEADY_FOREVER",
    "Signal",
    "SimulationError",
    "Simulator",
    "StallError",
    "ThreadProcess",
    "time",
    "wait_cycles",
]
