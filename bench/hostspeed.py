"""Host-speed references that end-to-end host times are scaled by.

The benchmark shares its machine.  Measured on a 2-CPU container, the
same job's wall time drifted by up to 40% within a minute as other
tenants loaded each CPU in turn (process time drifts with it, so it is
no remedy), and 20-second runs of one workload spread by 10-20%
between their quartiles.  A fixed pure-Python loop that no change to
the repository can touch is timed between consecutive jobs; each job's
time is scaled to a host on which the loop takes :data:`NOMINAL_S`.
On the same container that brought the quartile spread of ten runs to
1-6%.  Set-up is scaled by a second reference, which compiles and runs
a fixed standard-library module, because importing code tracks that
better than it tracks the loop.
"""

from __future__ import annotations

import gc
import importlib.util
import time
import typing

#: reference-loop time of the nominal host: the loop's time on the
#: 2-CPU container the benchmark was tuned on, with its CPU unloaded
NOMINAL_S = 0.0015
#: :func:`setup_reference_s` on the same nominal host
NOMINAL_SETUP_S = 0.026


class _Cell:
    __slots__ = ("value", "count")

    def __init__(self) -> None:
        self.value = 0
        self.count = 0

    def bump(self, step: int) -> int:
        self.value = (self.value + step) & 0xFFFF
        self.count += 1
        return self.value


def _loop(steps: int = 8_000) -> int:
    """Method calls, attribute updates and dict stores: the interpreter
    work simulation code is made of.  Adding small-object allocation
    tracked the benchmark's jobs less well, not better."""
    cells = [_Cell() for _ in range(16)]
    table = {}
    acc = 0
    for step in range(steps):
        acc ^= cells[step & 15].bump(step)
        table[step & 255] = acc
    return acc


def _paused_gc_seconds(work: typing.Callable[[], object]) -> float:
    """Seconds *work* takes with the cyclic collector paused: its
    allocations would otherwise trigger collections of the code under
    test's garbage, and the reference would time that code."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        work()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def reference_s() -> float:
    """Seconds one reference loop takes on this host right now."""
    return _paused_gc_seconds(_loop)


def setup_reference_s() -> float:
    """Seconds to compile and run the standard library's pure-Python
    decimal module on this host right now.

    Set-up is importing code: parsing, building code objects, classes
    and functions, and allocating.  On the shared host the loop above
    tracked fresh interpreters' set-up time poorly (per-interpreter
    spread 21% after scaling, 37% before); this tracked it to 13%.
    Call it once untimed first, so that the module's own imports are
    done."""
    origin = importlib.util.find_spec("_pydecimal").origin
    with open(origin, encoding="utf-8") as handle:
        source = handle.read()
    return _paused_gc_seconds(lambda: exec(
        compile(source, "<setup reference>", "exec"),
        {"__name__": "_setup_reference"}))


def scaled(seconds: float, before: float, after: float,
           nominal: float = NOMINAL_S) -> float:
    """*seconds* measured between reference timings *before* and
    *after*, converted to the nominal host on which the reference takes
    *nominal* seconds."""
    return seconds * nominal * 2.0 / (before + after)
