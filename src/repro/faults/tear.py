"""Whole-card tearing: the card leaves the reader field mid-operation.

PR 1 modelled tearing as a per-write EEPROM artefact (some byte lanes
commit, the write errors).  Real card tears are harsher: the *entire*
card loses power at an arbitrary cycle — every in-flight bus phase,
every RAM word and every CPU register is gone, and only the
non-volatile memories survive.  :class:`TearInjector` models exactly
that with the kernel's cooperative power-loss stop
(:meth:`~repro.kernel.Simulator.power_off`): at a seeded trigger cycle
the simulator halts cleanly and latches off, and the testbench carries
the stored EEPROM words into a fresh platform
(:meth:`~repro.soc.SmartCardPlatform.cold_boot`) to study recovery.

:func:`tear_schedule` derives the seeded grids the ``tear_campaign``
sweeps — same seed, same tear points, bit for bit.
"""

from __future__ import annotations

import random
import typing

from repro.kernel import Clock, Module, Simulator


class TearInjector:
    """Kills the whole card at a trigger cycle.

    Parameters
    ----------
    simulator / clock:
        The kernel to halt and the clock edge the check rides on.
    cycle_source:
        Callable returning the current bus cycle (``lambda:
        bus.cycle``) — the counter the trigger compares against.
    at_cycle:
        Tear when the cycle counter reaches this value.
    """

    def __init__(self, simulator: Simulator, clock: Clock,
                 cycle_source: typing.Callable[[], int],
                 at_cycle: int, name: str = "tear") -> None:
        if at_cycle < 0:
            raise ValueError(f"at_cycle must be >= 0, got {at_cycle}")
        self.simulator = simulator
        self.cycle_source = cycle_source
        self.at_cycle = at_cycle
        self.torn = False
        self.tear_cycle: typing.Optional[int] = None
        self._module = Module(simulator, name)
        self._module.method(self._check, name="check",
                            sensitive=[clock.posedge_event],
                            dont_initialize=True)

    def _check(self) -> None:
        if self.torn or self.simulator.powered_off:
            return
        cycle = self.cycle_source()
        if cycle >= self.at_cycle:
            self.torn = True
            self.tear_cycle = cycle
            self.simulator.power_off(f"card torn at cycle {cycle}")


def tear_schedule(seed: typing.Union[int, str], count: int,
                  max_cycle: int, min_cycle: int = 1
                  ) -> typing.Tuple[int, ...]:
    """A seeded grid of *count* tear points in [min_cycle, max_cycle].

    Uniform draws from an independent stream (``f"{seed}/tear-grid"``),
    sorted for readable sweep output; duplicates are allowed — two
    tears at the same cycle are two (identical) experiments, keeping
    the grid size exact.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if max_cycle < min_cycle:
        raise ValueError(
            f"empty tear window: [{min_cycle}, {max_cycle}]")
    rng = random.Random(f"{seed}/tear-grid")
    return tuple(sorted(rng.randint(min_cycle, max_cycle)
                        for _ in range(count)))
