"""Fixtures for the fault-injection and recovery tests: one small
platform (RAM behind a FaultySlave) buildable on any of the three bus
models, plus deterministic injectors for scripting exact fault
patterns."""

import pytest

from repro.ec import MemoryMap, WaitStates
from repro.faults import FaultInjector, FaultKind, FaultAction
from repro.kernel import Clock, Simulator
from repro.faults import FaultySlave
from repro.rtl import RtlBus
from repro.tlm import EcBusLayer1, EcBusLayer2, MemorySlave

CLOCK_PERIOD = 100

RAM_BASE = 0x0001_0000

BUS_CLASSES = {"layer1": EcBusLayer1, "layer2": EcBusLayer2,
               "rtl": RtlBus}


class FaultPlatform:
    """Simulator + clock + one faulty RAM + one bus model."""

    def __init__(self, layer, injectors=(), ram_waits=WaitStates(),
                 power_model=None, inner=None):
        self.simulator = Simulator("fault_platform")
        self.clock = Clock(self.simulator, "clk", period=CLOCK_PERIOD)
        # *inner* replaces the RAM with another slave at RAM_BASE
        self.ram = inner or MemorySlave(RAM_BASE, 0x1000, ram_waits,
                                        name="ram")
        self.faulty = FaultySlave(self.ram, injectors)
        self.memory_map = MemoryMap()
        self.memory_map.add_slave(self.faulty, "ram")
        # RtlBus prices energy post-hoc and takes no power model
        kwargs = {} if power_model is None else {
            "power_model": power_model}
        self.bus = BUS_CLASSES[layer](self.simulator, self.clock,
                                      self.memory_map, **kwargs)
        self.faulty.bind_cycle_source(lambda: self.bus.cycle)


@pytest.fixture(params=list(BUS_CLASSES), ids=list(BUS_CLASSES))
def fault_layer(request):
    """The model layer name, parameterized over all three models."""
    return request.param


class FailFirstInjector(FaultInjector):
    """Errors the first *count* accesses, then stays clean — the
    canonical transient fault a retry recovers from."""

    kind = FaultKind.TRANSIENT_ERROR

    def __init__(self, count, offsets=None):
        self.remaining = count
        self.offsets = offsets  # None = any offset

    def pre_access(self, direction, offset, cycle):
        if self.offsets is not None and offset not in self.offsets:
            return None
        if self.remaining > 0:
            self.remaining -= 1
            return FaultAction.ERROR
        return None


class OffsetErrorInjector(FaultInjector):
    """Always errors accesses to the given offsets (mid-burst faults)."""

    kind = FaultKind.TRANSIENT_ERROR

    def __init__(self, offsets):
        self.offsets = frozenset(offsets)

    def pre_access(self, direction, offset, cycle):
        return FaultAction.ERROR if offset in self.offsets else None


class FrozenWindowInjector(FaultInjector):
    """A hung slave: *extra* wait states on every access until
    *until_cycle* — deterministic stand-in for StuckWaitInjector."""

    kind = FaultKind.STUCK_WAIT

    def __init__(self, until_cycle, extra=1000):
        self.until_cycle = until_cycle
        self.extra = extra

    def extra_wait_states(self, cycle):
        return self.extra if cycle < self.until_cycle else 0


class FakeRng:
    """Replays a scripted sequence of random() values, and of
    randrange() values (0 once *draws* runs out)."""

    def __init__(self, values, draws=()):
        self.values = list(values)
        self.draws = list(draws)

    def random(self):
        return self.values.pop(0) if self.values else 1.0

    def randrange(self, stop):
        draw = self.draws.pop(0) if self.draws else 0
        assert 0 <= draw < stop
        return draw
