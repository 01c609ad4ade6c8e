"""Unit tests for the seeded fault injectors."""

import random

import pytest

from repro.ec import Direction, WaitStates
from repro.faults import (BitFlipInjector, ErrorSlave, FaultAction,
                          IntermittentErrorInjector, StuckWaitInjector,
                          TransientErrorInjector)

from .conftest import FakeRng


def decisions(injector, count=200):
    return [injector.pre_access(Direction.READ, 4 * i, i)
            for i in range(count)]


class TestTransientErrorInjector:
    def test_same_seed_same_decisions(self):
        first = TransientErrorInjector(0.3, random.Random("seed"))
        second = TransientErrorInjector(0.3, random.Random("seed"))
        assert decisions(first) == decisions(second)

    def test_rate_zero_never_fires_nor_draws(self):
        rng = random.Random(1)
        before = rng.getstate()
        assert decisions(TransientErrorInjector(0.0, rng)) == [None] * 200
        assert rng.getstate() == before

    def test_rate_one_always_fires(self):
        injector = TransientErrorInjector(1.0, random.Random(1))
        assert decisions(injector, 20) == [FaultAction.ERROR] * 20

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            TransientErrorInjector(1.5, random.Random(1))


class TestIntermittentErrorInjector:
    def test_burst_of_consecutive_errors(self):
        # one trigger (0.0 < rate), then clean draws
        rng = FakeRng([0.0, 0.9, 0.9, 0.9, 0.9])
        injector = IntermittentErrorInjector(0.5, rng, burst=3)
        got = decisions(injector, 6)
        assert got[:3] == [FaultAction.ERROR] * 3  # the burst
        assert got[3:] == [None] * 3

    def test_burst_validation(self):
        with pytest.raises(ValueError):
            IntermittentErrorInjector(0.1, random.Random(1), burst=0)


class TestBitFlipInjector:
    def test_flips_exactly_one_bit(self):
        injector = BitFlipInjector(1.0, random.Random("flip"))
        data = 0x12345678
        corrupted = injector.corrupt(Direction.READ, 0, data, 0)
        assert corrupted is not None and corrupted != data
        assert bin(corrupted ^ data).count("1") == 1

    def test_direction_filter(self):
        injector = BitFlipInjector(1.0, random.Random(1),
                                   directions=(Direction.READ,))
        assert injector.corrupt(Direction.WRITE, 0, 7, 0) is None
        assert injector.corrupt(Direction.READ, 0, 7, 0) is not None

    def test_same_seed_same_flips(self):
        flips = []
        for _ in range(2):
            injector = BitFlipInjector(0.5, random.Random("x"))
            flips.append([injector.corrupt(Direction.READ, 0, 0xFF, i)
                          for i in range(100)])
        assert flips[0] == flips[1]


class TestStuckWaitInjector:
    def test_window_opens_and_closes(self):
        injector = StuckWaitInjector(1.0, random.Random(1), duration=10,
                                     extra_waits=99)
        assert injector.extra_wait_states(0) == 0
        assert injector.pre_access(Direction.READ, 0, 5) is None
        assert injector.windows_opened == 1
        assert injector.extra_wait_states(6) == 99
        assert injector.extra_wait_states(14) == 99
        assert injector.extra_wait_states(15) == 0

    def test_windows_do_not_nest(self):
        injector = StuckWaitInjector(1.0, random.Random(1), duration=10)
        injector.pre_access(Direction.READ, 0, 0)
        injector.pre_access(Direction.READ, 0, 5)  # inside the window
        assert injector.windows_opened == 1


class TestErrorSlave:
    def test_always_errors(self):
        from repro.ec import BusState
        slave = ErrorSlave(0x0)
        assert slave.do_read(0, 0b1111).state is BusState.ERROR
        assert slave.do_write(0, 0b1111, 1).state is BusState.ERROR

    def test_configurable_wait_states(self):
        slave = ErrorSlave(0x0, wait_states=WaitStates(address=2, read=5))
        assert slave.wait_states.address == 2
        assert slave.wait_states.read == 5

    def test_deprecated_tlm_aliases_removed(self):
        # the PR-2 DeprecationWarning shims are gone: the only home of
        # ErrorSlave is repro.faults
        with pytest.raises(ImportError):
            from repro.tlm import ErrorSlave  # noqa: F401
        with pytest.raises(ImportError):
            from repro.tlm.slave import ErrorSlave  # noqa: F401
        import repro.tlm
        assert "ErrorSlave" not in repro.tlm.__all__
