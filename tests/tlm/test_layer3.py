"""Tests of the untimed layer-3 (message layer) bus."""

import pytest

from repro.ec import (BusState, DecodeError, ErrorCause, MemoryMap,
                      MergePattern, RetryPolicy, SlaveResponse, data_read,
                      data_write, instruction_fetch)
from repro.faults import ErrorSlave
from repro.tlm import EcBusLayer3, MemorySlave, MessageRun
from repro.tlm.slave import RegisterSlave

RAM_BASE = 0x1000
ROM_BASE = 0x4000


@pytest.fixture
def bus():
    from repro.ec import AccessRights, WaitStates
    memory_map = MemoryMap()
    memory_map.add_slave(MemorySlave(RAM_BASE, 0x1000, name="ram"), "ram")
    rom = MemorySlave(ROM_BASE, 0x1000, WaitStates(),
                      AccessRights.READ | AccessRights.EXECUTE, name="rom")
    memory_map.add_slave(rom, "rom")
    memory_map.add_slave(ErrorSlave(0x8000), "err")
    return EcBusLayer3(memory_map)


class TestMessageInterface:
    def test_write_then_read_message(self, bus):
        bus.write_message(RAM_BASE, [1, 2, 3, 4, 5, 6, 7])
        assert bus.read_message(RAM_BASE, 7) == [1, 2, 3, 4, 5, 6, 7]
        assert bus.messages == 2

    def test_messages_have_no_length_restriction(self, bus):
        words = list(range(100))
        bus.write_message(RAM_BASE, words)
        assert bus.read_message(RAM_BASE, 100) == words

    def test_rights_enforced(self, bus):
        with pytest.raises(DecodeError):
            bus.write_message(ROM_BASE, [1])

    def test_window_containment_enforced(self, bus):
        with pytest.raises(DecodeError):
            bus.read_message(RAM_BASE + 0x1000 - 8, 4)

    def test_unmapped_address(self, bus):
        with pytest.raises(DecodeError):
            bus.read_message(0x0900_0000, 1)

    def test_slave_error_raises(self, bus):
        with pytest.raises(DecodeError):
            bus.read_message(0x8000, 1)
        assert bus.errors == 1


class TestNonBlockingInterface:
    def test_transactions_complete_on_first_call(self, bus):
        write = data_write(RAM_BASE, [0xAB])
        read = data_read(RAM_BASE)
        assert bus.issue(write) is BusState.OK
        assert bus.issue(read) is BusState.OK
        assert read.data == [0xAB]

    def test_burst_roundtrip(self, bus):
        assert bus.issue(data_write(RAM_BASE, [9, 8, 7, 6])) is BusState.OK
        read = data_read(RAM_BASE, burst_length=4)
        bus.issue(read)
        assert read.data == [9, 8, 7, 6]

    def test_sub_word_write_merges(self, bus):
        bus.issue(data_write(RAM_BASE, [0x11223344]))
        bus.issue(data_write(RAM_BASE + 1, [0xAA << 8],
                             MergePattern.BYTE))
        read = data_read(RAM_BASE)
        bus.issue(read)
        assert read.data == [0x1122AA44]

    def test_instruction_fetch(self, bus):
        fetch = instruction_fetch(ROM_BASE, burst_length=4)
        assert bus.issue(fetch) is BusState.OK

    def test_errors_reported(self, bus):
        assert bus.issue(data_read(0x0900_0000)) is BusState.ERROR
        assert bus.issue(data_write(ROM_BASE, [1])) is BusState.ERROR

    def test_repeated_issue_is_idempotent(self, bus):
        txn = data_read(RAM_BASE)
        assert bus.issue(txn) is BusState.OK
        assert bus.issue(txn) is BusState.OK
        assert bus.transactions_completed == 1


class TestCrossLayerFunctionalEquivalence:
    """Software behaviour at layer 3 must match layer 1 exactly."""

    def test_same_final_memory_as_layer1(self):
        from repro.kernel import Clock, Simulator
        from repro.tlm import BlockingMaster, EcBusLayer1, run_script

        def script():
            return [
                data_write(RAM_BASE, [0xDEAD, 0xBEEF]),
                data_write(RAM_BASE + 0x10 + 2, [0xAA55 << 16],
                           MergePattern.HALFWORD),
                data_read(RAM_BASE, burst_length=2),
            ]

        # layer 3: direct calls
        memory_map3 = MemoryMap()
        ram3 = MemorySlave(RAM_BASE, 0x1000, name="ram")
        memory_map3.add_slave(ram3, "ram")
        bus3 = EcBusLayer3(memory_map3)
        results3 = []
        for txn in script():
            bus3.issue(txn)
            results3.append(tuple(txn.data))
        # layer 1: through the kernel
        simulator = Simulator("l1")
        clock = Clock(simulator, "clk", period=100)
        memory_map1 = MemoryMap()
        ram1 = MemorySlave(RAM_BASE, 0x1000, name="ram")
        memory_map1.add_slave(ram1, "ram")
        bus1 = EcBusLayer1(simulator, clock, memory_map1)
        master = BlockingMaster(simulator, clock, bus1, script())
        run_script(simulator, master, 1_000, clock)
        results1 = [tuple(t.data) for t in master.completed]
        assert results3 == results1
        assert ram3._words == ram1._words

    def test_javacard_adapter_runs_on_layer3(self):
        """The §4.3 refinement stack also works above the untimed bus —
        top-down refinement's first stop."""
        from repro.javacard import (BytecodeInterpreter, HardwareStack,
                                    SfrLayout, StackMasterAdapter,
                                    benchmark_package)
        from repro.javacard.workloads import BENCHMARKS
        from repro.kernel import Clock, Simulator

        memory_map = MemoryMap()
        memory_map.add_slave(MemorySlave(RAM_BASE, 0x1000, name="ram"),
                             "ram")
        stack = HardwareStack(0x6000, layout=SfrLayout.DEDICATED)
        memory_map.add_slave(stack, "stack")
        bus = EcBusLayer3(memory_map)
        simulator = Simulator("l3")
        clock = Clock(simulator, "clk", period=100)
        adapter = StackMasterAdapter(simulator, clock, bus, 0x6000)
        interpreter = BytecodeInterpreter(benchmark_package(), adapter)
        for name, args, reference in BENCHMARKS:
            assert interpreter.run(name, args) == reference(*args)


class _FailsFirstAccess(MemorySlave):
    """A memory whose very first beat access answers with a bus error."""

    def __init__(self, base_address: int) -> None:
        super().__init__(base_address, 0x100, name="flaky")
        self.failed = False

    def _first(self) -> bool:
        first, self.failed = not self.failed, True
        return first

    def do_read(self, offset, byte_enables):
        if self._first():
            return SlaveResponse.error()
        return super().do_read(offset, byte_enables)

    def do_write(self, offset, byte_enables, data):
        if self._first():
            return SlaveResponse.error()
        return super().do_write(offset, byte_enables, data)


class TestMessageRun:
    """The untimed runner reports what the blocking master reports."""

    TARGETS = {"error_slave": 0x8000, "fails_first": 0x9000}
    POLICIES = {"no_policy": None,
                "retry": RetryPolicy(max_attempts=3, backoff_cycles=2),
                "retry_no_backoff": RetryPolicy(max_attempts=2,
                                                backoff_cycles=0)}

    @staticmethod
    def _map():
        memory_map = MemoryMap()
        memory_map.add_slave(MemorySlave(RAM_BASE, 0x1000, name="ram"),
                             "ram")
        memory_map.add_slave(ErrorSlave(0x8000), "err")
        memory_map.add_slave(_FailsFirstAccess(0x9000), "flaky")
        return memory_map

    @staticmethod
    def _script(target):
        return [data_write(RAM_BASE, [7]), (3, data_read(target)),
                data_write(target + 4, [5]), data_read(RAM_BASE),
                data_read(0x0900_0000)]

    @staticmethod
    def _surface(run):
        return (
            [(t.kind, t.address, t.error, t.error_cause, tuple(t.data))
             for t in run.completed],
            [t.txn_id for t in run.errors],
            run.retries,
            [(r.address, r.kind, r.cause, r.attempts, r.recovered)
             for r in run.fault_reports])

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @pytest.mark.parametrize("target", sorted(TARGETS))
    def test_matches_blocking_master_on_layer1(self, target, policy):
        from repro.kernel import Clock, Simulator
        from repro.tlm import BlockingMaster, EcBusLayer1, run_script

        address, retry_policy = self.TARGETS[target], self.POLICIES[policy]
        untimed = MessageRun(EcBusLayer3(self._map()),
                             self._script(address), retry_policy)
        simulator = Simulator("l1")
        clock = Clock(simulator, "clk", period=100)
        master = BlockingMaster(simulator, clock,
                                EcBusLayer1(simulator, clock, self._map()),
                                self._script(address),
                                retry_policy=retry_policy)
        run_script(simulator, master, 1_000, clock)

        mine, theirs = self._surface(untimed), self._surface(master)
        assert mine[0] == theirs[0]
        assert len(mine[1]) == len(theirs[1])
        assert mine[2:] == theirs[2:]
        # the read and the write fail at the error slave; only the
        # first access fails at the other; the unmapped read always
        recovered = {"error_slave": [False, False, False],
                     "fails_first": [True, False]}[target]
        assert len(untimed.completed) == 5
        assert len(untimed.errors) == (
            len(recovered) if retry_policy is None
            else recovered.count(False))
        assert [r.recovered for r in untimed.fault_reports] == (
            recovered if retry_policy is not None else [])

    def test_decode_errors_are_not_retried(self):
        run = MessageRun(EcBusLayer3(self._map()),
                         [data_read(0x0900_0000)], RetryPolicy())
        assert run.retries == 0
        assert run.errors[0].error_cause is ErrorCause.DECODE
        assert [r.attempts for r in run.fault_reports] == [1]
