"""FaultySlave behaviour, identical under every model layer."""

import random

from repro.ec import (BusState, Direction, ErrorCause, WaitStates,
                      data_read, data_write)
from repro.faults import (BitFlipInjector, FaultKind, FaultySlave,
                          TransientErrorInjector)
from repro.soc.memory import Eeprom
from repro.tlm import BlockingMaster, MemorySlave, run_script

from .conftest import (FailFirstInjector, FaultPlatform,
                       OffsetErrorInjector, RAM_BASE)


def run_blocking(platform, script, max_cycles=20_000, **kwargs):
    master = BlockingMaster(platform.simulator, platform.clock,
                            platform.bus, script, **kwargs)
    run_script(platform.simulator, master, max_cycles, platform.clock)
    return master


class TestDelegation:
    def test_backdoor_reaches_inner(self):
        ram = MemorySlave(RAM_BASE, 0x100, name="ram")
        faulty = FaultySlave(ram)
        faulty.load(0, [11, 22])
        assert faulty.peek(4) == 22
        assert ram.peek(0) == 11

    def test_wait_states_without_windows_are_inner(self):
        ram = MemorySlave(RAM_BASE, 0x100,
                          WaitStates(address=1, read=2, write=3))
        assert FaultySlave(ram).wait_states == ram.wait_states

    def test_access_rights_delegate(self):
        ram = MemorySlave(RAM_BASE, 0x100)
        assert FaultySlave(ram).access_rights == ram.access_rights

    def test_clean_wrapper_is_transparent(self):
        ram = MemorySlave(RAM_BASE, 0x100)
        faulty = FaultySlave(ram)
        faulty.do_write(8, 0b1111, 0xAB)
        response = faulty.do_read(8, 0b1111)
        assert response.state is BusState.OK and response.data == 0xAB
        assert faulty.events == []


class TestFaultsAcrossLayers:
    def test_transient_error_reaches_master(self, fault_layer):
        platform = FaultPlatform(fault_layer, [FailFirstInjector(1)])
        master = run_blocking(platform, [data_read(RAM_BASE),
                                         data_read(RAM_BASE + 4)])
        assert len(master.errors) == 1
        failed = master.errors[0]
        assert failed.error and failed.error_cause is ErrorCause.SLAVE_ERROR
        assert master.completed[1].state is BusState.OK
        assert len(platform.faulty.events) == 1
        event = platform.faulty.events[0]
        assert event.kind is FaultKind.TRANSIENT_ERROR
        assert event.direction is Direction.READ

    def test_same_injector_decisions_every_layer(self):
        per_layer = {}
        script_addrs = [RAM_BASE + 4 * i for i in range(12)]
        for layer in ("layer1", "layer2", "rtl"):
            injector = TransientErrorInjector(0.4, random.Random("w"))
            platform = FaultPlatform(layer, [injector])
            master = run_blocking(
                platform, [data_read(a) for a in script_addrs])
            per_layer[layer] = [t.error for t in master.completed]
        assert per_layer["layer1"] == per_layer["layer2"]
        assert per_layer["layer1"] == per_layer["rtl"]

    def test_bit_flip_corrupts_silently(self, fault_layer):
        platform = FaultPlatform(
            fault_layer,
            [BitFlipInjector(1.0, random.Random("flip"),
                             directions=(Direction.READ,))])
        platform.faulty.load(0, [0x0F0F0F0F])
        master = run_blocking(platform, [data_read(RAM_BASE)])
        txn = master.completed[0]
        assert not txn.error  # silent: the bus never sees it
        assert bin(txn.data[0] ^ 0x0F0F0F0F).count("1") == 1
        counts = platform.faulty.event_counts()
        assert counts[FaultKind.BIT_FLIP] == 1


    def test_eeprom_tear_reaches_master(self, fault_layer):
        # tearing lives on the Eeprom and the wrapper only delegates: a
        # torn write errors on the bus and leaves the image a bare twin
        # device leaves on the same stream
        eeprom = Eeprom(RAM_BASE, size=0x1000, tear_rate=1.0,
                        tear_rng=random.Random(1))
        twin = Eeprom(0x0, tear_rate=1.0, tear_rng=random.Random(1))
        platform = FaultPlatform(fault_layer, inner=eeprom)
        platform.faulty.load(0, [0x11223344])
        twin.poke(0, 0x11223344)
        twin.do_write(0, 0b1111, 0xAABBCCDD)
        master = run_blocking(platform,
                              [data_write(RAM_BASE, [0xAABBCCDD])])
        assert len(master.errors) == 1
        assert master.errors[0].error_cause is ErrorCause.SLAVE_ERROR
        assert platform.faulty.torn_writes == 1
        assert platform.faulty.peek(0) == twin.peek(0) != 0x11223344
        assert platform.faulty.events == []  # no injector fired

class TestMidBurstConsistency:
    """Regression for the layer-2 block-call bookkeeping: a fault in
    the middle of a burst must leave the same partial progress and the
    same error record on every layer."""

    def test_mid_burst_read_fault(self):
        outcomes = {}
        for layer in ("layer1", "layer2", "rtl"):
            platform = FaultPlatform(
                layer, [OffsetErrorInjector({8})])  # third beat
            platform.faulty.load(0, [1, 2, 3, 4])
            master = run_blocking(
                platform, [data_read(RAM_BASE, burst_length=4)])
            txn = master.completed[0]
            assert txn.error, layer
            assert txn in master.errors, layer
            outcomes[layer] = (txn.beats_done, txn.error_cause,
                               txn.data[:txn.beats_done])
        assert outcomes["layer1"] == outcomes["layer2"]
        assert outcomes["layer1"] == outcomes["rtl"]
        assert outcomes["layer1"][0] == 2  # two beats before the fault

    def test_mid_burst_write_fault(self):
        outcomes = {}
        for layer in ("layer1", "layer2", "rtl"):
            platform = FaultPlatform(layer, [OffsetErrorInjector({8})])
            master = run_blocking(
                platform,
                [data_write(RAM_BASE, [0xA, 0xB, 0xC, 0xD])])
            txn = master.completed[0]
            assert txn.error, layer
            # beats before the fault are committed, none after
            assert platform.faulty.peek(0) == 0xA, layer
            assert platform.faulty.peek(4) == 0xB, layer
            assert platform.faulty.peek(8) == 0, layer
            outcomes[layer] = (txn.beats_done, txn.error_cause)
        assert outcomes["layer1"] == outcomes["layer2"]
        assert outcomes["layer1"] == outcomes["rtl"]
