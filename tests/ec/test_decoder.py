"""Unit tests for the address decoder / memory map."""

import pytest

from repro.ec import (MAX_ROUTE_DEPTH, AccessRights, DecodeError,
                      MapConflictError, MemoryMap, SlaveResponse,
                      TransactionKind, WaitStates)
from repro.ec.interfaces import Slave


class FakeSlave(Slave):
    """Minimal concrete slave for decoder tests."""

    def __init__(self, base, size, rights=AccessRights.ALL,
                 waits=WaitStates()):
        self._base = base
        self._size = size
        self._rights = rights
        self._waits = waits

    @property
    def base_address(self):
        return self._base

    @property
    def size(self):
        return self._size

    @property
    def wait_states(self):
        return self._waits

    @property
    def access_rights(self):
        return self._rights

    def read_beat(self, offset, byte_enables):
        return SlaveResponse.ok(0)

    def write_beat(self, offset, byte_enables, data):
        return SlaveResponse.ok()


@pytest.fixture
def memory_map():
    mm = MemoryMap()
    mm.add_slave(FakeSlave(0x0000, 0x1000,
                           AccessRights.READ | AccessRights.EXECUTE), "rom")
    mm.add_slave(FakeSlave(0x2000, 0x800), "ram")
    mm.add_slave(FakeSlave(0x4000, 0x100, AccessRights.WRITE), "wo_reg")
    return mm


class TestDecode:
    def test_hit_first_region(self, memory_map):
        assert memory_map.decode(0x0).name == "rom"
        assert memory_map.decode(0xFFF).name == "rom"

    def test_hit_middle_region(self, memory_map):
        assert memory_map.decode(0x2000).name == "ram"
        assert memory_map.decode(0x27FF).name == "ram"

    def test_miss_in_gap(self, memory_map):
        with pytest.raises(DecodeError):
            memory_map.decode(0x1800)

    def test_miss_past_end(self, memory_map):
        with pytest.raises(DecodeError):
            memory_map.decode(0x5000)

    def test_miss_one_past_region_end(self, memory_map):
        with pytest.raises(DecodeError):
            memory_map.decode(0x1000)

    def test_regions_sorted(self, memory_map):
        bases = [r.base for r in memory_map.regions]
        assert bases == sorted(bases)

    def test_len(self, memory_map):
        assert len(memory_map) == 3


class TestOverlapDetection:
    def test_overlap_with_previous(self, memory_map):
        with pytest.raises(MapConflictError):
            memory_map.add_slave(FakeSlave(0x0800, 0x1000), "bad")

    def test_overlap_with_next(self, memory_map):
        with pytest.raises(MapConflictError):
            memory_map.add_slave(FakeSlave(0x1F00, 0x200), "bad")

    def test_exact_duplicate(self, memory_map):
        with pytest.raises(MapConflictError):
            memory_map.add_slave(FakeSlave(0x2000, 0x800), "bad")

    def test_adjacent_regions_allowed(self, memory_map):
        memory_map.add_slave(FakeSlave(0x1000, 0x1000), "fill")
        assert memory_map.decode(0x1800).name == "fill"

    def test_zero_size_rejected(self):
        mm = MemoryMap()
        with pytest.raises(MapConflictError):
            mm.add_slave(FakeSlave(0x0, 0), "empty")

    def test_exceeding_address_space_rejected(self):
        mm = MemoryMap()
        with pytest.raises(MapConflictError):
            mm.add_slave(FakeSlave((1 << 36) - 4, 8), "hang_over")


class TestCheckedDecode:
    def test_rights_enforced(self, memory_map):
        with pytest.raises(DecodeError):
            memory_map.decode_checked(0x0, TransactionKind.DATA_WRITE, 4)

    def test_execute_allowed_on_rom(self, memory_map):
        region = memory_map.decode_checked(
            0x0, TransactionKind.INSTRUCTION_READ, 4)
        assert region.name == "rom"

    def test_write_only_region(self, memory_map):
        memory_map.decode_checked(0x4000, TransactionKind.DATA_WRITE, 4)
        with pytest.raises(DecodeError):
            memory_map.decode_checked(0x4000, TransactionKind.DATA_READ, 4)

    def test_burst_crossing_window_rejected(self, memory_map):
        with pytest.raises(DecodeError):
            memory_map.decode_checked(0xFF8, TransactionKind.DATA_READ, 16)

    def test_burst_inside_window_ok(self, memory_map):
        region = memory_map.decode_checked(
            0xFF0, TransactionKind.DATA_READ, 16)
        assert region.name == "rom"


class TestConflictMessage:
    """The error must name both windows: the mapping that failed AND
    the existing region it collided with, with their ranges."""

    def test_names_both_regions_and_ranges(self, memory_map):
        with pytest.raises(MapConflictError) as excinfo:
            memory_map.add_slave(FakeSlave(0x2400, 0x1000), "newcomer")
        message = str(excinfo.value)
        assert "'newcomer'" in message
        assert "[0x2400, 0x3400)" in message
        assert "'ram'" in message
        assert "[0x2000, 0x2800)" in message

    def test_reversed_insertion_order_names_both(self):
        mm = MemoryMap()
        mm.add_slave(FakeSlave(0x2400, 0x1000), "first")
        with pytest.raises(MapConflictError) as excinfo:
            mm.add_slave(FakeSlave(0x2000, 0x800), "second")
        message = str(excinfo.value)
        assert "'second'" in message
        assert "[0x2000, 0x2800)" in message
        assert "'first'" in message
        assert "[0x2400, 0x3400)" in message


class FakeBridge(FakeSlave):
    """A slave leading to a downstream map (duck-typed bridge)."""

    def __init__(self, base, size, downstream):
        super().__init__(base, size)
        self.downstream_map = downstream


class TestRouting:
    def make_nested(self):
        downstream = MemoryMap()
        downstream.add_slave(FakeSlave(0x8000, 0x100), "leaf")
        upstream = MemoryMap()
        upstream.add_slave(FakeSlave(0x0000, 0x1000), "local")
        upstream.add_slave(FakeBridge(0x8000, 0x1000, downstream),
                           "bridge")
        return upstream

    def test_flat_resolve_is_one_hop(self, memory_map):
        route = memory_map.resolve(0x2000)
        assert route.hops == 0
        assert route.terminal.name == "ram"
        assert route.bridges == ()

    def test_resolve_follows_bridge(self):
        route = self.make_nested().resolve(0x8040)
        assert route.hops == 1
        assert [r.name for r in route.regions] == ["bridge", "leaf"]
        assert route.terminal.name == "leaf"
        assert route.bridges[0].name == "bridge"

    def test_resolve_local_region_not_bridged(self):
        route = self.make_nested().resolve(0x0100)
        assert route.hops == 0
        assert route.terminal.name == "local"

    def test_miss_downstream_raises(self):
        # the bridge window is wider than the downstream map: an
        # address inside the window but unmapped downstream must miss
        with pytest.raises(DecodeError):
            self.make_nested().resolve(0x8200)

    def test_resolve_checked_enforces_terminal_rights(self):
        downstream = MemoryMap()
        downstream.add_slave(FakeSlave(0x8000, 0x100, AccessRights.READ),
                             "ro_leaf")
        upstream = MemoryMap()
        upstream.add_slave(FakeBridge(0x8000, 0x1000, downstream),
                           "bridge")
        upstream.resolve_checked(0x8000, TransactionKind.DATA_READ, 4)
        with pytest.raises(DecodeError):
            upstream.resolve_checked(0x8000, TransactionKind.DATA_WRITE, 4)

    def test_bridge_cycle_detected(self):
        class MutableBridge(FakeSlave):
            downstream_map = None

        mm = MemoryMap()
        bridge = MutableBridge(0x0, 0x1000)
        mm.add_slave(bridge, "loop")
        bridge.downstream_map = mm  # the mis-wiring under test
        with pytest.raises(DecodeError) as excinfo:
            mm.resolve(0x10)
        assert "bridge cycle" in str(excinfo.value)
        assert str(MAX_ROUTE_DEPTH) in str(excinfo.value)
