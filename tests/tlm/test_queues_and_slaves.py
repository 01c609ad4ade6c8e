"""Direct unit tests for the transaction queues, the finish pool and
the behavioural-slave building blocks."""

import pytest

from repro.ec import (AccessRights, BusState, SlaveResponse, WaitStates,
                      data_read, data_write)
from repro.faults import ErrorSlave
from repro.soc import SmartCardPlatform
from repro.tlm.queues import FinishPool, TransactionQueue
from repro.tlm.slave import (BehaviouralSlave, MemorySlave,
                             RegisterSlave, _lane_merge)


class TestTransactionQueue:
    def test_fifo_order(self):
        queue = TransactionQueue("q")
        first, second = data_read(0x0), data_read(0x4)
        queue.push(first)
        queue.push(second)
        assert queue.head() is first
        assert queue.pop() is first
        assert queue.pop() is second

    def test_empty_head_is_none(self):
        assert TransactionQueue("q").head() is None

    def test_bool_and_len(self):
        queue = TransactionQueue("q")
        assert not queue and len(queue) == 0
        queue.push(data_read(0x0))
        assert queue and len(queue) == 1

    def test_statistics(self):
        queue = TransactionQueue("q")
        for i in range(3):
            queue.push(data_read(4 * i))
        queue.pop()
        queue.push(data_read(0x100))
        assert queue.total_pushed == 4
        assert queue.peak_occupancy == 3

    def test_iteration(self):
        queue = TransactionQueue("q")
        txns = [data_read(4 * i) for i in range(3)]
        for txn in txns:
            queue.push(txn)
        assert list(queue) == txns


class TestFinishPool:
    def test_collect_by_identity(self):
        pool = FinishPool()
        txn = data_read(0x0)
        pool.push(txn)
        assert txn in pool
        assert pool.collect(txn)
        assert not pool.collect(txn)  # gone after pickup

    def test_collect_wrong_transaction(self):
        pool = FinishPool()
        pool.push(data_read(0x0))
        assert not pool.collect(data_read(0x4))
        assert len(pool) == 1

    def test_total_finished(self):
        pool = FinishPool()
        for i in range(5):
            pool.push(data_read(4 * i))
        assert pool.total_finished == 5


class TestLaneMerge:
    @pytest.mark.parametrize("old,new,enables,expected", [
        (0x11223344, 0xAABBCCDD, 0b1111, 0xAABBCCDD),
        (0x11223344, 0xAABBCCDD, 0b0001, 0x112233DD),
        (0x11223344, 0xAABBCCDD, 0b1000, 0xAA223344),
        (0x11223344, 0xAABBCCDD, 0b0110, 0x11BBCC44),
        (0x11223344, 0xAABBCCDD, 0b0000, 0x11223344),
    ])
    def test_merge(self, old, new, enables, expected):
        assert _lane_merge(old, new, enables) == expected


class TestBlockInterface:
    def test_read_block_returns_words(self):
        memory = MemorySlave(0x0, 0x100)
        memory.load(0, [1, 2, 3, 4])
        words, error = memory.read_block(0, 4, 0b1111)
        assert not error
        assert words == [1, 2, 3, 4]
        assert memory.reads == 4

    def test_write_block_stores_words(self):
        memory = MemorySlave(0x0, 0x100)
        beats_ok, error = memory.write_block(8, [7, 8], 0b1111)
        assert not error and beats_ok == 2
        assert memory.peek(8) == 7 and memory.peek(12) == 8
        assert memory.writes == 2

    def test_single_beat_block_respects_enables(self):
        memory = MemorySlave(0x0, 0x100)
        memory.poke(0, 0x11223344)
        memory.write_block(0, [0x000000FF], 0b0001)
        assert memory.peek(0) == 0x112233FF

    def test_error_slave_blocks_report_error(self):
        slave = ErrorSlave(0x0)
        words, error = slave.read_block(0, 2, 0b1111)
        assert error and words == []
        beats_ok, error = slave.write_block(0, [1], 0b1111)
        assert error and beats_ok == 0


class TestSparseStore:
    """The memories keep only the words ever stored; an absent word
    reads as 0, every accessor checks the offset against the size, and
    ``snapshot()`` copies the nonzero words by offset."""

    SIZE = 0x100

    def test_fresh_memory_reads_zero(self):
        memory = MemorySlave(0x0, self.SIZE)
        assert memory.snapshot() == {}
        for offset in (0, 4, 0x7F, self.SIZE - 1):
            assert memory.peek(offset) == 0
            assert memory.do_read(offset, 0b1111).data == 0

    def test_lane_write_into_unwritten_word_merges_over_zero(self):
        memory = MemorySlave(0x0, self.SIZE)
        memory.do_write(8, 0b0010, 0xAABBCCDD)
        assert memory.peek(8) == 0x0000CC00
        assert memory.peek(4) == 0 and memory.peek(12) == 0
        assert memory.snapshot() == {8: 0x0000CC00}

    def test_snapshot_holds_the_nonzero_words_by_offset(self):
        memory = MemorySlave(0x0, self.SIZE)
        memory.load(8, [0x11, 0, 0xFFFFFFFF, 0x1_0000_0022])
        assert memory.snapshot() == {8: 0x11, 16: 0xFFFFFFFF, 20: 0x22}

    def test_word_poked_back_to_zero_leaves_the_snapshot(self):
        memory = MemorySlave(0x0, self.SIZE)
        memory.poke(0x40, 0xCAFE)
        memory.do_write(0x44, 0b1111, 0xBEEF)
        memory.poke(0x40, 0)
        memory.do_write(0x44, 0b1111, 0)
        assert memory.snapshot() == {}
        assert memory.snapshot() == MemorySlave(0x0, self.SIZE).snapshot()

    def test_snapshot_poke_round_trips(self):
        memory = MemorySlave(0x0, self.SIZE)
        memory.load(0, [3, 1, 4, 1, 5, 9, 2, 6])
        memory.poke(self.SIZE - 4, 0x1234)
        copy = MemorySlave(0x0, self.SIZE)
        for offset, word in memory.snapshot().items():
            copy.poke(offset, word)
        assert copy.snapshot() == memory.snapshot()
        assert ([copy.peek(offset) for offset in range(0, self.SIZE, 4)]
                == [memory.peek(offset)
                    for offset in range(0, self.SIZE, 4)])

    def test_snapshot_is_a_copy(self):
        memory = MemorySlave(0x0, self.SIZE)
        memory.poke(4, 7)
        snapshot = memory.snapshot()
        snapshot[4] = 8
        memory.poke(8, 9)
        assert memory.peek(4) == 7 and 8 not in snapshot

    def test_load_zero_overwrites_stored_word(self):
        memory = MemorySlave(0x0, self.SIZE)
        memory.poke(4, 0x1234)
        memory.load(0, [7, 0])
        assert memory.snapshot() == {0: 7}

    @pytest.mark.parametrize("offset", [SIZE, -4])
    @pytest.mark.parametrize("access", [
        lambda memory, offset: memory.do_read(offset, 0b1111),
        lambda memory, offset: memory.do_write(offset, 0b1111, 1),
        lambda memory, offset: memory.peek(offset),
        lambda memory, offset: memory.poke(offset, 1),
        lambda memory, offset: memory.load(offset, [1]),
    ], ids=["do_read", "do_write", "peek", "poke", "load"])
    def test_offset_outside_memory_raises(self, access, offset):
        memory = MemorySlave(0x0, self.SIZE)
        with pytest.raises(IndexError):
            access(memory, offset)
        assert memory.snapshot() == {}

    def test_load_past_the_end_stores_nothing(self):
        memory = MemorySlave(0x0, self.SIZE)
        with pytest.raises(IndexError):
            memory.load(self.SIZE - 4, [1, 2])
        assert memory.snapshot() == {}

    def test_cold_boot_carries_eeprom_word(self):
        platform = SmartCardPlatform(bus_layer=1)
        platform.eeprom.poke(0x40, 0xDEADBEEF)
        platform.eeprom.do_write(0x7FFC, 0b0100, 0x00A50000)
        booted = platform.cold_boot()
        assert booted.eeprom.peek(0x40) == 0xDEADBEEF
        assert booted.eeprom.peek(0x7FFC) == 0x00A50000
        assert booted.eeprom.snapshot() == platform.eeprom.snapshot()


class TestRegisterSlaveHooks:
    def test_read_hook_overrides_storage(self):
        regs = RegisterSlave(0x0, 4)
        regs.on_read(2, lambda: 0x1234)
        assert regs.do_read(8, 0b1111).data == 0x1234

    def test_write_hook_sees_merged_value(self):
        seen = []
        regs = RegisterSlave(0x0, 4)
        regs.registers[1] = 0xAABBCCDD
        regs.on_write(1, seen.append)
        regs.do_write(4, 0b0001, 0x000000EE)
        assert seen == [0xAABBCCEE]

    def test_unhooked_register_is_plain_storage(self):
        regs = RegisterSlave(0x0, 4)
        regs.do_write(12, 0b1111, 99)
        assert regs.do_read(12, 0b1111).data == 99


class TestSlaveConstruction:
    def test_memory_size_must_be_word_multiple(self):
        with pytest.raises(ValueError):
            MemorySlave(0x0, 0x101)

    def test_offset_of_validates_window(self):
        memory = MemorySlave(0x1000, 0x100)
        assert memory.offset_of(0x1004) == 4
        with pytest.raises(ValueError):
            memory.offset_of(0x2000)

    def test_contains(self):
        memory = MemorySlave(0x1000, 0x100)
        assert memory.contains(0x1000)
        assert memory.contains(0x10FF)
        assert not memory.contains(0x1100)

    def test_wait_states_setter(self):
        memory = MemorySlave(0x0, 0x100)
        memory.wait_states = WaitStates(read=3)
        assert memory.wait_states.read == 3
