"""Anti-tearing journal: discipline, decode, recovery, persistence."""

import pytest

from repro.faults import TearInjector
from repro.soc import (EEPROM_BASE, JournalState, SmartCardPlatform,
                       TransactionJournal)
from repro.soc.journal import HDR_WORDS, _frame_checksum
from repro.tlm import BlockingMaster, run_script

JOURNAL_BASE = EEPROM_BASE + 0x800
HOME = EEPROM_BASE + 0x100


def image_reader(platform):
    return lambda address: platform.eeprom.peek(address - EEPROM_BASE)


def image_writer(platform):
    return lambda address, value: platform.eeprom.poke(
        address - EEPROM_BASE, value)


def drive(platform, script, max_cycles=50_000):
    master = BlockingMaster(platform.simulator, platform.clock,
                            platform.bus, script)
    run_script(platform.simulator, master, max_cycles, platform.clock)
    return master


class TestUpdateScript:
    def test_discipline_order(self):
        journal = TransactionJournal(JOURNAL_BASE, capacity=4)
        writes = [(HOME, 1), (HOME + 4, 2)]
        script = journal.update_script(3, writes)
        addresses = [txn.address for txn in script]
        # records first, then HDR, COMMIT, homes, clear
        assert addresses[-1] == JOURNAL_BASE + 4        # clear COMMIT
        assert addresses[-3:-1] == [HOME, HOME + 4]     # home writes
        assert addresses[-5:-3] == [JOURNAL_BASE,       # HDR
                                    JOURNAL_BASE + 4]   # COMMIT
        # 2 words per record + HDR + COMMIT + homes + clear
        assert len(script) == 3 * len(writes) + 3

    def test_validation(self):
        journal = TransactionJournal(JOURNAL_BASE, capacity=2)
        with pytest.raises(ValueError):
            journal.update_script(0, [])
        with pytest.raises(ValueError):
            journal.update_script(0, [(HOME, 1)] * 3)  # over capacity
        with pytest.raises(ValueError):
            journal.update_script(0x1_0000, [(HOME, 1)])  # seq > 16 bit
        with pytest.raises(ValueError):
            journal.update_script(0, [(HOME + 1, 1)])  # unaligned
        with pytest.raises(ValueError):
            journal.update_script(0, [(JOURNAL_BASE + 8, 1)])  # overlap
        with pytest.raises(ValueError):
            TransactionJournal(JOURNAL_BASE + 2)
        with pytest.raises(ValueError):
            TransactionJournal(JOURNAL_BASE, capacity=0)


class TestDecode:
    def journal(self):
        return TransactionJournal(JOURNAL_BASE, capacity=4)

    def test_fresh_eeprom_decodes_empty(self):
        platform = SmartCardPlatform(bus_layer=1)
        state = self.journal().decode(image_reader(platform))
        assert state.empty and not state.committed

    def test_committed_frame_roundtrip(self):
        platform = SmartCardPlatform(bus_layer=1)
        journal = self.journal()
        writes = [(HOME, 0xAAAA), (HOME + 4, 0xBBBB)]
        drive(platform, journal.update_script(9, writes)[:-1])
        # clear not yet written: the frame is still durably committed
        state = journal.decode(image_reader(platform))
        assert state.committed
        assert state.seq == 9
        assert state.records == tuple(writes)

    def test_checksum_mismatch_reads_uncommitted(self):
        platform = SmartCardPlatform(bus_layer=1)
        journal = self.journal()
        drive(platform, journal.update_script(1, [(HOME, 5)])[:-1])
        # corrupt one record in place: the commit word no longer
        # matches what the records hash to
        platform.eeprom.poke(JOURNAL_BASE + 4 * (HDR_WORDS + 1)
                             - EEPROM_BASE, 0x666)
        state = journal.decode(image_reader(platform))
        assert not state.committed
        assert state.records == ()

    def test_checksum_never_zero(self):
        assert _frame_checksum(0, []) != 0
        assert _frame_checksum(1, [(HOME, 2)]) != 0


class TestRecover:
    def test_replay_applies_and_clears(self):
        platform = SmartCardPlatform(bus_layer=1)
        journal = TransactionJournal(JOURNAL_BASE, capacity=4)
        writes = [(HOME, 0x11), (HOME + 4, 0x22)]
        # commit the frame but tear before any home write lands
        drive(platform, journal.update_script(2, writes)[:-3])
        assert platform.eeprom.peek(HOME - EEPROM_BASE) == 0
        state = journal.recover(image_reader(platform),
                                image_writer(platform))
        assert state.committed
        assert platform.eeprom.peek(HOME - EEPROM_BASE) == 0x11
        assert platform.eeprom.peek(HOME + 4 - EEPROM_BASE) == 0x22
        # idempotent: a second recovery (tear during recovery) no-ops
        again = journal.recover(image_reader(platform),
                                image_writer(platform))
        assert not again.committed

    def test_recovery_script_prices_the_replay(self):
        platform = SmartCardPlatform(bus_layer=1)
        journal = TransactionJournal(JOURNAL_BASE, capacity=4)
        writes = [(HOME, 0x77)]
        drive(platform, journal.update_script(4, writes)[:-2])
        state = journal.decode(image_reader(platform))
        script = journal.recovery_script(state)
        # reads of HDR+COMMIT+records, the home replay, the clear
        assert len(script) == 2 + 2 * len(writes) + len(writes) + 1
        master = drive(platform.cold_boot(), script)
        assert master.done

    def test_empty_journal_recovery_is_two_reads(self):
        journal = TransactionJournal(JOURNAL_BASE)
        script = journal.recovery_script(
            JournalState(False, 0, (), 0))
        assert len(script) == 2


class TestColdBootPersistence:
    def test_images_carry_and_volatile_state_resets(self):
        platform = SmartCardPlatform(bus_layer=1)
        platform.rom.load(0, [0xC0DE])
        platform.flash.load(0, [0xF1A5])
        platform.eeprom.poke(0x40, 0xEE11)
        platform.ram.poke(0, 0x1234)
        booted = platform.cold_boot()
        assert booted is not platform
        assert booted.simulator is not platform.simulator
        assert booted.rom.peek(0) == 0xC0DE
        assert booted.flash.peek(0) == 0xF1A5
        assert booted.eeprom.peek(0x40) == 0xEE11
        assert booted.ram.peek(0) == 0  # RAM is volatile

    def test_card_with_explicit_power_model_cannot_boot_again(self):
        from repro.power import Layer1PowerModel, default_table
        platform = SmartCardPlatform(
            bus_layer=1, power_model=Layer1PowerModel(default_table()))
        with pytest.raises(ValueError, match="power_model"):
            platform.cold_boot()


class TestTearAnywhere:
    """The headline invariant: tear at any cycle, recover, and every
    transaction is atomically old or new."""

    def test_grid_of_tear_points(self):
        journal = TransactionJournal(JOURNAL_BASE, capacity=2)
        txns = [[(HOME + 8 * t, 0x5A00 + t), (HOME + 8 * t + 4,
                                              0xA500 + t)]
                for t in range(3)]

        def script():
            items = []
            for seq, writes in enumerate(txns):
                items.extend(journal.update_script(seq, writes))
            return items

        baseline = SmartCardPlatform(bus_layer=1)
        drive(baseline, script())
        span = baseline.bus.cycle
        for tear_cycle in range(1, span, 9):
            platform = SmartCardPlatform(bus_layer=1)
            TearInjector(platform.simulator, platform.clock,
                         lambda: platform.bus.cycle,
                         at_cycle=tear_cycle)
            drive(platform, script())
            booted = platform.cold_boot()
            journal.recover(image_reader(booted),
                            image_writer(booted))
            statuses = []
            for writes in txns:
                values = [booted.eeprom.peek(a - EEPROM_BASE)
                          for a, _ in writes]
                if values == [v for _, v in writes]:
                    statuses.append("new")
                elif values == [0, 0]:
                    statuses.append("old")
                else:
                    statuses.append("mixed")
            assert "mixed" not in statuses, (
                f"partial commit at tear cycle {tear_cycle}")
            applied = [i for i, s in enumerate(statuses) if s == "new"]
            assert applied == list(range(len(applied))), (
                f"non-prefix apply at tear cycle {tear_cycle}")
