"""Integration tests for the tear campaign experiment."""

import shutil

import pytest

from repro.experiments import run_tear_campaign
from repro.experiments.tear_campaign import (LAYERS, WORDS_PER_TXN,
                                             _JournalWorkload)
from repro.soc import EEPROM_BASE, SmartCardPlatform


class TestRebootStep:
    """The one reboot-and-verify step the tear and DPM campaigns
    share: cold boot, decode, recover on the bus, classify, check."""

    @staticmethod
    def torn_card(workload, frame_items):
        """A card holding the old home values plus the first
        *frame_items* writes of txn 0's journal discipline, as a tear
        right after them would leave it."""
        platform = SmartCardPlatform(bus_layer="layer1")
        workload.preload(platform)
        frame = workload.journal.update_script(0, workload.txn_writes[0])
        for txn in frame[:frame_items]:
            platform.eeprom.poke(txn.address - EEPROM_BASE, txn.data[0])
        return platform

    def test_card_torn_mid_commit_recovers_cleanly(self):
        workload = _JournalWorkload(3, 2)
        # records, HDR and COMMIT written, then one of two home words
        platform = self.torn_card(workload, 2 * WORDS_PER_TXN + 3)
        assert workload.classify(platform) == ["mixed", "old"]
        reboot = workload.reboot(platform, None)
        assert reboot.boot_state.committed
        assert reboot.violations == []
        assert reboot.statuses == ["new", "old"]
        assert reboot.journal_clean
        assert reboot.recovery_cycles > 0
        assert reboot.booted is not platform

    def test_half_written_home_without_a_frame_is_partial(self):
        workload = _JournalWorkload(3, 2)
        platform = self.torn_card(workload, 0)
        (address, new), _ = workload.txn_writes[0]
        platform.eeprom.poke(address - EEPROM_BASE, new)
        reboot = workload.reboot(platform, None)
        assert not reboot.boot_state.committed
        assert reboot.statuses == ["mixed", "old"]
        assert reboot.violations == ["txn 0 partially committed"]


class TestReducedGrid:
    @pytest.fixture(scope="class")
    def result(self):
        return run_tear_campaign(points=4, transactions=5)

    def test_covers_every_layer(self, result):
        assert {cell.layer for cell in result.cells} == set(LAYERS)
        for layer in LAYERS:
            assert len(result.layer_cells(layer)) == 4

    def test_all_tear_points_recover_consistently(self, result):
        checks = dict(result.report().checks)
        assert checks["every baseline ran"]
        assert checks["every tear point recovered consistently"]
        for cell in result.cells:
            assert cell.status == "ok"
            assert cell.violations == []

    def test_replayed_cells_price_recovery(self, result):
        replayed = [c for c in result.cells if c.replayed]
        for cell in replayed:
            assert cell.recovery_cycles > 0
            assert cell.recovery_energy_pj > 0.0
        unreplayed = [c for c in result.cells if not c.replayed]
        # an uncommitted journal still costs the two decode reads
        for cell in unreplayed:
            assert cell.recovery_cycles >= 0

    def test_baselines_span_the_grid(self, result):
        for layer in LAYERS:
            baseline = result.baselines[layer]
            assert baseline["cycles"] > 0
            for cell in result.layer_cells(layer):
                assert cell.tear_cycle <= baseline["cycles"]

    def test_governor_strictly_fewer_brownouts(self, result):
        arms = {cell.governed: cell for cell in result.governor}
        assert arms[False].completed and arms[True].completed
        assert arms[False].brownouts > 0
        assert arms[True].brownouts < arms[False].brownouts
        assert arms[True].deferrals > 0
        assert result.governor_effective

    def test_format_mentions_the_verdicts(self, result):
        text = result.format()
        assert "all tear points recovered consistently" in text
        assert "effective (strictly fewer brownouts)" in text


class TestSupervision:
    def test_resume_is_byte_identical(self, tmp_path, golden_run):
        fresh, golden_journal = golden_run("tear")
        journal = str(tmp_path / "tear.jsonl")
        shutil.copy(golden_journal, journal)
        resumed = run_tear_campaign(points=3, transactions=4,
                                    layers=("layer1",),
                                    journal_path=journal, resume=True)
        assert fresh.format() == resumed.format()
        assert fresh.cells == resumed.cells
        assert fresh.governor == resumed.governor

    def test_seed_changes_the_grid(self):
        first = run_tear_campaign(points=3, transactions=4,
                                  layers=("layer1",),
                                  governor_study=False)
        second = run_tear_campaign(points=3, transactions=4,
                                   layers=("layer1",), seed="other",
                                   governor_study=False)
        assert ([c.tear_cycle for c in first.cells]
                != [c.tear_cycle for c in second.cells])


class TestValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            run_tear_campaign(points=0)
        with pytest.raises(ValueError):
            run_tear_campaign(transactions=0)
        with pytest.raises(ValueError):
            run_tear_campaign(layers=("layer9",))
        with pytest.raises(ValueError):
            # home region would overrun the journal window
            run_tear_campaign(transactions=10_000)
