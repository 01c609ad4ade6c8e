"""Integration tests for the tear campaign experiment."""

import shutil

import pytest

from repro.experiments import run_tear_campaign
from repro.experiments.tear_campaign import LAYERS


class TestReducedGrid:
    @pytest.fixture(scope="class")
    def result(self):
        return run_tear_campaign(points=4, transactions=5)

    def test_covers_every_layer(self, result):
        assert {cell.layer for cell in result.cells} == set(LAYERS)
        for layer in LAYERS:
            assert len(result.layer_cells(layer)) == 4

    def test_all_tear_points_recover_consistently(self, result):
        assert result.all_consistent
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
