"""Integration tests for the chaos campaign (differential fuzzing of
the fabric across abstraction layers, plus the shrinker selftest)."""

import dataclasses
import shutil

import pytest

from repro.experiments import run_chaos_campaign


class TestSmallCampaign:
    @pytest.fixture(scope="class")
    def result(self):
        # the selftest shrink is the expensive part; run it once here
        return run_chaos_campaign(scenarios=4, seed="chaos-test")

    def test_verdict_passes(self, result):
        assert result.all_cells_ok
        assert result.no_hangs
        assert result.no_divergences
        assert result.books_balanced
        assert result.faults_exercised
        assert result.shrinker_ok
        assert result.passed

    def test_every_cell_ran_all_three_layers(self, result):
        assert len(result.cells) == 4
        for cell in result.cells:
            assert set(cell.layer_summary) == \
                {"layer1", "layer2", "layer3"}
            assert cell.status == "ok"
            assert cell.passed, cell.divergences

    def test_scheduled_faults_actually_fire(self, result):
        scheduled = sum(c.faults_scheduled for c in result.cells)
        fired = sum(c.faults_fired for c in result.cells)
        assert scheduled > 0
        assert fired > 0
        assert any(result.fired_histogram().values())

    def test_selftest_shrank_to_a_minimal_deterministic_repro(
            self, result):
        selftest = result.selftest
        assert selftest is not None
        assert selftest.status == "ok"
        assert selftest.replayed
        assert selftest.smaller
        assert selftest.minimal_faults == 1

    def test_format_mentions_the_verdict(self, result):
        text = result.format()
        assert "chaos campaign" in text
        assert "verdict: layers agree under fabric faults" in text
        assert "selftest shrink" in text

    def test_selftest_can_be_skipped(self):
        result = run_chaos_campaign(scenarios=1, seed="chaos-noself",
                                    selftest=False)
        assert result.selftest is None
        assert result.shrinker_ok  # vacuously
        assert result.passed


class TestSupervision:
    def test_journal_resume_is_byte_identical(self, tmp_path,
                                              golden_run):
        first, golden_journal = golden_run("chaos")
        journal = tmp_path / "chaos.jsonl"
        shutil.copy(golden_journal, journal)
        kwargs = dict(scenarios=2, seed="chaos-resume",
                      selftest=False, journal_path=str(journal))
        replayed = run_chaos_campaign(resume=True, **kwargs)
        assert first.format() == replayed.format()
        assert [dataclasses.asdict(c) for c in first.cells] \
            == [dataclasses.asdict(c) for c in replayed.cells]

    def test_workers_match_serial(self):
        kwargs = dict(scenarios=2, seed="chaos-shard", selftest=False)
        serial = run_chaos_campaign(**kwargs)
        sharded = run_chaos_campaign(workers=2, **kwargs)
        assert [dataclasses.asdict(c) for c in serial.cells] \
            == [dataclasses.asdict(c) for c in sharded.cells]

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            run_chaos_campaign(scenarios=0)
        with pytest.raises(ValueError):
            run_chaos_campaign(scenarios=2, resume=True)
