"""Integration tests for the T=1 link campaign experiment."""

import dataclasses
import shutil

import pytest

from repro.experiments import run_link_campaign
from repro.experiments.link_campaign import DPM_MODES, LAYERS


class TestReducedGrid:
    @pytest.fixture(scope="class")
    def result(self):
        return run_link_campaign(noise_rates=(0.0, 0.02),
                                 sessions=2, commands=4)

    def test_covers_the_full_grid(self, result):
        seen = {(c.layer, c.noise, c.dpm) for c in result.cells}
        assert seen == {(layer, rate, mode)
                        for layer in LAYERS
                        for rate in (0.0, 0.02)
                        for mode in DPM_MODES}

    def test_verdict_passes(self, result):
        assert result.all_cells_ok
        assert result.no_hangs
        assert result.all_sessions_clean
        assert result.baseline_quiet
        assert result.passed

    def test_clean_baseline_is_retransmission_free(self, result):
        for cell in result.cells:
            if cell.noise == 0.0 and cell.dpm == "off":
                assert cell.completed == cell.sessions
                assert cell.retries == 0
                assert cell.host_retransmissions == 0
                assert cell.card_retransmissions == 0
                assert cell.recovery_total_pj == 0.0

    def test_noise_costs_attributed_recovery_energy(self, result):
        for layer in LAYERS:
            clean = next(c for c in result.cells
                         if (c.layer, c.noise, c.dpm)
                         == (layer, 0.0, "off"))
            noisy = next(c for c in result.cells
                         if (c.layer, c.noise, c.dpm)
                         == (layer, 0.02, "off"))
            assert noisy.all_accounted and clean.all_accounted
            if noisy.retries:
                assert noisy.recovery_total_pj > 0.0
                assert noisy.energy_pj > clean.energy_pj

    def test_dpm_arm_loses_gated_bytes_and_recovers(self, result):
        dpm_cells = [c for c in result.cells if c.dpm == "on"]
        assert any(c.rx_dropped_gated > 0 for c in dpm_cells)
        for cell in dpm_cells:
            assert cell.all_clean
            if cell.rx_dropped_gated:
                # every gated drop was repaired by the link layer
                assert (cell.host_retransmissions
                        + cell.card_retransmissions) > 0

    def test_books_balance_everywhere(self, result):
        for cell in result.cells:
            assert cell.all_accounted
            assert cell.max_unaccounted_pj <= 1e-6 * max(
                1.0, cell.energy_pj)

    def test_format_mentions_the_verdict(self, result):
        text = result.format()
        assert "T=1 link campaign" in text
        assert "every session completes or degrades cleanly" in text


class TestSupervision:
    def test_journal_resume_is_byte_identical(self, tmp_path,
                                              golden_run):
        first, golden_journal = golden_run("link")
        journal = tmp_path / "link.jsonl"
        shutil.copy(golden_journal, journal)
        kwargs = dict(noise_rates=(0.0, 0.02), layers=("layer1",),
                      sessions=2, commands=4,
                      journal_path=str(journal))
        replayed = run_link_campaign(resume=True, **kwargs)
        assert [dataclasses.asdict(c) for c in first.cells] \
            == [dataclasses.asdict(c) for c in replayed.cells]

    def test_workers_match_serial(self):
        kwargs = dict(noise_rates=(0.02,), layers=("layer1",),
                      dpm_modes=("off",), sessions=2, commands=4)
        serial = run_link_campaign(**kwargs)
        sharded = run_link_campaign(workers=2, **kwargs)
        assert [dataclasses.asdict(c) for c in serial.cells] \
            == [dataclasses.asdict(c) for c in sharded.cells]

    def test_bad_grid_rejected(self):
        with pytest.raises(ValueError):
            run_link_campaign(sessions=0)
        with pytest.raises(ValueError):
            run_link_campaign(noise_rates=(1.2,))
        with pytest.raises(ValueError):
            run_link_campaign(layers=("layer9",))
        with pytest.raises(ValueError):
            run_link_campaign(dpm_modes=("maybe",))
