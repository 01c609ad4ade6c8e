"""Integration tests for the DPM campaign experiment."""

import shutil

import pytest

from repro.experiments import run_dpm_campaign
from repro.experiments.dpm_campaign import LAYERS


class TestReducedGrid:
    @pytest.fixture(scope="class")
    def result(self):
        return run_dpm_campaign(traces=2, transactions=6)

    def test_covers_the_full_grid(self, result):
        assert {cell.layer for cell in result.cells} == set(LAYERS)
        for layer in LAYERS:
            for policy in result.policies:
                assert len(result.arm(layer, policy)) == 2

    def test_every_adaptive_policy_beats_always_on(self, result):
        assert result.adaptive_policies_effective
        for layer in LAYERS:
            baseline = result.arm(layer, "always_on")
            assert sum(c.brownouts for c in baseline) > 0
            for policy in result.adaptive_policies:
                arm = result.arm(layer, policy)
                assert (sum(c.brownouts for c in arm)
                        < sum(c.brownouts for c in baseline))

    def test_equal_delivered_work_across_arms(self, result):
        for cell in result.cells:
            assert cell.status == "ok"
            assert cell.completed == cell.transactions

    def test_adaptive_arms_pay_psm_overhead_and_still_win(self, result):
        for layer in LAYERS:
            baseline = result.arm(layer, "always_on")[0]
            assert baseline.psm_overhead_pj == 0.0
            assert baseline.wakes == 0
            for policy in result.adaptive_policies:
                cell = result.arm(layer, policy)[0]
                assert cell.psm_overhead_pj > 0.0
                assert cell.wakes > 0
                assert cell.drained_pj < baseline.drained_pj

    def test_emergency_cells_checkpoint_die_and_recover(self, result):
        assert result.emergency_recovery_verified
        assert len(result.emergency) == 2
        for cell in result.emergency:
            assert cell.checkpoint_fired
            assert cell.died
            assert cell.checkpoint_txn_applied
            assert cell.journal_clean
            assert cell.idempotent
            assert cell.violations == []

    def test_technology_rows_scale_the_headline(self, result):
        assert len(result.technology) == 4
        reference = next(row for row in result.technology
                         if row["node_nm"] == 250.0)
        assert reference["scale"] == pytest.approx(1.0, abs=1e-3)
        baseline = result.arm("layer1", "always_on")[0]
        for row in result.technology:
            assert row["always_on_nj"] == pytest.approx(
                row["scale"] * baseline.drained_pj / 1e3)
            assert row["best_adaptive_nj"] < row["always_on_nj"]

    def test_passed_and_format_verdict(self, result):
        assert result.passed
        text = result.format()
        assert "adaptive DPM effective, emergency recovery verified" \
            in text
        assert "beats baseline" in text
        assert "technology corners" in text


class TestTechnologyCalibration:
    def test_calibrated_point_keeps_the_verdict(self):
        result = run_dpm_campaign(traces=1, transactions=6,
                                  layers=("layer1",),
                                  policies=("always_on",
                                            "fixed_timeout"),
                                  emergency_cells=1,
                                  node_nm=130.0, vdd=1.8)
        assert result.passed
        assert "130 nm / 1.8 V" in result.table_source

    def test_node_and_vdd_must_come_together(self):
        with pytest.raises(ValueError):
            run_dpm_campaign(node_nm=180.0)
        with pytest.raises(ValueError):
            run_dpm_campaign(vdd=1.8)


class TestSupervision:
    def small_kwargs(self):
        return dict(traces=1, transactions=6, layers=("layer1",),
                    policies=("always_on", "budget_aware"),
                    emergency_cells=1)

    def test_resume_is_byte_identical(self, tmp_path, golden_run):
        fresh, golden_journal = golden_run("dpm")
        journal = str(tmp_path / "dpm.jsonl")
        shutil.copy(golden_journal, journal)
        resumed = run_dpm_campaign(journal_path=journal, resume=True,
                                   **self.small_kwargs())
        assert fresh.format() == resumed.format()
        assert fresh.cells == resumed.cells
        assert fresh.emergency == resumed.emergency

    def test_parallel_matches_serial(self):
        serial = run_dpm_campaign(**self.small_kwargs())
        parallel = run_dpm_campaign(workers=2, **self.small_kwargs())
        assert serial.format() == parallel.format()

    def test_seed_changes_the_traces(self):
        first = run_dpm_campaign(traces=2, transactions=6,
                                 layers=("layer1",),
                                 policies=("always_on",),
                                 emergency=False)
        second = run_dpm_campaign(traces=2, transactions=6,
                                  layers=("layer1",),
                                  policies=("always_on",),
                                  emergency=False, seed="other")
        assert ([c.cycles for c in first.cells]
                != [c.cycles for c in second.cells])


class TestValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            run_dpm_campaign(traces=0)
        with pytest.raises(ValueError):
            run_dpm_campaign(transactions=0)
        with pytest.raises(ValueError):
            run_dpm_campaign(policies=("thermal",))
        with pytest.raises(ValueError):
            run_dpm_campaign(layers=("rtl",))
