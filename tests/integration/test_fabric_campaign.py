"""Integration tests for the fabric campaign (flat vs bridged grid)."""

import dataclasses
import shutil

import pytest

from repro.experiments import run_fabric_campaign
from repro.experiments.fabric_campaign import FABRIC_LAYERS, TOPOLOGIES


class TestReducedGrid:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fabric_campaign(commands=4, seed="fabric-test")

    def test_covers_the_full_grid(self, result):
        seen = {(c.topology, c.layer) for c in result.cells}
        assert seen == {(topology, layer)
                        for topology in TOPOLOGIES
                        for layer in FABRIC_LAYERS}

    def test_verdict_passes(self, result):
        assert result.all_cells_ok
        assert result.books_balanced
        assert result.no_errors
        assert result.bridged_arm_crossed
        assert result.flat_is_legacy
        assert result.bridge_costs_cycles
        assert result.passed

    def test_books_balance_in_every_cell(self, result):
        for cell in result.cells:
            assert cell.balanced
            assert cell.imbalance_pj == 0.0
            assert cell.probe_total_pj > 0.0

    def test_flat_arms_never_cross_a_bridge(self, result):
        for cell in result.cells:
            if cell.topology == "flat":
                assert cell.bridge_crossings == 0
                assert "bridge:bridge" not in cell.buckets
            else:
                assert cell.bridge_crossings > 0
                assert cell.buckets["bridge:bridge"] > 0.0

    def test_timed_arms_saw_dma_contention(self, result):
        for cell in result.cells:
            if cell.layer == "layer3":
                continue
            assert cell.dma_words > 0
            assert cell.cpu_grants > 0
            assert cell.dma_grants > 0

    def test_bridged_arm_pays_peripheral_latency(self, result):
        for layer in ("layer1", "layer2"):
            flat = next(c for c in result.cells
                        if (c.topology, c.layer) == ("flat", layer))
            bridged = next(c for c in result.cells
                           if (c.topology, c.layer) == ("bridged", layer))
            assert bridged.periph_cycles > flat.periph_cycles

    def test_format_mentions_the_verdict(self, result):
        text = result.format()
        assert "fabric campaign" in text
        assert "per-link energy books telescope to the probe total" in text


class TestSupervision:
    def test_journal_resume_is_byte_identical(self, tmp_path,
                                              golden_run):
        first, golden_journal = golden_run("fabric")
        journal = tmp_path / "fabric.jsonl"
        shutil.copy(golden_journal, journal)
        kwargs = dict(topologies=("flat", "bridged"), layers=("layer1",),
                      commands=4, seed="resume-test",
                      journal_path=str(journal))
        replayed = run_fabric_campaign(resume=True, **kwargs)
        assert [dataclasses.asdict(c) for c in first.cells] \
            == [dataclasses.asdict(c) for c in replayed.cells]

    def test_workers_match_serial(self):
        kwargs = dict(topologies=("bridged",), layers=("layer1", "layer3"),
                      commands=4, seed="shard-test")
        serial = run_fabric_campaign(**kwargs)
        sharded = run_fabric_campaign(workers=2, **kwargs)
        assert [dataclasses.asdict(c) for c in serial.cells] \
            == [dataclasses.asdict(c) for c in sharded.cells]

    def test_bad_grid_rejected(self):
        with pytest.raises(ValueError):
            run_fabric_campaign(commands=0)
        with pytest.raises(ValueError):
            run_fabric_campaign(topologies=("ring",))
        with pytest.raises(ValueError):
            run_fabric_campaign(layers=("layer9",))
