"""Integration tests of the crypto HW/SW interface study (extension)."""

import pytest

from repro.experiments.coprocessor import (make_plaintext,
                                           run_coprocessor_study)
from repro.soc.crypto import xtea_encrypt


@pytest.fixture(scope="module")
def study():
    return run_coprocessor_study(blocks=3)


class TestCorrectness:
    def test_all_implementations_correct(self, study):
        assert all(row.correct for row in study.rows)

    def test_three_rows(self, study):
        assert [row.name for row in study.rows] == ["software", "pio",
                                                    "dma"]

    def test_plaintext_generator_distinct_blocks(self):
        blocks = make_plaintext(8)
        assert len(set(blocks)) == 8


class TestOrdering:
    def test_software_slowest(self, study):
        assert study.row("software").cycles > 5 * study.row("pio").cycles

    def test_dma_fastest(self, study):
        assert study.row("dma").cycles < study.row("pio").cycles

    def test_bus_energy_ordering(self, study):
        energies = [row.bus_energy_pj for row in study.rows]
        assert energies == sorted(energies, reverse=True)

    def test_dma_frees_the_cpu(self, study):
        assert study.row("dma").cpu_instructions \
            < study.row("software").cpu_instructions / 50

    def test_engine_energy_only_for_hardware_variants(self, study):
        assert study.row("software").coprocessor_energy_pj == 0.0
        assert study.row("pio").coprocessor_energy_pj > 0.0
        assert study.row("dma").coprocessor_energy_pj > 0.0

    def test_format_mentions_all_rows(self, study):
        text = study.format()
        for name in ("software", "pio", "dma"):
            assert name in text


class TestDefaultStudy:
    """The default four-block study, as ``repro coprocessor`` runs it."""

    @pytest.fixture(scope="class")
    def default_study(self):
        return run_coprocessor_study()

    def test_bus_transactions_ordering(self, default_study):
        software, pio, dma = (default_study.row(name)
                              for name in ("software", "pio", "dma"))
        assert software.bus_transactions > pio.bus_transactions \
            > dma.bus_transactions

    def test_cpu_almost_idle_in_dma_mode(self, default_study):
        assert default_study.row("dma").cpu_instructions \
            < default_study.row("pio").cpu_instructions / 2


class TestScaling:
    def test_costs_scale_with_block_count(self):
        small = run_coprocessor_study(blocks=2)
        large = run_coprocessor_study(blocks=6)
        for name in ("software", "pio", "dma"):
            assert large.row(name).cycles > small.row(name).cycles
            assert (large.row(name).bus_transactions
                    > small.row(name).bus_transactions)
