"""Seeded determinism of the robustness workloads, the EEPROM tear
model and the fault campaign: one seed, one result, bit for bit."""

import random

import pytest

from repro.ec import BusState
from repro.experiments.fault_campaign import run_fault_campaign
from repro.experiments.robustness import (DEFAULT_SEED, WORKLOAD_CLASSES,
                                          class_rng, workload_script)
from repro.soc.memory import Eeprom
from repro.soc.smartcard import SmartCardPlatform


def script_signature(script):
    signature = []
    for item in script:
        gap, txn = item if isinstance(item, tuple) else (0, item)
        signature.append((gap, txn.kind, txn.address, txn.burst_length,
                          txn.pattern, tuple(txn.data)))
    return signature


class TestSeededWorkloads:
    @pytest.mark.parametrize("name", list(WORKLOAD_CLASSES))
    def test_same_seed_same_script(self, name):
        first = script_signature(workload_script(name, seed=123))
        second = script_signature(workload_script(name, seed=123))
        assert first == second

    def test_different_seed_different_script(self):
        first = script_signature(workload_script("random_mix", seed=1))
        second = script_signature(workload_script("random_mix", seed=2))
        assert first != second

    def test_class_streams_are_independent(self):
        # consuming one class's stream must not shift another's
        a1 = class_rng(9, "random_mix").random()
        burn = class_rng(9, "sparse")
        for _ in range(100):
            burn.random()
        a2 = class_rng(9, "random_mix").random()
        assert a1 == a2

    def test_default_seed_is_stable(self):
        assert script_signature(workload_script("subword")) \
            == script_signature(workload_script("subword", DEFAULT_SEED))


class TestEepromTear:
    def test_tear_commits_partial_lanes(self):
        eeprom = Eeprom(0x0, tear_rate=1.0, tear_rng=random.Random(1))
        # a twin stream draws the same tear decision, then the same
        # sampled lane mask
        twin = random.Random(1)
        twin.random()
        mask = twin.randrange(0b10000)
        assert 0 < mask < 0b1111  # this seed tears partway
        lanes = sum(0xFF << (8 * lane) for lane in range(4)
                    if mask & (1 << lane))
        eeprom.poke(0, 0x11223344)
        response = eeprom.do_write(0, 0b1111, 0xAABBCCDD)
        assert response.state is BusState.ERROR
        assert eeprom.torn_writes == 1
        assert eeprom.peek(0) == ((0xAABBCCDD & lanes)
                                  | (0x11223344 & ~lanes))
        assert eeprom.programming_operations == 0

    def test_default_samples_committed_lanes_from_rng(self):
        # the surviving lanes depend on where in the programming
        # sequence power failed — seeded, so two same-seed devices
        # tear identically
        images = []
        for _ in range(2):
            eeprom = Eeprom(0x0, tear_rate=1.0,
                            tear_rng=random.Random("lanes"))
            for i in range(16):
                eeprom.poke(4 * i, 0x11223344)
                eeprom.do_write(4 * i, 0b1111, 0xAABBCCDD)
            images.append([eeprom.peek(4 * i) for i in range(16)])
        assert images[0] == images[1]
        # the sampled masks actually vary: not every word tears the
        # same way, and partially-committed words exist
        assert len(set(images[0])) > 1

    def test_sampled_lanes_follow_the_rng(self):
        from .conftest import FakeRng
        eeprom = Eeprom(0x0, tear_rate=1.0, tear_rng=FakeRng([0.0]))
        eeprom.poke(0, 0x11223344)
        # no scripted draw: FakeRng.randrange returns 0, no lane
        # survives
        assert eeprom.do_write(0, 0b1111, 0xAABBCCDD).state \
            is BusState.ERROR
        assert eeprom.peek(0) == 0x11223344

    @pytest.mark.parametrize("mask", range(0b10000))
    def test_each_sampled_mask_commits_its_lanes(self, mask):
        from .conftest import FakeRng
        eeprom = Eeprom(0x0, tear_rate=1.0,
                        tear_rng=FakeRng([0.0], draws=[mask]))
        eeprom.poke(0, 0x11223344)
        assert eeprom.do_write(0, 0b1111, 0xAABBCCDD).state \
            is BusState.ERROR
        lanes = sum(0xFF << (8 * lane) for lane in range(4)
                    if mask & (1 << lane))
        assert eeprom.peek(0) == ((0xAABBCCDD & lanes)
                                  | (0x11223344 & ~lanes))
        assert eeprom.torn_writes == 1
        assert eeprom.programming_operations == 0

    @pytest.mark.parametrize("byte_enables", [
        0b0001, 0b0010, 0b0100, 0b1000, 0b0011, 0b1100, 0b0110])
    def test_torn_subword_write_commits_only_enabled_lanes(
            self, byte_enables):
        from .conftest import FakeRng
        # every lane survives the tear, but only the enabled ones were
        # being programmed
        eeprom = Eeprom(0x0, tear_rate=1.0,
                        tear_rng=FakeRng([0.0], draws=[0b1111]))
        eeprom.poke(0, 0x11223344)
        eeprom.do_write(0, byte_enables, 0xAABBCCDD)
        lanes = sum(0xFF << (8 * lane) for lane in range(4)
                    if byte_enables & (1 << lane))
        assert eeprom.peek(0) == ((0xAABBCCDD & lanes)
                                  | (0x11223344 & ~lanes))
        assert eeprom.torn_writes == 1

    @pytest.mark.parametrize("draw, rate, torn", [
        (0.0, 0.3, True), (0.29, 0.3, True), (0.3, 0.3, False),
        (0.99, 0.3, False), (0.99, 1.0, True)])
    def test_tear_decision_is_draw_below_rate(self, draw, rate, torn):
        from .conftest import FakeRng
        eeprom = Eeprom(0x0, tear_rate=rate,
                        tear_rng=FakeRng([draw], draws=[0b1111]))
        state = eeprom.do_write(0, 0b1111, 0xAABBCCDD).state
        assert (state is BusState.ERROR) == torn
        assert eeprom.torn_writes == int(torn)
        assert eeprom.programming_operations == int(not torn)
        # a torn write with every lane committed still holds the data
        assert eeprom.peek(0) == 0xAABBCCDD

    @pytest.mark.parametrize("rate", [-0.1, 1.1])
    def test_out_of_range_rate_rejected(self, rate):
        with pytest.raises(ValueError):
            Eeprom(0x0, tear_rate=rate, tear_rng=random.Random(1))

    def test_torn_write_still_opens_busy_window(self):
        eeprom = Eeprom(0x0, tear_rate=1.0, tear_rng=random.Random(1))
        cycle = [10]
        eeprom.bind_cycle_source(lambda: cycle[0])
        eeprom.do_write(0, 0b1111, 1)
        assert eeprom.busy

    def test_rate_zero_never_tears(self):
        eeprom = Eeprom(0x0)
        for i in range(20):
            assert eeprom.do_write(4 * i, 0b1111, i).state is BusState.OK
        assert eeprom.torn_writes == 0

    def test_nonzero_rate_requires_rng(self):
        with pytest.raises(ValueError):
            Eeprom(0x0, tear_rate=0.5)

    def test_same_seed_same_tears(self):
        patterns = []
        for _ in range(2):
            eeprom = Eeprom(0x0, tear_rate=0.5,
                            tear_rng=random.Random("tear"))
            patterns.append([
                eeprom.do_write(4 * i, 0b1111, i).state
                for i in range(50)])
        assert patterns[0] == patterns[1]

    def test_platform_default_has_no_tearing(self):
        platform = SmartCardPlatform()
        assert platform.eeprom.tear_rate == 0.0


class TestCampaignDeterminism:
    def test_same_seed_same_report(self):
        kwargs = dict(rates=(0.0, 0.05), classes=("eeprom_contention",),
                      layers=("layer1",), seed="determinism")
        first = run_fault_campaign(**kwargs)
        second = run_fault_campaign(**kwargs)
        assert first.format() == second.format()

    def test_campaign_completes_under_retry(self):
        result = run_fault_campaign(
            rates=(0.0, 0.05), classes=("random_mix",),
            layers=("layer1", "layer2"))
        for cell in result.cells:
            assert cell.completion_rate == 1.0
        faulted = result.cell("layer1", "random_mix", 0.05)
        assert faulted.retries > 0
        assert faulted.cycle_overhead > 0
        assert faulted.energy_overhead_pj > 0
        assert faulted.retry_energy_pj is not None

    def test_eeprom_tears_reach_the_journal(self):
        # the campaign's EEPROM tears on its own and sits behind a
        # FaultySlave; the cell reads its tear count through the
        # wrapper's delegation
        result = run_fault_campaign(
            rates=(0.3,), classes=("eeprom_contention",),
            layers=("layer1",), seed="ci")
        cell = result.cell("layer1", "eeprom_contention", 0.3)
        assert cell.torn_writes > 0
        assert cell.completion_rate == 1.0

    def test_retry_energy_is_zero_without_faults_on_priced_layers(self):
        result = run_fault_campaign(
            rates=(0.0,), classes=("eeprom_contention",),
            layers=("layer1", "layer2", "gate-level"))
        for layer in ("layer1", "layer2"):
            cell = result.cell(layer, "eeprom_contention", 0.0)
            assert cell.retry_energy_pj == 0.0, layer
        # gate level prices energy only post hoc: the column reads n/a
        gate = result.cell("gate-level", "eeprom_contention", 0.0)
        assert gate.retry_energy_pj is None

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError, match="unknown workload class"):
            run_fault_campaign(rates=(0.0,), classes=("nope",),
                               layers=("layer1",))

    def test_out_of_range_rate_rejected(self):
        with pytest.raises(ValueError, match="fault rates"):
            run_fault_campaign(rates=(-0.5,), classes=("random_mix",),
                               layers=("layer1",))

    def test_unknown_layer_rejected(self):
        with pytest.raises(ValueError):
            run_fault_campaign(rates=(0.0,), classes=("random_mix",),
                               layers=("layer9",))
