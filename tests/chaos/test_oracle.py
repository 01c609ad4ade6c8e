"""Cross-layer oracle: invariants hold, faults are accounted, hangs
are findings."""

import dataclasses
import hashlib

import pytest

from repro.chaos import ChaosScenario, generate_scenario, oracle, run_scenario
from repro.faults.fabric import FabricFaultSpec


@pytest.fixture(scope="module")
def faulted_result():
    scenario = ChaosScenario(
        name="faulted", seed="oracle/faulted", workload="apdu",
        commands=2, with_dma=False, dpm=False,
        faults=(FabricFaultSpec("read_stall", 0, 6),
                FabricFaultSpec("dup_write", 0),
                FabricFaultSpec("route_error", 1, 1)),
        retry=True)
    return run_scenario(scenario)


class TestPassingScenarios:
    def test_clean_scenario_passes(self):
        scenario = ChaosScenario(name="clean", seed="oracle/clean",
                                 workload="apdu", commands=2,
                                 with_dma=False, dpm=False)
        result = run_scenario(scenario)
        assert result.passed, result.divergences
        assert result.failure_signature == "pass"
        assert [run.layer for run in result.layers] == \
            ["layer1", "layer2", "layer3"]

    def test_faulted_scenario_still_agrees_across_layers(
            self, faulted_result):
        assert faulted_result.passed, faulted_result.divergences

    def test_faults_fire_identically_on_every_layer(
            self, faulted_result):
        fired = [run.fired for run in faulted_result.layers]
        assert fired[0] == fired[1] == fired[2]
        assert fired[0]["read_stall"] == 1
        assert fired[0]["dup_write"] == 1
        assert fired[0]["route_error"] == 1
        assert faulted_result.faults_fired == 3

    def test_route_error_is_recovered_or_reported(self, faulted_result):
        # SLAVE_ERROR (param 1) is transient: the retry policy must
        # recover it, and the episode must leave a fault report
        for run in faulted_result.layers:
            assert run.fault_reports >= 1
            assert run.errors <= run.fault_reports
            assert run.uncaused_errors == 0

    def test_books_balance_with_faults_injected(self, faulted_result):
        for run in faulted_result.layers:
            assert run.balanced, (run.layer, run.imbalance_pj)

    def test_memory_and_outcomes_agree(self, faulted_result):
        reference = faulted_result.layers[0]
        for run in faulted_result.layers[1:]:
            assert run.digest == reference.digest
            assert run.outcomes == reference.outcomes


class TestFailingScenarios:
    def test_unsurvivable_stall_is_a_hang_finding(self):
        scenario = ChaosScenario(
            name="stuck", seed="oracle/stuck", workload="apdu",
            commands=1, with_dma=False, dpm=False,
            faults=(FabricFaultSpec("read_stall", 0, 50_000),),
            max_cycles=60_000, stall_cycles=800)
        result = run_scenario(scenario)
        assert not result.passed
        assert result.failure_signature == "hang"
        hung = [run for run in result.layers if run.hang]
        assert hung and all(run.hang_diagnostic for run in hung)

    def test_result_dict_is_json_stable(self):
        import json
        scenario = generate_scenario("oracle-json", 0)
        result = run_scenario(scenario)
        wire = json.dumps(result.to_dict(), sort_keys=True)
        assert json.loads(wire)["signature"] == \
            result.failure_signature


class TestDeterminism:
    def test_same_scenario_same_verdict_bitwise(self):
        scenario = generate_scenario("oracle-det", 1)
        a = run_scenario(scenario)
        b = run_scenario(scenario)
        assert a.to_dict() == b.to_dict()

    def test_dpm_scenario_books_psm_ledgers_exactly(self):
        scenario = dataclasses.replace(
            generate_scenario("oracle-dpm", 0),
            dpm=True, faults=())
        result = run_scenario(scenario)
        assert result.passed, result.divergences
        for run in result.layers:
            assert run.balanced


def _reference_digest(platform):
    """The digest read word by word through the functional block
    interface, as a bus master would see the memory."""
    hasher = hashlib.sha256()
    for slave, span in ((platform.ram, oracle._DIGEST_RAM_BYTES),
                        (platform.eeprom, oracle._DIGEST_EEPROM_BYTES)):
        for offset in range(0, min(span, slave.size), 4):
            (word,), error = slave.read_block(offset, 1, 0b1111)
            assert not error
            hasher.update(word.to_bytes(4, "little"))
    return hasher.hexdigest()


class TestMemoryDigest:
    @pytest.mark.parametrize("index", range(3))
    def test_matches_per_word_bus_reads(self, monkeypatch, index):
        digests = []
        written = []

        def checked(platform):
            digest = original(platform)
            digests.append((digest, _reference_digest(platform)))
            written.append(
                any(offset < 0x100 for offset in platform.ram.snapshot())
                or any(offset < 0x1000
                       for offset in platform.eeprom.snapshot()))
            return digest

        original = oracle._memory_digest
        monkeypatch.setattr(oracle, "_memory_digest", checked)
        result = run_scenario(generate_scenario("oracle-digest", index))
        assert len(digests) == len(result.layers) == 3
        for digest, reference in digests:
            assert digest == reference
        assert all(written)  # the scenario left data to hash
