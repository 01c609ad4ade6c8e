"""Acceptance scenarios for the supervision layer: cross-blocked
masters diagnosed on every bus model, and campaign checkpoint/resume
producing byte-identical results."""

import dataclasses
import json
import random

import pytest

from repro.ec import MemoryMap, RetryPolicy, WaitStates, data_read
from repro.experiments import run_fault_campaign
from repro.experiments.supervisor import (CampaignSupervisor,
                                          CheckpointJournal, cell_key)
from repro.faults import FaultySlave, StuckWaitInjector
from repro.kernel import Clock, DeadlockError, Simulator, StallError
from repro.power import Layer1PowerModel, default_table
from repro.rtl import RtlBus
from repro.tlm import (BlockingMaster, EcBusLayer1, EcBusLayer2,
                       MemorySlave, run_script)

RAM_BASE = 0x1000

#: Large enough that the hung window outlives any watchdog budget the
#: tests arm: the slave has effectively stopped answering.
FOREVER = 10**6


def build_stuck_platform(layer, kernel=None):
    """A bus over a RAM whose FaultySlave wrapper hangs every access,
    on *kernel*'s ``Simulator`` and ``Clock`` (default: repro.kernel)."""
    simulator_class, clock_class = ((Simulator, Clock) if kernel is None
                                    else (kernel.Simulator, kernel.Clock))
    simulator = simulator_class(f"stuck-{layer}")
    clock = clock_class(simulator, "clk", period=100)
    memory_map = MemoryMap()
    ram = MemorySlave(RAM_BASE, 0x1000, WaitStates(), name="ram")
    stuck = FaultySlave(ram, [StuckWaitInjector(
        rate=1.0, rng=random.Random(1), duration=FOREVER,
        extra_waits=FOREVER)])
    memory_map.add_slave(stuck, "ram")
    if layer == "layer1":
        bus = EcBusLayer1(simulator, clock, memory_map,
                          power_model=Layer1PowerModel(default_table()))
    elif layer == "layer2":
        bus = EcBusLayer2(simulator, clock, memory_map)
    else:
        bus = RtlBus(simulator, clock, memory_map)
    stuck.bind_cycle_source(lambda: bus.cycle)
    return simulator, clock, bus


class TestCrossBlockedMastersDiagnosed:
    """Acceptance: two masters cross-blocked on a stuck-WAIT slave,
    no watchdog recovery, raise a DeadlockError diagnostic naming both
    blocked masters — on layer 1, layer 2 and the RTL reference."""

    @pytest.mark.parametrize("layer", ("layer1", "layer2", "rtl"))
    def test_both_masters_listed(self, layer):
        simulator, clock, bus = build_stuck_platform(layer)
        # the first access opens the hung window and still completes;
        # each master's second read lands inside it and never finishes
        first = BlockingMaster(simulator, clock, bus,
                               [data_read(RAM_BASE),
                                data_read(RAM_BASE + 4)], name="first")
        second = BlockingMaster(simulator, clock, bus,
                                [data_read(RAM_BASE + 0x40),
                                 data_read(RAM_BASE + 0x44)],
                                name="second")
        with pytest.raises(DeadlockError) as excinfo:
            run_script(simulator, first, 100_000, clock,
                       stall_cycles=300)
        error = excinfo.value
        assert isinstance(error, StallError)
        assert isinstance(error, TimeoutError)  # legacy guard contract
        message = str(error)
        assert "master 'first'" in message
        assert "master 'second'" in message
        # tripped by the stall watchdog, far before the cycle budget
        assert clock.cycles < 100_000
        assert not first.done and not second.done

    def test_watchdog_recovery_avoids_the_stall(self):
        # the same platform with master-side recovery completes: the
        # per-transaction watchdog aborts the hung transfer
        simulator, clock, bus = build_stuck_platform("layer1")
        policy = RetryPolicy(max_attempts=2, backoff_cycles=4,
                             timeout_cycles=50)
        master = BlockingMaster(simulator, clock, bus,
                                [data_read(RAM_BASE),
                                 data_read(RAM_BASE + 4)], name="m",
                                retry_policy=policy)
        run_script(simulator, master, 100_000, clock, stall_cycles=500)
        assert master.done
        assert master.timeouts >= 1


class TestCampaignSupervisor:
    def test_retry_then_degraded(self, tmp_path):
        supervisor = CampaignSupervisor(
            "unit", seed=1, journal_path=tmp_path / "j.jsonl",
            max_attempts=3)
        attempts = {"n": 0}

        def flaky():
            attempts["n"] += 1
            if attempts["n"] < 3:
                raise RuntimeError("boom")
            return {"value": 42}

        outcome = supervisor.run_cell({"cell": 1}, flaky)
        assert outcome.ok and outcome.attempts == 3

        def hopeless():
            raise RuntimeError("always")

        outcome = supervisor.run_cell({"cell": 2}, hopeless)
        assert outcome.status == "degraded"
        assert "RuntimeError: always" in outcome.error
        assert supervisor.cells_degraded == 1

    def test_resume_skips_journaled_cells(self, tmp_path):
        path = tmp_path / "j.jsonl"
        first = CampaignSupervisor("unit", seed=1, journal_path=path)
        first.run_cell({"cell": 1}, lambda: {"value": 1.5})

        second = CampaignSupervisor("unit", seed=1, journal_path=path,
                                    resume=True)
        outcome = second.run_cell({"cell": 1}, lambda: pytest.fail(
            "journaled cell must not re-run"))
        assert outcome.from_journal
        assert outcome.payload == {"value": 1.5}
        assert second.cells_resumed == 1

    def test_resume_keyed_on_seed(self, tmp_path):
        path = tmp_path / "j.jsonl"
        CampaignSupervisor("unit", seed=1, journal_path=path).run_cell(
            {"cell": 1}, lambda: {"value": 1})
        other_seed = CampaignSupervisor("unit", seed=2,
                                        journal_path=path, resume=True)
        outcome = other_seed.run_cell({"cell": 1}, lambda: {"value": 2})
        assert not outcome.from_journal

    def test_journal_tolerates_truncated_tail(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CheckpointJournal(path)
        journal.append({"key": "a", "status": "ok", "payload": {"x": 1}})
        journal.append({"key": "b", "status": "ok", "payload": {"x": 2}})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "c", "status": "o')  # killed mid-write
        records = journal.load()
        assert set(records) == {"a", "b"}

    def test_degraded_cell_rerun_last_record_wins(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CheckpointJournal(path)
        journal.append({"key": "a", "status": "degraded",
                        "payload": None})
        journal.append({"key": "a", "status": "ok",
                        "payload": {"x": 1}})
        assert journal.load()["a"]["status"] == "ok"

    def test_degraded_cells_not_resumed(self, tmp_path):
        path = tmp_path / "j.jsonl"
        first = CampaignSupervisor("unit", seed=1, journal_path=path,
                                   max_attempts=1)
        first.run_cell({"cell": 1},
                       lambda: (_ for _ in ()).throw(RuntimeError("x")))
        second = CampaignSupervisor("unit", seed=1, journal_path=path,
                                    resume=True)
        outcome = second.run_cell({"cell": 1}, lambda: {"value": 3})
        assert outcome.ok and not outcome.from_journal

    def test_cell_key_canonical(self):
        assert (cell_key("e", 1, {"a": 1, "b": 2})
                == cell_key("e", 1, {"b": 2, "a": 1}))
        assert cell_key("e", 1, {}) != cell_key("e", "1", {})

    def test_resume_requires_journal(self):
        with pytest.raises(ValueError):
            CampaignSupervisor("unit", seed=1, resume=True)


CAMPAIGN_KW = dict(classes=("eeprom_contention",), rates=(0.0, 0.05),
                   layers=("layer1", "layer2"), seed=7)


class TestCampaignResume:
    """Acceptance: a fault campaign killed at a mid-sweep checkpoint
    then re-run with resume produces byte-identical final results."""

    def test_killed_campaign_resumes_byte_identical(self, tmp_path,
                                                    monkeypatch):
        import repro.experiments.fault_campaign as fc
        path = tmp_path / "campaign.jsonl"
        uninterrupted = run_fault_campaign(**CAMPAIGN_KW)

        # kill the journaled run after two cells, mid-sweep
        original = fc._run_cell
        calls = {"n": 0}

        def dying(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] > 2:
                raise KeyboardInterrupt
            return original(*args, **kwargs)

        monkeypatch.setattr(fc, "_run_cell", dying)
        with pytest.raises(KeyboardInterrupt):
            run_fault_campaign(journal_path=path, **CAMPAIGN_KW)
        monkeypatch.setattr(fc, "_run_cell", original)
        lines = [json.loads(line)
                 for line in path.read_text().splitlines()]
        assert [r.get("kind") for r in lines[:1]] == ["header"]
        assert len([r for r in lines if "key" in r]) == 2

        resumed = run_fault_campaign(journal_path=path, resume=True,
                                     **CAMPAIGN_KW)
        assert resumed.format() == uninterrupted.format()
        assert ([dataclasses.asdict(cell) for cell in resumed.cells]
                == [dataclasses.asdict(cell)
                    for cell in uninterrupted.cells])

    def test_poisoned_cell_reported_degraded(self, tmp_path,
                                             monkeypatch):
        import repro.experiments.fault_campaign as fc
        original = fc._run_cell

        def poisoned(layer, workload, rate, *args, **kwargs):
            if layer == "layer2" and rate != 0.0:
                raise RuntimeError("poisoned cell")
            return original(layer, workload, rate, *args, **kwargs)

        monkeypatch.setattr(fc, "_run_cell", poisoned)
        result = run_fault_campaign(**CAMPAIGN_KW)
        degraded = [cell for cell in result.cells
                    if cell.status == "degraded"]
        assert len(degraded) == 1
        assert degraded[0].layer == "layer2"
        assert "poisoned cell" in degraded[0].error
        assert "DEGRADED" in result.format()
        healthy = [cell for cell in result.cells
                   if cell.status == "ok"]
        assert len(healthy) == len(result.cells) - 1
