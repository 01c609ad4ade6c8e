"""Parallel campaign execution must be invisible in the results.

``--workers N`` shards supervisor cells over a process pool; the
contract is byte-identical JSONL journals, identical reports and
identical resume behaviour versus a serial run.  Worker failures must
degrade only their own cell, exactly as the serial retry path does.
"""

import json
import os

import pytest

from repro.experiments.bus_sweep import run_bus_sweep
from repro.experiments.fault_campaign import run_fault_campaign
from repro.experiments.supervisor import CampaignSupervisor
from repro.experiments.tear_campaign import run_tear_campaign


def _read(path):
    with open(path, "rb") as handle:
        return handle.read()


def _split_journal(path):
    """(header_records, cell_lines): headers carry the worker count and
    differ between serial and parallel runs by design; cell lines must
    stay byte-identical."""
    headers, cells = [], []
    with open(path, "rb") as handle:
        for line in handle:
            record = json.loads(line)
            if record.get("kind") == "header":
                headers.append(record)
            else:
                cells.append(line)
    return headers, cells


class TestFaultCampaignParallel:
    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory, golden_run):
        tmp = tmp_path_factory.mktemp("fault")
        parallel_journal = str(tmp / "parallel.jsonl")
        # the serial run is the golden manifest's faults run
        serial, serial_journal = golden_run("faults")
        parallel = run_fault_campaign(
            rates=(0.0, 0.05), classes=("random_mix",),
            layers=("layer1", "layer2"), journal_path=parallel_journal,
            workers=4)
        return serial, parallel, serial_journal, parallel_journal

    def test_journals_byte_identical(self, runs):
        _, _, serial_journal, parallel_journal = runs
        serial_headers, serial_cells = _split_journal(serial_journal)
        parallel_headers, parallel_cells = _split_journal(
            parallel_journal)
        assert serial_cells == parallel_cells
        assert [h["workers"] for h in serial_headers] == [1]
        # on a 1-CPU host the pool falls back to serial and the header
        # must record that effective count
        expected = 4 if (os.cpu_count() or 1) > 1 else 1
        assert [h["workers"] for h in parallel_headers] == [expected]

    def test_reports_identical(self, runs):
        serial, parallel, _, _ = runs
        assert serial.format() == parallel.format()
        assert serial.cells == parallel.cells

    def test_parallel_journal_resumes_serially(self, runs, tmp_path):
        _, parallel, _, parallel_journal = runs
        resumed = run_fault_campaign(
            rates=(0.0, 0.05), classes=("random_mix",),
            layers=("layer1", "layer2"), journal_path=parallel_journal,
            resume=True, workers=1)
        assert resumed.format() == parallel.format()


class TestTearCampaignParallel:
    def test_byte_identical_journal_and_report(self, tmp_path):
        serial_journal = str(tmp_path / "serial.jsonl")
        parallel_journal = str(tmp_path / "parallel.jsonl")
        serial = run_tear_campaign(
            points=3, transactions=4, layers=("layer1",),
            journal_path=serial_journal, workers=1)
        parallel = run_tear_campaign(
            points=3, transactions=4, layers=("layer1",),
            journal_path=parallel_journal, workers=4)
        _, serial_cells = _split_journal(serial_journal)
        _, parallel_cells = _split_journal(parallel_journal)
        assert serial_cells == parallel_cells
        assert serial.format() == parallel.format()
        assert serial.cells == parallel.cells
        assert serial.governor == parallel.governor


class TestBusSweepParallel:
    def test_identical_points(self):
        serial = run_bus_sweep(burst_lengths=(1, 2),
                               buffer_lines=(1, 4))
        parallel = run_bus_sweep(burst_lengths=(1, 2),
                                 buffer_lines=(1, 4), workers=2)
        assert serial.points == parallel.points


def _flaky_once(marker_dir, value):
    """Fails on its first call per worker state dir, succeeds after —
    exercises the in-worker retry."""
    marker = os.path.join(marker_dir, "attempted")
    if not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8"):
            pass
        raise RuntimeError("transient cell failure")
    return {"value": value}


def _always_broken(message):
    raise ValueError(message)


def _value(value):
    return {"value": value}


def _dead_worker(value):
    os._exit(3)  # the worker process dies: no Python exception to catch


class TestRunCellsSemantics:
    def test_serial_and_parallel_outcomes_match(self, tmp_path):
        specs = [({"cell": i}, _flaky_once,
                  (str(tmp_path / f"state{i}"), i)) for i in range(3)]
        for params, _, (state_dir, _) in specs:
            os.makedirs(state_dir)
        serial = CampaignSupervisor("t", 1).run_cells(specs, workers=1)
        # reset the flaky markers so the parallel pass sees the same world
        for _, _, (state_dir, _) in specs:
            os.remove(os.path.join(state_dir, "attempted"))
        parallel = CampaignSupervisor("t", 1).run_cells(specs, workers=2)
        assert [o.payload for o in serial] == [o.payload
                                               for o in parallel]
        assert [o.status for o in parallel] == ["ok"] * 3
        assert all(o.attempts == 2 for o in serial)
        assert all(o.attempts == 2 for o in parallel)

    def test_degraded_cell_does_not_sink_the_batch(self, tmp_path):
        journal = str(tmp_path / "j.jsonl")
        specs = [
            ({"cell": 0}, _always_broken, ("poisoned",)),
            ({"cell": 1}, _flaky_once, (str(tmp_path), 7)),
        ]
        supervisor = CampaignSupervisor("t", 1, journal_path=journal)
        outcomes = supervisor.run_cells(specs, workers=2)
        assert outcomes[0].status == "degraded"
        assert "poisoned" in outcomes[0].error
        assert outcomes[1].status == "ok"
        assert outcomes[1].payload == {"value": 7}
        assert supervisor.cells_degraded == 1
        assert supervisor.cells_run == 2

    @pytest.mark.skipif((os.cpu_count() or 1) < 2,
                        reason="a 1-CPU host runs the cells in-process")
    def test_dead_worker_degrades_only_its_cell(self, tmp_path):
        journal = str(tmp_path / "j.jsonl")
        specs = [({"cell": 0}, _dead_worker, (0,)),
                 ({"cell": 1}, _value, (1,)),
                 ({"cell": 2}, _value, (2,))]
        supervisor = CampaignSupervisor("t", 1, journal_path=journal)
        outcomes = supervisor.run_cells(specs, workers=2)
        assert outcomes[0].status == "degraded"
        assert "BrokenProcessPool" in outcomes[0].error
        # the rebuilt pool finishes the rest
        assert [o.payload for o in outcomes[1:]] == [{"value": 1},
                                                     {"value": 2}]
        _, cells = _split_journal(journal)
        assert len(cells) == 3

    def test_resume_skips_journaled_cells(self, tmp_path):
        journal = str(tmp_path / "j.jsonl")
        specs = [({"cell": i}, _flaky_once,
                  (str(tmp_path / f"s{i}"), i)) for i in range(2)]
        for _, _, (state_dir, _) in specs:
            os.makedirs(state_dir)
        CampaignSupervisor("t", 1, journal_path=journal).run_cells(
            specs, workers=2)
        resumed = CampaignSupervisor(
            "t", 1, journal_path=journal, resume=True).run_cells(
                specs, workers=2)
        assert all(o.from_journal for o in resumed)
        assert [o.payload for o in resumed] == [{"value": 0},
                                                {"value": 1}]
