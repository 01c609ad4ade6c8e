"""Tests of the command-line interface."""

import argparse

import pytest

import repro.cli
from repro.cli import build_parser, main


def _subcommands():
    (action,) = [action for action in build_parser()._actions
                 if isinstance(action, argparse._SubParsersAction)]
    return sorted(action.choices)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    @pytest.mark.parametrize("command", [
        "report", "table1", "table2", "table3", "figure6", "casestudy",
        "coprocessor", "characterize", "trace", "vcd", "sweep",
        "robustness", "faults", "dpm", "link", "fabric", "chaos"])
    def test_commands_parse(self, command):
        args = build_parser().parse_args([command])
        assert args.command == command

    @pytest.mark.parametrize("command", _subcommands())
    def test_command_documented_in_module_docstring(self, command):
        assert f"``{command}``" in repro.cli.__doc__

    def test_bench_is_not_a_command(self, capsys):
        # the benchmark is bench/run.py; the CLI has no bench command
        with pytest.raises(SystemExit) as exit_info:
            main(["bench"])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Layer one model" in out and "Layer two model" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        assert "TL layer 2 estimation" in capsys.readouterr().out

    def test_figure6(self, capsys):
        assert main(["figure6"]) == 0
        assert "sample cycle" in capsys.readouterr().out

    def test_coprocessor(self, capsys):
        assert main(["coprocessor", "--blocks", "2"]) == 0
        out = capsys.readouterr().out
        assert "software" in out and "dma" in out

    def test_characterize_writes_table(self, tmp_path, capsys):
        output = tmp_path / "table.json"
        assert main(["characterize", "-o", str(output)]) == 0
        from repro.power import CharacterizationTable
        table = CharacterizationTable.load(output)
        assert table.coefficient("EB_A") > 0

    def test_tear_small_campaign(self, capsys):
        assert main(["tear", "--points", "3", "--transactions", "4",
                     "--layers", "layer1"]) == 0
        out = capsys.readouterr().out
        assert "Tear campaign" in out
        assert "all tear points recovered consistently" in out
        assert "effective (strictly fewer brownouts)" in out

    def test_tear_rejects_bad_layer(self, capsys):
        assert main(["tear", "--layers", "layer1", "--points",
                     "-1"]) == 2

    def test_tear_resume_requires_journal(self, capsys):
        assert main(["tear", "--resume"]) == 2

    def test_dpm_small_campaign(self, capsys):
        assert main(["dpm", "--traces", "1", "--transactions", "6",
                     "--layers", "layer1",
                     "--policies", "always_on", "fixed_timeout"]) == 0
        out = capsys.readouterr().out
        assert "DPM campaign" in out
        assert "beats baseline" in out
        assert "adaptive DPM effective, emergency recovery verified" \
            in out

    def test_dpm_rejects_bad_parameters(self, capsys):
        assert main(["dpm", "--traces", "0"]) == 2
        assert main(["dpm", "--resume"]) == 2

    def test_dpm_node_and_vdd_must_pair(self, capsys):
        assert main(["dpm", "--node-nm", "180"]) == 2
        assert main(["dpm", "--vdd", "1.8"]) == 2

    def test_link_small_campaign(self, capsys):
        assert main(["link", "--noise", "0", "0.02",
                     "--layers", "layer1", "--dpm", "off",
                     "--sessions", "2", "--commands", "4"]) == 0
        out = capsys.readouterr().out
        assert "T=1 link campaign" in out
        assert "every session completes or degrades cleanly" in out

    def test_link_rejects_bad_parameters(self, capsys):
        assert main(["link", "--sessions", "0"]) == 2
        assert main(["link", "--noise", "1.5"]) == 2
        assert main(["link", "--resume"]) == 2

    def test_fabric_small_campaign(self, capsys):
        assert main(["fabric", "--layers", "layer1", "layer3",
                     "--commands", "4"]) == 0
        out = capsys.readouterr().out
        assert "fabric campaign" in out
        assert "per-link energy books telescope to the probe total" in out

    def test_fabric_rejects_bad_parameters(self, capsys):
        assert main(["fabric", "--commands", "0"]) == 2
        assert main(["fabric", "--resume"]) == 2

    @pytest.mark.parametrize("command, axis, choices", [
        ("faults", ["--classes", "idle"],
         "burst_heavy, eeprom_contention, random_mix"),
        ("faults", ["--layers", "layer3"], "layer1, layer2, gate-level"),
        ("tear", ["--layers", "layer3"], "layer1, layer2, gate-level"),
        ("dpm", ["--policies", "greedy"],
         "always_on, fixed_timeout, history_predictive, budget_aware"),
        ("dpm", ["--layers", "gate-level"], "layer1, layer2"),
        ("link", ["--layers", "gate-level"], "layer1, layer2"),
        ("link", ["--dpm", "auto"], "off, on"),
        ("fabric", ["--layers", "gate-level"], "layer1, layer2, layer3"),
        ("fabric", ["--topologies", "ring"], "flat, bridged"),
    ])
    def test_axes_come_from_the_campaign(self, command, axis, choices,
                                         capsys):
        assert main([command, *axis]) == 2
        error = capsys.readouterr().err
        assert error.startswith(f"repro {command}: error: unknown")
        assert choices in error

    def test_chaos_small_campaign(self, tmp_path, capsys):
        repro = tmp_path / "repro.json"
        journal = str(tmp_path / "chaos.jsonl")
        assert main(["chaos", "--scenarios", "2", "--seed", "3",
                     "--journal", journal, "--repro-out", str(repro)]) == 0
        out = capsys.readouterr().out
        assert "chaos campaign" in out
        assert "verdict: layers agree under fabric faults" in out
        assert repro.exists()
        # a resumed run writes the same repro bytes as the fresh one
        resumed = tmp_path / "resumed.json"
        assert main(["chaos", "--scenarios", "2", "--seed", "3",
                     "--journal", journal, "--resume",
                     "--repro-out", str(resumed)]) == 0
        assert capsys.readouterr().out == out.replace(str(repro),
                                                      str(resumed))
        assert resumed.read_bytes() == repro.read_bytes()
        # the replay exits 0 when the shrunken failure reproduces
        assert main(["chaos", "--replay", str(repro)]) == 0
        assert "signature" in capsys.readouterr().out

    def test_chaos_rejects_bad_parameters(self, capsys):
        assert main(["chaos", "--scenarios", "0",
                     "--no-selftest"]) == 2
        assert main(["chaos", "--resume"]) == 2

    def test_faults_small_campaign(self, capsys):
        assert main(["faults", "--rates", "0", "0.05",
                     "--classes", "eeprom_contention",
                     "--layers", "layer1"]) == 0
        out = capsys.readouterr().out
        assert "Fault-injection campaign" in out
        assert "eeprom_contention" in out
        assert "unrecovered transactions across all cells: 0" in out

    @pytest.mark.parametrize("command", [
        "faults", "tear", "dpm", "link", "fabric", "chaos", "robustness",
        "sweep"])
    def test_resume_without_journal_exits_2(self, command, capsys):
        assert main([command, "--resume"]) == 2
        assert (f"repro {command}: error: resume requires a journal"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("argv", [
        ["faults", "--rates", "0", "--classes", "eeprom_contention",
         "--layers", "layer1"],
        # every tear baseline degrades: no grid, no crash, exit 1
        ["tear", "--points", "2", "--transactions", "3",
         "--layers", "layer1", "--no-governor"],
        ["dpm", "--traces", "1", "--transactions", "1",
         "--layers", "layer1", "--policies", "always_on",
         "--no-emergency"],
        ["link", "--noise", "0", "--layers", "layer1", "--dpm", "off",
         "--sessions", "1", "--commands", "1"],
        ["fabric", "--commands", "2", "--layers", "layer1"],
    ], ids=lambda argv: argv[0])
    def test_exhausted_wall_budget_degrades_cleanly(self, argv, capsys):
        # a budget no cell can meet: every cell degrades, the campaign
        # reports it and fails instead of hanging or raising
        assert main(argv + ["--cell-wall-seconds", "1e-6"]) == 1
        captured = capsys.readouterr()
        assert "DEGRADED" in captured.out
        assert "Traceback" not in captured.out + captured.err

    def test_all_degraded_sweep_reports_and_fails(self, monkeypatch,
                                                   capsys):
        # the sweep has no wall budget: make every grid point crash
        import repro.experiments.bus_sweep as bus_sweep

        def crash(*args):
            raise RuntimeError("point crashed")

        monkeypatch.setattr(bus_sweep, "run_point", crash)
        assert main(["sweep"]) == 1
        out = capsys.readouterr().out
        assert out.count("DEGRADED: RuntimeError: point crashed") == 9
        assert out.endswith("every sweep point degraded\n"
                            "  [FAIL] every grid point ran\n"
                            "verdict: FAILED\n")

    def test_report_csv_runs_table3_once(self, monkeypatch, tmp_path,
                                         capsys):
        # the printed Table 3 and table3_performance.csv must be one
        # timing run: count run_table3 wherever the report path binds it
        import csv

        import repro.experiments.export as export
        import repro.experiments.report as report
        from repro.experiments.table3 import run_table3

        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs)
            return run_table3(*args, **kwargs)

        for module in (report, export):
            if hasattr(module, "run_table3"):
                monkeypatch.setattr(module, "run_table3", counted)
        assert main(["report", "--no-gate-level", "--transactions", "50",
                     "--csv", str(tmp_path)]) == 0
        assert len(calls) == 1
        out = capsys.readouterr().out
        with open(tmp_path / "table3_performance.csv", newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        for model, with_kts, _, without_kts, _ in rows:
            (line,) = [line for line in out.splitlines()
                       if line.startswith(model)]
            printed = line.split()[-4::2]  # kT/s with, without
            assert float(printed[0]) == pytest.approx(float(with_kts),
                                                      abs=0.051)
            assert float(printed[1]) == pytest.approx(float(without_kts),
                                                      abs=0.051)

    def test_report_fails_on_a_failing_section(self, monkeypatch, capsys):
        # --extended prints the robustness sweep: a degraded workload
        # class fails its check, and the report's exit status says so
        import repro.experiments.robustness as robustness
        degraded = robustness.RobustnessResult([robustness.RobustnessRow(
            "sparse", status="degraded", error="crashed twice")])
        monkeypatch.setattr(robustness, "run_robustness",
                            lambda: degraded)
        assert main(["report", "--extended", "--no-gate-level",
                     "--transactions", "50"]) == 1
        out = capsys.readouterr().out
        assert "sparse" in out and "DEGRADED: crashed twice" in out
        assert "  [FAIL] every workload class ran" in out

    def test_chaos_has_no_wall_budget_option(self, capsys):
        # every chaos scenario is bounded by its own stall watchdog
        with pytest.raises(SystemExit):
            main(["chaos", "--cell-wall-seconds", "1"])

    def test_trace_to_stdout(self, capsys):
        assert main(["trace"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# repro bus trace v1")

    def test_vcd_to_file(self, tmp_path, capsys):
        output = tmp_path / "bus.vcd"
        assert main(["vcd", "-o", str(output)]) == 0
        content = output.read_text()
        assert content.startswith("$date")
        assert "EB_A" in content

    def test_trace_to_file(self, tmp_path, capsys):
        output = tmp_path / "program.trace"
        assert main(["trace", "-o", str(output)]) == 0
        from repro.workloads import BusTrace
        trace = BusTrace.load(output)
        assert len(trace) > 10
