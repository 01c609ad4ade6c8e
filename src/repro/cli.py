"""Command-line interface: ``python -m repro <command>``.

Commands mirror the library's main entry points so the reproduction is
usable without writing Python:

========================  ==============================================
``report``                every table and figure, printed
``table1`` / ``table2``   one accuracy table
``table3``                simulation performance
``figure6``               the energy-sampling profile
``casestudy``             the §4.3 Java Card exploration
``coprocessor``           the §1 crypto HW/SW interface study
``characterize``          run the characterisation flow; optionally save
                          the table as JSON
``sweep``                 fetch-path (burst x line-buffer) sweep
``robustness``            accuracy errors across workload classes
``faults``                fault-injection campaign: completion rate and
                          recovery cost (cycles, energy) per bus layer
``tear``                  tear campaign: anti-tearing consistency and
                          recovery cost under whole-card power loss
``dpm``                   dynamic power management campaign: adaptive
                          policies vs always-on on starved supplies,
                          plus the emergency-checkpoint study
``link``                  T=1 link campaign: framed APDU sessions over
                          a noisy UART channel — bounded retransmission
                          and energy-attributed recovery per bus layer
``fabric``                routable-fabric campaign: flat vs bridged
                          topology with exact per-link energy books
``chaos``                 chaos campaign: seeded fabric-fault scenarios
                          checked by a cross-layer differential oracle;
                          failures shrink to replayable minimal repros
``trace``                 run the §4.1 test program and dump its bus
                          trace
``vcd``                   dump the test program's bus waveform (and
                          per-cycle energy) as VCD
========================  ==============================================
"""

from __future__ import annotations

import argparse
import json
import sys
import typing


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import full_report
    print(full_report(transactions=args.transactions,
                      include_gate_level=not args.no_gate_level,
                      extended=args.extended))
    if args.csv:
        from repro.experiments.export import write_csv_reports
        paths = write_csv_reports(args.csv,
                                  transactions=args.transactions)
        print(f"\nCSV results written: "
              f"{', '.join(str(p) for p in paths)}")
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.experiments import run_table1
    print(run_table1().format())
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from repro.experiments import run_table2
    print(run_table2().format())
    return 0


def _cmd_table3(args: argparse.Namespace) -> int:
    from repro.experiments import run_table3
    print(run_table3(transactions=args.transactions,
                     include_gate_level=not args.no_gate_level).format())
    return 0


def _cmd_figure6(args: argparse.Namespace) -> int:
    from repro.experiments import run_figure6
    print(run_figure6(workers=args.workers).format())
    return 0


def _cmd_casestudy(args: argparse.Namespace) -> int:
    from repro.experiments import run_casestudy
    print(run_casestudy().format())
    return 0


def _cmd_coprocessor(args: argparse.Namespace) -> int:
    from repro.experiments import run_coprocessor_study
    print(run_coprocessor_study(blocks=args.blocks).format())
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    from repro.power.characterize import (coefficient_report,
                                          default_characterization)
    result = default_characterization(seed=args.seed)
    print(result.report.format_summary())
    print()
    print(coefficient_report(result.table))
    if args.output:
        result.table.save(args.output)
        print(f"\ntable written to {args.output}")
    return 0


def _check_resume(args: argparse.Namespace, command: str) -> bool:
    if args.resume and not args.journal:
        print(f"repro {command}: error: --resume requires --journal",
              file=sys.stderr)
        return False
    return True


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments import run_bus_sweep
    if not _check_resume(args, "sweep"):
        return 2
    print(run_bus_sweep(journal_path=args.journal,
                        resume=args.resume,
                        workers=args.workers).format())
    return 0


def _cmd_robustness(args: argparse.Namespace) -> int:
    from repro.experiments import run_robustness
    if not _check_resume(args, "robustness"):
        return 2
    print(run_robustness(journal_path=args.journal,
                         resume=args.resume).format())
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.experiments import run_fault_campaign
    if not _check_resume(args, "faults"):
        return 2
    try:
        result = run_fault_campaign(
            rates=tuple(args.rates), classes=tuple(args.classes),
            seed=args.seed, layers=tuple(args.layers),
            journal_path=args.journal, resume=args.resume,
            cell_wall_seconds=args.cell_wall_seconds,
            workers=args.workers)
    except ValueError as error:
        print(f"repro faults: error: {error}", file=sys.stderr)
        return 2
    print(result.format())
    # a campaign that cannot finish its scripts is a failed campaign
    if any(cell.status != "ok" for cell in result.cells):
        return 1
    return 1 if any(cell.failures for cell in result.cells) else 0


def _cmd_tear(args: argparse.Namespace) -> int:
    from repro.experiments import run_tear_campaign
    if not _check_resume(args, "tear"):
        return 2
    try:
        result = run_tear_campaign(
            points=args.points, transactions=args.transactions,
            seed=args.seed, layers=tuple(args.layers),
            journal_path=args.journal, resume=args.resume,
            cell_wall_seconds=args.cell_wall_seconds,
            governor_study=not args.no_governor,
            workers=args.workers)
    except ValueError as error:
        print(f"repro tear: error: {error}", file=sys.stderr)
        return 2
    print(result.format())
    # anti-tearing that loses or half-applies a transaction — or a
    # governor that doesn't reduce brownouts — is a failed campaign
    if not result.all_consistent:
        return 1
    if result.governor and not result.governor_effective:
        return 1
    return 0


def _cmd_dpm(args: argparse.Namespace) -> int:
    from repro.experiments import run_dpm_campaign
    if not _check_resume(args, "dpm"):
        return 2
    if (args.node_nm is None) != (args.vdd is None):
        print("repro dpm: error: --node-nm and --vdd must be given "
              "together", file=sys.stderr)
        return 2
    try:
        result = run_dpm_campaign(
            traces=args.traces, transactions=args.transactions,
            seed=args.seed, policies=tuple(args.policies),
            layers=tuple(args.layers), node_nm=args.node_nm,
            vdd=args.vdd, emergency=not args.no_emergency,
            journal_path=args.journal, resume=args.resume,
            cell_wall_seconds=args.cell_wall_seconds,
            workers=args.workers)
    except ValueError as error:
        print(f"repro dpm: error: {error}", file=sys.stderr)
        return 2
    print(result.format())
    # an adaptive policy that cannot beat always-on, or an emergency
    # checkpoint that does not recover verifiably, is a failed campaign
    return 0 if result.passed else 1


def _cmd_link(args: argparse.Namespace) -> int:
    from repro.experiments import run_link_campaign
    if not _check_resume(args, "link"):
        return 2
    try:
        result = run_link_campaign(
            noise_rates=tuple(args.noise), layers=tuple(args.layers),
            dpm_modes=tuple(args.dpm), sessions=args.sessions,
            commands=args.commands, seed=args.seed,
            journal_path=args.journal, resume=args.resume,
            cell_wall_seconds=args.cell_wall_seconds,
            workers=args.workers)
    except ValueError as error:
        print(f"repro link: error: {error}", file=sys.stderr)
        return 2
    print(result.format())
    # a session that hangs, leaks energy, or blows its retry budget —
    # or a clean baseline that still retransmits — is a failed campaign
    return 0 if result.passed else 1


def _cmd_fabric(args: argparse.Namespace) -> int:
    from repro.experiments import run_fabric_campaign
    if not _check_resume(args, "fabric"):
        return 2
    try:
        result = run_fabric_campaign(
            topologies=tuple(args.topologies), layers=tuple(args.layers),
            commands=args.commands, seed=args.seed,
            journal_path=args.journal, resume=args.resume,
            cell_wall_seconds=args.cell_wall_seconds,
            workers=args.workers)
    except ValueError as error:
        print(f"repro fabric: error: {error}", file=sys.stderr)
        return 2
    print(result.format())
    # per-link books that do not telescope exactly to the probe total
    # — or a flat topology that drifts from the legacy card — is a
    # failed campaign
    return 0 if result.passed else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    if args.replay:
        return _chaos_replay(args.replay)
    from repro.experiments import run_chaos_campaign
    if not _check_resume(args, "chaos"):
        return 2
    try:
        result = run_chaos_campaign(
            scenarios=args.scenarios, seed=args.seed,
            journal_path=args.journal, resume=args.resume,
            cell_wall_seconds=args.cell_wall_seconds,
            workers=args.workers, selftest=not args.no_selftest)
    except ValueError as error:
        print(f"repro chaos: error: {error}", file=sys.stderr)
        return 2
    print(result.format())
    if args.repro_out and result.selftest is not None \
            and result.selftest.status == "ok":
        with open(args.repro_out, "w", encoding="utf-8") as handle:
            json.dump({"signature": result.selftest.signature,
                       "original": result.selftest.original,
                       "minimal": result.selftest.minimal},
                      handle, indent=2)
            handle.write("\n")
        print(f"minimal repro written to {args.repro_out}")
    # a hang, an unexplained cross-layer divergence, a leaking energy
    # book or a shrink that does not replay is a failed campaign
    return 0 if result.passed else 1


def _chaos_replay(path: str) -> int:
    """Replay a shrunken repro file; exit 0 when the failure still
    reproduces (that is the replay's *purpose*), 1 when it passes."""
    from repro.chaos import ChaosScenario, run_scenario
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    for key in ("minimal", "scenario"):
        if isinstance(data, dict) and key in data:
            data = data[key]
            break
    scenario = ChaosScenario.from_dict(data)
    result = run_scenario(scenario)
    print(f"replay {scenario.name}: signature "
          f"{result.failure_signature!r}")
    for divergence in result.divergences:
        print(f"  {divergence['kind']}: {divergence['detail']}")
    return 0 if not result.passed else 1


def _cmd_vcd(args: argparse.Namespace) -> int:
    from repro.kernel import Clock, Simulator
    from repro.power import (Layer1PowerModel, SignalStateRecorder,
                             save_vcd)
    from repro.experiments.common import (CLOCK_PERIOD, characterization,
                                          fresh_memory_map,
                                          test_program_trace)
    from repro.tlm import EcBusLayer1, PipelinedMaster, run_script
    simulator = Simulator("vcd")
    clock = Clock(simulator, "clk", period=CLOCK_PERIOD)
    memory_map = fresh_memory_map()
    recorder = SignalStateRecorder()
    model = Layer1PowerModel(characterization().table, recorder=recorder)
    bus = EcBusLayer1(simulator, clock, memory_map, power_model=model)
    master = PipelinedMaster(simulator, clock, bus,
                             test_program_trace().to_script())
    run_script(simulator, master, 1_000_000, clock)
    save_vcd(recorder, args.output, clock_period_ps=CLOCK_PERIOD)
    print(f"{len(recorder)} cycles of bus waveform + energy written "
          f"to {args.output}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.experiments.common import test_program_trace
    trace = test_program_trace()
    text = trace.to_text()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"{len(trace)} transactions written to {args.output}")
    else:
        print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Energy Estimation Based on "
                    "Hierarchical Bus Models for Power-Aware Smart "
                    "Cards' (DATE 2004)")
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="all tables and figures")
    report.add_argument("--transactions", type=int, default=2_000,
                        help="Table-3 workload size")
    report.add_argument("--no-gate-level", action="store_true",
                        help="skip the slow gate-level speed row")
    report.add_argument("--csv", metavar="DIR",
                        help="also write one CSV per artefact to DIR")
    report.add_argument("--extended", action="store_true",
                        help="append the beyond-the-paper studies")
    report.set_defaults(func=_cmd_report)

    sub.add_parser("table1", help="timing accuracy"
                   ).set_defaults(func=_cmd_table1)
    sub.add_parser("table2", help="energy estimation accuracy"
                   ).set_defaults(func=_cmd_table2)

    table3 = sub.add_parser("table3", help="simulation performance")
    table3.add_argument("--transactions", type=int, default=2_000)
    table3.add_argument("--no-gate-level", action="store_true")
    table3.set_defaults(func=_cmd_table3)

    def add_workers(command: argparse.ArgumentParser,
                    what: str = "sweep cells") -> None:
        command.add_argument(
            "--workers", type=int, default=1, metavar="N",
            help=f"shard {what} over N worker processes; results are "
                 f"byte-identical to a serial run")

    figure6 = sub.add_parser("figure6", help="energy sampling profile")
    add_workers(figure6, what="the two layer runs")
    figure6.set_defaults(func=_cmd_figure6)
    sub.add_parser("casestudy", help="java card HW/SW exploration"
                   ).set_defaults(func=_cmd_casestudy)

    coproc = sub.add_parser("coprocessor",
                            help="crypto HW/SW interface study")
    coproc.add_argument("--blocks", type=int, default=4)
    coproc.set_defaults(func=_cmd_coprocessor)

    characterize = sub.add_parser(
        "characterize", help="run the power characterisation flow")
    characterize.add_argument("--seed", type=int, default=2004)
    characterize.add_argument("-o", "--output",
                              help="write the table as JSON")
    characterize.set_defaults(func=_cmd_characterize)

    trace = sub.add_parser("trace",
                           help="dump the test program's bus trace")
    trace.add_argument("-o", "--output", help="write to a file")
    trace.set_defaults(func=_cmd_trace)

    def add_supervision(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--journal", metavar="PATH",
            help="checkpoint finished sweep cells to a JSONL journal")
        command.add_argument(
            "--resume", action="store_true",
            help="replay cells already in --journal instead of "
                 "re-running them")

    sweep = sub.add_parser(
        "sweep", help="fetch-path (burst x line-buffer) sweep")
    add_supervision(sweep)
    add_workers(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    robustness = sub.add_parser(
        "robustness",
        help="accuracy errors across workload classes")
    add_supervision(robustness)
    robustness.set_defaults(func=_cmd_robustness)

    faults = sub.add_parser(
        "faults",
        help="fault-injection campaign: recovery cost per layer")
    faults.add_argument("--rates", type=float, nargs="+",
                        default=[0.0, 0.02, 0.05, 0.1],
                        help="fault rates to sweep (0 is the baseline)")
    faults.add_argument("--classes", nargs="+",
                        default=["random_mix", "burst_heavy",
                                 "eeprom_contention"],
                        help="robustness workload classes to replay")
    faults.add_argument("--layers", nargs="+",
                        default=["layer1", "layer2", "gate-level"],
                        choices=["layer1", "layer2", "gate-level"],
                        help="bus models to run each cell on")
    faults.add_argument("--seed", default=2004,
                        help="campaign seed (any int or string)")
    faults.add_argument("--cell-wall-seconds", type=float,
                        default=None,
                        help="wall-clock budget per sweep cell; a cell "
                             "exceeding it degrades instead of hanging "
                             "the campaign")
    add_supervision(faults)
    add_workers(faults)
    faults.set_defaults(func=_cmd_faults)

    tear = sub.add_parser(
        "tear",
        help="tear campaign: anti-tearing consistency and recovery "
             "cost under whole-card power loss")
    tear.add_argument("--points", type=int, default=100,
                      help="seeded tear points per bus layer")
    tear.add_argument("--transactions", type=int, default=12,
                      help="journaled transactions in the workload")
    tear.add_argument("--layers", nargs="+",
                      default=["layer1", "layer2", "gate-level"],
                      choices=["layer1", "layer2", "gate-level"],
                      help="bus models to sweep the tear grid on")
    tear.add_argument("--seed", default=2004,
                      help="campaign seed (any int or string)")
    tear.add_argument("--no-governor", action="store_true",
                      help="skip the energy-governor sub-study")
    tear.add_argument("--cell-wall-seconds", type=float, default=None,
                      help="wall-clock budget per sweep cell; a cell "
                           "exceeding it degrades instead of hanging "
                           "the campaign")
    add_supervision(tear)
    add_workers(tear)
    tear.set_defaults(func=_cmd_tear)

    dpm = sub.add_parser(
        "dpm",
        help="dynamic power management campaign: adaptive policies vs "
             "always-on, plus the emergency-checkpoint study")
    dpm.add_argument("--traces", type=int, default=3,
                     help="seeded supply traces (harvest rates)")
    dpm.add_argument("--transactions", type=int, default=8,
                     help="journaled transactions in the workload")
    dpm.add_argument("--policies", nargs="+",
                     default=["always_on", "fixed_timeout",
                              "history_predictive", "budget_aware"],
                     choices=["always_on", "fixed_timeout",
                              "history_predictive", "budget_aware"],
                     help="DPM policies to run (always_on is the "
                          "baseline the verdict compares against)")
    dpm.add_argument("--layers", nargs="+",
                     default=["layer1", "layer2"],
                     choices=["layer1", "layer2"],
                     help="bus models to run the grid on")
    dpm.add_argument("--seed", default=2004,
                     help="campaign seed (any int or string)")
    dpm.add_argument("--node-nm", type=float, default=None,
                     help="calibrate the characterisation table at "
                          "this process node (with --vdd)")
    dpm.add_argument("--vdd", type=float, default=None,
                     help="calibrate the characterisation table at "
                          "this supply voltage (with --node-nm)")
    dpm.add_argument("--no-emergency", action="store_true",
                     help="skip the emergency-checkpoint study")
    dpm.add_argument("--cell-wall-seconds", type=float, default=None,
                     help="wall-clock budget per sweep cell; a cell "
                          "exceeding it degrades instead of hanging "
                          "the campaign")
    add_supervision(dpm)
    add_workers(dpm)
    dpm.set_defaults(func=_cmd_dpm)

    link = sub.add_parser(
        "link",
        help="T=1 link campaign: noisy-channel APDU transport with "
             "bounded retransmission and energy-attributed recovery")
    link.add_argument("--noise", type=float, nargs="+",
                      default=[0.0, 0.01, 0.03],
                      help="per-byte corruption rates (0 is the "
                           "baseline that must stay retransmission-"
                           "free)")
    link.add_argument("--layers", nargs="+",
                      default=["layer1", "layer2"],
                      choices=["layer1", "layer2"],
                      help="bus models to price recovery energy on")
    link.add_argument("--dpm", nargs="+", default=["off", "on"],
                      choices=["off", "on"],
                      help="run with/without the DPM power stack (a "
                           "clock-gated receiver loses wire bytes)")
    link.add_argument("--sessions", type=int, default=4,
                      help="T=1 sessions per grid cell")
    link.add_argument("--commands", type=int, default=6,
                      help="APDU commands per session")
    link.add_argument("--seed", default=2004,
                      help="campaign seed (any int or string)")
    link.add_argument("--cell-wall-seconds", type=float, default=None,
                      help="wall-clock budget per sweep cell; a cell "
                           "exceeding it degrades instead of hanging "
                           "the campaign")
    add_supervision(link)
    add_workers(link, what="grid cells")
    link.set_defaults(func=_cmd_link)

    fabric = sub.add_parser(
        "fabric",
        help="routable-fabric campaign: flat vs bridged topology under "
             "APDU + DMA traffic with exact per-link energy books")
    fabric.add_argument("--topologies", nargs="+",
                        default=["flat", "bridged"],
                        choices=["flat", "bridged"],
                        help="bus topologies to run the grid on")
    fabric.add_argument("--layers", nargs="+",
                        default=["layer1", "layer2", "layer3"],
                        choices=["layer1", "layer2", "layer3"],
                        help="abstraction layers to route on")
    fabric.add_argument("--commands", type=int, default=8,
                        help="APDU commands in the session workload")
    fabric.add_argument("--seed", default=2004,
                        help="campaign seed (any int or string)")
    fabric.add_argument("--cell-wall-seconds", type=float, default=None,
                        help="wall-clock budget per sweep cell; a cell "
                             "exceeding it degrades instead of hanging "
                             "the campaign")
    add_supervision(fabric)
    add_workers(fabric, what="grid cells")
    fabric.set_defaults(func=_cmd_fabric)

    chaos = sub.add_parser(
        "chaos",
        help="chaos campaign: seeded fabric-fault scenarios checked "
             "by a cross-layer differential oracle, with a "
             "self-shrinking repro of any failure")
    chaos.add_argument("--scenarios", type=int, default=25,
                       help="number of generated scenarios to run")
    chaos.add_argument("--seed", default=7,
                       help="campaign seed (any int or string)")
    chaos.add_argument("--no-selftest", action="store_true",
                       help="skip the injected-failure shrinker "
                            "self-test cell")
    chaos.add_argument("--replay", metavar="FILE",
                       help="replay a shrunken repro JSON file instead "
                            "of running the campaign (exit 0 when the "
                            "failure reproduces)")
    chaos.add_argument("--repro-out", metavar="FILE",
                       help="write the self-test's minimal repro as "
                            "replayable JSON")
    chaos.add_argument("--cell-wall-seconds", type=float, default=None,
                       help="wall-clock budget per scenario cell; a "
                            "cell exceeding it degrades instead of "
                            "hanging the campaign")
    add_supervision(chaos)
    add_workers(chaos, what="scenario cells")
    chaos.set_defaults(func=_cmd_chaos)

    vcd = sub.add_parser(
        "vcd", help="dump the test program's bus waveform as VCD")
    vcd.add_argument("-o", "--output", default="bus.vcd")
    vcd.set_defaults(func=_cmd_vcd)
    return parser


def main(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
