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
    print(run_figure6().format())
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


def _run_campaign(args: argparse.Namespace,
                  runner: typing.Callable[..., typing.Any],
                  after: typing.Optional[typing.Callable[[typing.Any],
                                                         None]] = None,
                  **kwargs: typing.Any) -> int:
    """Run one supervised campaign with the options
    :func:`add_campaign_options` added to *args*.

    A ``ValueError`` (a bad axis, ``--resume`` without ``--journal``)
    exits 2 with a clean message; otherwise the report is printed and
    the campaign's ``passed`` verdict decides between exit 0 and 1.
    *after* sees the result once its report is out.
    """
    for name in ("seed", "cell_wall_seconds", "workers"):
        if hasattr(args, name):
            kwargs[name] = getattr(args, name)
    try:
        result = runner(journal_path=args.journal, resume=args.resume,
                        **kwargs)
    except ValueError as error:
        print(f"repro {args.command}: error: {error}", file=sys.stderr)
        return 2
    print(result.format())
    if after is not None:
        after(result)
    return 0 if result.passed else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments import run_bus_sweep
    return _run_campaign(args, run_bus_sweep)


def _cmd_robustness(args: argparse.Namespace) -> int:
    from repro.experiments import run_robustness
    return _run_campaign(args, run_robustness)


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.experiments import run_fault_campaign
    return _run_campaign(args, run_fault_campaign,
                         rates=tuple(args.rates),
                         classes=tuple(args.classes),
                         layers=tuple(args.layers))


def _cmd_tear(args: argparse.Namespace) -> int:
    from repro.experiments import run_tear_campaign
    return _run_campaign(args, run_tear_campaign, points=args.points,
                         transactions=args.transactions,
                         layers=tuple(args.layers),
                         governor_study=not args.no_governor)


def _cmd_dpm(args: argparse.Namespace) -> int:
    from repro.experiments import run_dpm_campaign
    return _run_campaign(args, run_dpm_campaign, traces=args.traces,
                         transactions=args.transactions,
                         policies=tuple(args.policies),
                         layers=tuple(args.layers), node_nm=args.node_nm,
                         vdd=args.vdd, emergency=not args.no_emergency)


def _cmd_link(args: argparse.Namespace) -> int:
    from repro.experiments import run_link_campaign
    return _run_campaign(args, run_link_campaign,
                         noise_rates=tuple(args.noise),
                         layers=tuple(args.layers),
                         dpm_modes=tuple(args.dpm),
                         sessions=args.sessions, commands=args.commands)


def _cmd_fabric(args: argparse.Namespace) -> int:
    from repro.experiments import run_fabric_campaign
    return _run_campaign(args, run_fabric_campaign,
                         topologies=tuple(args.topologies),
                         layers=tuple(args.layers),
                         commands=args.commands)


def _cmd_chaos(args: argparse.Namespace) -> int:
    if args.replay:
        return _chaos_replay(args.replay)
    from repro.experiments import run_chaos_campaign

    def write_repro(result) -> None:
        if not args.repro_out or result.selftest is None \
                or result.selftest.status != "ok":
            return
        # sorted keys: a resumed payload comes back from the journal
        # key-sorted, and the file must not depend on which path ran
        with open(args.repro_out, "w", encoding="utf-8") as handle:
            json.dump({"signature": result.selftest.signature,
                       "original": result.selftest.original,
                       "minimal": result.selftest.minimal},
                      handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"minimal repro written to {args.repro_out}")

    return _run_campaign(args, run_chaos_campaign, after=write_repro,
                         scenarios=args.scenarios,
                         selftest=not args.no_selftest)


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


def add_campaign_options(command: argparse.ArgumentParser,
                         seed: typing.Union[int, str, None] = None,
                         wall: bool = False,
                         workers: bool = True) -> None:
    """The supervised-campaign options :func:`_run_campaign` reads:
    ``--journal``/``--resume`` always, ``--seed`` when the campaign
    has a *seed* default, ``--cell-wall-seconds`` when its cells take
    a *wall* budget, ``--workers`` unless it runs serially only."""
    if seed is not None:
        command.add_argument("--seed", default=seed,
                             help="campaign seed (any int or string)")
    if wall:
        command.add_argument(
            "--cell-wall-seconds", type=float, default=None,
            help="wall-clock budget per sweep cell; a cell exceeding "
                 "it degrades instead of hanging the campaign")
    command.add_argument(
        "--journal", metavar="PATH",
        help="checkpoint finished sweep cells to a JSONL journal")
    command.add_argument(
        "--resume", action="store_true",
        help="replay cells already in --journal instead of "
             "re-running them")
    if workers:
        command.add_argument(
            "--workers", type=int, default=1, metavar="N",
            help="shard the cells over N worker processes; results "
                 "are byte-identical to a serial run")


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

    sub.add_parser("figure6", help="energy sampling profile"
                   ).set_defaults(func=_cmd_figure6)
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

    sweep = sub.add_parser(
        "sweep", help="fetch-path (burst x line-buffer) sweep")
    add_campaign_options(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    robustness = sub.add_parser(
        "robustness",
        help="accuracy errors across workload classes")
    add_campaign_options(robustness, workers=False)
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
    add_campaign_options(faults, seed=2004, wall=True)
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
    tear.add_argument("--no-governor", action="store_true",
                      help="skip the energy-governor sub-study")
    add_campaign_options(tear, seed=2004, wall=True)
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
    dpm.add_argument("--node-nm", type=float, default=None,
                     help="calibrate the characterisation table at "
                          "this process node (with --vdd)")
    dpm.add_argument("--vdd", type=float, default=None,
                     help="calibrate the characterisation table at "
                          "this supply voltage (with --node-nm)")
    dpm.add_argument("--no-emergency", action="store_true",
                     help="skip the emergency-checkpoint study")
    add_campaign_options(dpm, seed=2004, wall=True)
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
    add_campaign_options(link, seed=2004, wall=True)
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
    add_campaign_options(fabric, seed=2004, wall=True)
    fabric.set_defaults(func=_cmd_fabric)

    chaos = sub.add_parser(
        "chaos",
        help="chaos campaign: seeded fabric-fault scenarios checked "
             "by a cross-layer differential oracle, with a "
             "self-shrinking repro of any failure")
    chaos.add_argument("--scenarios", type=int, default=25,
                       help="number of generated scenarios to run")
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
    add_campaign_options(chaos, seed=7)
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
