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
    from repro.experiments.report import (full_report, run_extended,
                                          run_paper)
    # one run of each experiment feeds both the text and the CSVs
    paper = run_paper(transactions=args.transactions,
                      include_gate_level=not args.no_gate_level)
    studies = run_extended() if args.extended else ()
    print(full_report(paper, studies))
    if args.csv:
        from repro.experiments.export import write_csv_reports
        paths = write_csv_reports(args.csv, paper)
        print(f"\nCSV results written: "
              f"{', '.join(str(p) for p in paths)}")
    return 0 if all(result.passed for result in (*paper, *studies)) else 1


def _run(args: argparse.Namespace,
         after: typing.Optional[typing.Callable[[typing.Any],
                                                None]] = None) -> int:
    """Run ``repro.experiments.<args.runner>`` with the options given on
    the command line and print its report.

    Every argparse destination is named like a runner parameter
    (``--journal`` is ``journal_path``); only the options whose value
    is not ``None`` reach the runner (a list as a tuple), so the runner
    owns its defaults and checks its axes.  A ``ValueError`` (a bad
    axis, ``--resume`` without ``--journal``) exits 2 with a clean
    message; otherwise the report is printed and its checks decide
    between exit 0 and 1.  *after* sees the result once its report is
    out.
    """
    import repro.experiments
    options = {("journal_path" if name == "journal" else name):
               tuple(value) if isinstance(value, list) else value
               for name, value in vars(args).items()
               if value is not None
               and name not in ("command", "func", "runner")}
    try:
        result = getattr(repro.experiments, args.runner)(**options)
    except ValueError as error:
        print(f"repro {args.command}: error: {error}", file=sys.stderr)
        return 2
    print(result.format())
    if after is not None:
        after(result)
    return 0 if result.passed else 1


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


def _cmd_chaos(args: argparse.Namespace) -> int:
    # the two options that are not the campaign's own
    options = vars(args)
    replay, repro_out = options.pop("replay"), options.pop("repro_out")
    if replay:
        return _chaos_replay(replay)

    def write_repro(result) -> None:
        if not repro_out or result.selftest is None \
                or result.selftest.status != "ok":
            return
        # sorted keys: a resumed payload comes back from the journal
        # key-sorted, and the file must not depend on which path ran
        with open(repro_out, "w", encoding="utf-8") as handle:
            json.dump({"signature": result.selftest.signature,
                       "original": result.selftest.original,
                       "minimal": result.selftest.minimal},
                      handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"minimal repro written to {repro_out}")

    return _run(args, after=write_repro)


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
    from repro.power import SignalStateRecorder, save_vcd
    from repro.experiments.common import (characterization,
                                          test_program_trace)
    from repro.soc.layers import build_bus
    from repro.soc.smartcard import fresh_memory_map
    from repro.tlm import PipelinedMaster, run_script
    recorder = SignalStateRecorder()
    layer_bus = build_bus("layer1", None, None, fresh_memory_map(),
                          characterization().table, recorder=recorder)
    simulator, clock = layer_bus.simulator, layer_bus.clock
    master = PipelinedMaster(simulator, clock, layer_bus.bus,
                             test_program_trace().to_script())
    run_script(simulator, master, 1_000_000, clock)
    save_vcd(recorder, args.output, clock_period_ps=clock.period)
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
                         seed: bool = False,
                         wall: bool = False,
                         workers: bool = True) -> None:
    """The supervised-campaign options :func:`_run` passes on:
    ``--journal``/``--resume`` always, ``--seed`` when the campaign is
    *seed*-ed, ``--cell-wall-seconds`` when its cells take a *wall*
    budget, ``--workers`` unless it runs serially only."""
    if seed:
        command.add_argument("--seed",
                             help="campaign seed (any int or string; "
                                  "default: the campaign's)")
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
                   ).set_defaults(func=_run, runner="run_table1")
    sub.add_parser("table2", help="energy estimation accuracy"
                   ).set_defaults(func=_run, runner="run_table2")

    table3 = sub.add_parser("table3", help="simulation performance")
    table3.add_argument("--transactions", type=int, default=2_000)
    table3.add_argument("--no-gate-level", dest="include_gate_level",
                        action="store_false")
    table3.set_defaults(func=_run, runner="run_table3")

    sub.add_parser("figure6", help="energy sampling profile"
                   ).set_defaults(func=_run, runner="run_figure6")
    sub.add_parser("casestudy", help="java card HW/SW exploration"
                   ).set_defaults(func=_run, runner="run_casestudy")

    coproc = sub.add_parser("coprocessor",
                            help="crypto HW/SW interface study")
    coproc.add_argument("--blocks", type=int, default=4)
    coproc.set_defaults(func=_run, runner="run_coprocessor_study")

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
    sweep.set_defaults(func=_run, runner="run_bus_sweep")

    robustness = sub.add_parser(
        "robustness",
        help="accuracy errors across workload classes")
    add_campaign_options(robustness, workers=False)
    robustness.set_defaults(func=_run, runner="run_robustness")

    # each campaign owns its grid's vocabulary and defaults (and
    # checks the axes); naming them here would restate them and load
    # the campaign on every parse
    faults = sub.add_parser(
        "faults",
        help="fault-injection campaign: recovery cost per layer")
    faults.add_argument("--rates", type=float, nargs="+",
                        help="fault rates to sweep (0 is the baseline)")
    faults.add_argument("--classes", nargs="+",
                        help="robustness workload classes to replay")
    faults.add_argument("--layers", nargs="+",
                        help="bus models to run each cell on")
    add_campaign_options(faults, seed=True, wall=True)
    faults.set_defaults(func=_run, runner="run_fault_campaign")

    tear = sub.add_parser(
        "tear",
        help="tear campaign: anti-tearing consistency and recovery "
             "cost under whole-card power loss")
    tear.add_argument("--points", type=int,
                      help="seeded tear points per bus layer")
    tear.add_argument("--transactions", type=int,
                      help="journaled transactions in the workload")
    tear.add_argument("--layers", nargs="+",
                      help="bus models to sweep the tear grid on")
    tear.add_argument("--no-governor", dest="governor_study",
                      action="store_false", default=None,
                      help="skip the energy-governor sub-study")
    add_campaign_options(tear, seed=True, wall=True)
    tear.set_defaults(func=_run, runner="run_tear_campaign")

    dpm = sub.add_parser(
        "dpm",
        help="dynamic power management campaign: adaptive policies vs "
             "always-on, plus the emergency-checkpoint study")
    dpm.add_argument("--traces", type=int,
                     help="seeded supply traces (harvest rates)")
    dpm.add_argument("--transactions", type=int,
                     help="journaled transactions in the workload")
    dpm.add_argument("--policies", nargs="+",
                     help="DPM policies to run (always_on is the "
                          "baseline the verdict compares against)")
    dpm.add_argument("--layers", nargs="+",
                     help="bus models to run the grid on")
    dpm.add_argument("--node-nm", type=float,
                     help="calibrate the characterisation table at "
                          "this process node (with --vdd)")
    dpm.add_argument("--vdd", type=float,
                     help="calibrate the characterisation table at "
                          "this supply voltage (with --node-nm)")
    dpm.add_argument("--no-emergency", dest="emergency",
                     action="store_false", default=None,
                     help="skip the emergency-checkpoint study")
    add_campaign_options(dpm, seed=True, wall=True)
    dpm.set_defaults(func=_run, runner="run_dpm_campaign")

    link = sub.add_parser(
        "link",
        help="T=1 link campaign: noisy-channel APDU transport with "
             "bounded retransmission and energy-attributed recovery")
    link.add_argument("--noise", dest="noise_rates", metavar="NOISE",
                      type=float, nargs="+",
                      help="per-byte corruption rates (0 is the "
                           "baseline that must stay retransmission-"
                           "free)")
    link.add_argument("--layers", nargs="+",
                      help="bus models to price recovery energy on")
    link.add_argument("--dpm", dest="dpm_modes", metavar="DPM",
                      nargs="+",
                      help="run with (on) and/or without (off) the DPM "
                           "power stack (a clock-gated receiver loses "
                           "wire bytes)")
    link.add_argument("--sessions", type=int,
                      help="T=1 sessions per grid cell")
    link.add_argument("--commands", type=int,
                      help="APDU commands per session")
    add_campaign_options(link, seed=True, wall=True)
    link.set_defaults(func=_run, runner="run_link_campaign")

    fabric = sub.add_parser(
        "fabric",
        help="routable-fabric campaign: flat vs bridged topology under "
             "APDU + DMA traffic with exact per-link energy books")
    fabric.add_argument("--topologies", nargs="+",
                        help="bus topologies to run the grid on")
    fabric.add_argument("--layers", nargs="+",
                        help="abstraction layers to route on")
    fabric.add_argument("--commands", type=int,
                        help="APDU commands in the session workload")
    add_campaign_options(fabric, seed=True, wall=True)
    fabric.set_defaults(func=_run, runner="run_fabric_campaign")

    chaos = sub.add_parser(
        "chaos",
        help="chaos campaign: seeded fabric-fault scenarios checked "
             "by a cross-layer differential oracle, with a "
             "self-shrinking repro of any failure")
    chaos.add_argument("--scenarios", type=int,
                       help="number of generated scenarios to run")
    chaos.add_argument("--no-selftest", dest="selftest",
                       action="store_false", default=None,
                       help="skip the injected-failure shrinker "
                            "self-test cell")
    chaos.add_argument("--replay", metavar="FILE",
                       help="replay a shrunken repro JSON file instead "
                            "of running the campaign (exit 0 when the "
                            "failure reproduces)")
    chaos.add_argument("--repro-out", metavar="FILE",
                       help="write the self-test's minimal repro as "
                            "replayable JSON")
    add_campaign_options(chaos, seed=True)
    chaos.set_defaults(func=_cmd_chaos, runner="run_chaos_campaign")

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
