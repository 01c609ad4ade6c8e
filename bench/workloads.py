"""The four benchmark workloads, driven through public repro exports.

Each workload turns ``(run_seed, index)`` into one job: it builds the
job's inputs from the seed, runs them, checks the outputs and returns
a :class:`JobResult`.  Spans opened on the tracer wrap the calls into
each layer; with a disabled tracer they cost nothing measurable.

* ``ladder`` — the paper's speed/accuracy ladder: one Table-3 script
  replayed on TL layer 1, TL layer 2, layer 3 and (a prefix) on gate
  level.  Kernel fast lane, deferred energy accounting; no watchdog,
  peripherals, fabric or pool.
* ``card_session`` — one T=1 APDU session over the modelled UART with
  a noisy wire and DPM on.  Mostly UART-paced idle cycles; the power
  domain reads energy every cycle.
* ``chaos`` — one generated chaos scenario on layers 1/2/3: bridges,
  DMA, arbiter, DPM, faults and retry.  ``run_script`` attaches a
  watchdog there, so the kernel runs its generic loop.
* ``campaign`` — one fault-campaign grid over the process pool with a
  JSONL journal: the only workload where pickling, the pool and
  journal writes matter.
"""

from __future__ import annotations

import dataclasses
import os
import random
import typing

from repro.chaos import generate_scenario, run_scenario
from repro.experiments import characterization, run_fault_campaign
from repro.experiments.common import CLOCK_PERIOD
from repro.experiments.link_campaign import (DPM_POLICY, DPM_SUPPLY,
                                             DPM_THINK)
from repro.kernel import Clock, Simulator
from repro.link import NoisyChannel, run_link_session
from repro.power import (CardPowerModel, DpmController, DpmGovernor,
                         FixedTimeoutPolicy, Layer1PowerModel,
                         Layer2PowerModel, PowerDomain, PowerSupply)
from repro.power.diesel import DieselEstimator, InterfaceActivityLog
from repro.rtl import RtlBus
from repro.soc import EEPROM_BASE, RAM_BASE, SmartCardPlatform
from repro.tlm import (EcBusLayer1, EcBusLayer2, EcBusLayer3,
                       PipelinedMaster, normalise_script, run_script)
from repro.workloads import table3_script
from repro.workloads.apdu import COMMANDS

from tracing import PACKAGES, Tracer

ALL = ("ladder", "card_session", "chaos", "campaign")

#: Per-layer metric -> (end-to-end metric it should move, workloads
#: that measure it).  On any other workload the metric reads 0: the
#: workload does not enter that layer, or the layer is not observable
#: from outside there (chaos and campaign build their own simulators).
#: The counts must stay identical under any speed-only change.
LAYER_METRICS: typing.Dict[str, typing.Tuple[str, typing.Tuple[str, ...]]] = {
    **{f"{package}.self_pct": ("txns_per_s", ALL)
       for package in PACKAGES + ("other",)},
    "tlm.l1_ns_per_cycle": ("txns_per_s", ("ladder", "card_session",
                                           "chaos")),
    "tlm.l2_ns_per_cycle": ("txns_per_s", ("ladder", "chaos")),
    "tlm.l3_ns_per_txn": ("txns_per_s", ("ladder", "chaos")),
    "rtl.l0_txns_per_s": ("txns_per_s", ("ladder",)),
    "tlm.l1_txns_per_s": ("txns_per_s", ("ladder",)),
    "tlm.l2_txns_per_s": ("txns_per_s", ("ladder",)),
    "tlm.l3_txns_per_s": ("txns_per_s", ("ladder",)),
    "rtl.replay_ms": ("txns_per_s", ("ladder",)),
    "power.diesel_ms": ("txns_per_s", ("ladder",)),
    "power.l1_energy_read_ms": ("txns_per_s", ("ladder",)),
    "power.l1_estimation_pct": ("txns_per_s", ("ladder",)),
    "power.l2_estimation_pct": ("txns_per_s", ("ladder",)),
    "power.dpm_overhead_pct": ("job_p50_ms", ("card_session",)),
    "power.probe_ms": ("job_p50_ms", ("card_session",)),
    "soc.build_ms": ("job_p50_ms", ("ladder", "card_session")),
    "chaos.l1_run_ms": ("job_p50_ms", ("chaos",)),
    "chaos.l2_run_ms": ("job_p50_ms", ("chaos",)),
    "chaos.l3_run_ms": ("job_p50_ms", ("chaos",)),
    "experiments.parallel_efficiency": ("txns_per_s", ("campaign",)),
    "experiments.cells_per_s": ("txns_per_s", ("campaign",)),
    "kernel.delta_cycles": ("txns_per_s", ("ladder", "card_session")),
    "tlm.sim_cycles": ("txns_per_s", ALL),
    "tlm.txns": ("txns_per_s", ALL),
    "tlm.retries": ("txns_per_s", ("chaos", "campaign")),
    "power.transitions": ("txns_per_s", ("ladder", "card_session")),
    "fabric.crossings": ("txns_per_s", ("chaos",)),
    "link.retransmissions": ("txns_per_s", ("card_session",)),
    "bench.trace_overhead_pct": ("txns_per_s", ALL),
}

#: generous cycle ceiling for one replay; a script that needs more is
#: a stall, reported as a failed job
MAX_CYCLES = 2_000_000

_NO_TRACE = Tracer(False)


@dataclasses.dataclass
class JobResult:
    """What one job simulated, and whether its outputs checked out."""

    #: simulated bus transactions, the work behind ``txns_per_s``
    txns: int
    #: every simulated cycle count, energy and outcome of the job,
    #: compared with ``==`` and hashed via ``repr`` into ``sim_digest``;
    #: it must repeat exactly when the job is rerun
    record: typing.Any
    #: failed output checks (empty when the job is correct)
    problems: typing.List[str]
    #: per-layer counts, keyed like :data:`LAYER_METRICS`
    counts: typing.Dict[str, int]


class Workload:
    """One closed-loop job stream; subclasses define :meth:`job`."""

    name = ""
    #: jobs hashed into ``sim_digest``, whatever a run's speed
    digest_jobs = 1
    #: traced jobs per second of ``--seconds``; fixed so that a traced
    #: run's counts depend on the seed alone
    trace_rate = 1.0

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir

    def job(self, run_seed: str, index: int,
            tracer: Tracer = _NO_TRACE) -> JobResult:
        raise NotImplementedError

    def trace_job(self, run_seed: str, index: int,
                  tracer: Tracer = _NO_TRACE) -> JobResult:
        """The job as the traced run times it."""
        return self.job(run_seed, index, tracer)

    def rerun(self, run_seed: str, index: int) -> JobResult:
        """The job again, for the determinism check."""
        return self.job(run_seed, index)

    def layer_metrics(self, run_seed: str, tracer: Tracer,
                      results: typing.Sequence[JobResult]
                      ) -> typing.Dict[str, float]:
        """Per-layer timings from the traced spans and from untraced
        comparison replays of the same jobs."""
        return {}


# ----------------------------------------------------------------------
# ladder
# ----------------------------------------------------------------------

def _busy_cycles(completed) -> int:
    """Cycle span from first issue to last completion (Table 1)."""
    first = min(t.issue_cycle for t in completed)
    return max(t.data_done_cycle for t in completed) - first + 1


@dataclasses.dataclass
class _Replay:
    cycles: int
    busy: int
    txns: int
    errors: int
    energy: typing.Optional[float]
    deltas: int
    transitions: int


def _replay(layer: int, script: list, tracer: Tracer,
            estimate: bool = True) -> _Replay:
    """Replay *script* on a fresh Figure-1 memory map on *layer* (0 is
    gate level plus Diesel, 1 and 2 the timed TL layers)."""
    table = characterization().table
    with tracer.span("soc.build"):
        memory_map = SmartCardPlatform(bus_layer=1).memory_map
    simulator = Simulator(f"bench_l{layer}")
    clock = Clock(simulator, "clk", period=CLOCK_PERIOD)
    model: typing.Any = None
    if layer == 0:
        activity = InterfaceActivityLog()
        bus: typing.Any = RtlBus(simulator, clock, memory_map,
                                 activity_log=activity)
    elif layer == 1:
        model = Layer1PowerModel(table) if estimate else None
        bus = EcBusLayer1(simulator, clock, memory_map, power_model=model)
    else:
        model = Layer2PowerModel(table) if estimate else None
        bus = EcBusLayer2(simulator, clock, memory_map, power_model=model)
    for region in memory_map.regions:
        if hasattr(region.slave, "bind_cycle_source"):
            region.slave.bind_cycle_source(lambda: bus.cycle)
    master = PipelinedMaster(simulator, clock, bus, script)
    with tracer.span("rtl.replay" if layer == 0
                     else f"tlm.l{layer}_replay"):
        run_script(simulator, master, MAX_CYCLES, clock)
    energy = None
    transitions = 0
    if layer == 0:
        with tracer.span("power.diesel"):
            energy = DieselEstimator().estimate(
                activity, netlists=[bus.decoder.netlist],
                control_register_toggles=bus.control_register_toggles,
                control_flop_count=bus.control_flop_count,
                cycles=bus.cycle).total_energy_pj
    elif model is not None:
        # layer 1 defers accounting: this first read is the flush
        with tracer.span(f"power.l{layer}_energy_read"):
            if layer == 2:
                model.account_cycles(bus.cycle)
            energy = model.total_energy_pj
        if layer == 1:
            transitions = model.total_transitions()
    return _Replay(clock.cycles, _busy_cycles(master.completed),
                   len(master.completed), len(master.errors), energy,
                   simulator.delta_count, transitions)


def _replay_layer3(script: list, tracer: Tracer) -> _Replay:
    with tracer.span("soc.build"):
        memory_map = SmartCardPlatform(bus_layer=1).memory_map
    bus = EcBusLayer3(memory_map)
    items = normalise_script(script)
    with tracer.span("tlm.l3_issue"):
        for _, transaction in items:
            bus.issue(transaction)
    return _Replay(0, 0, bus.transactions_completed, bus.errors, None, 0, 0)


class Ladder(Workload):
    """One seeded Table-3 script (single/burst reads and writes over
    RAM and EEPROM) on every rung of the abstraction ladder."""

    name = "ladder"
    digest_jobs = 16
    trace_rate = 2.0
    #: transactions replayed on TL layers 1, 2 and 3
    TXNS = 300
    #: prefix replayed on gate level, and on layer 1 again to check
    #: Table 1 (cycle-exact) and Table 2 (layer 1 below gate level)
    GATE_TXNS = 30

    @staticmethod
    def _script(run_seed: str, index: int, count: int) -> list:
        return table3_script(random.Random(f"ladder/{run_seed}/{index}"),
                             count, fast_base=RAM_BASE,
                             slow_base=EEPROM_BASE)

    def job(self, run_seed, index, tracer=_NO_TRACE):
        full = self.TXNS
        prefix = self.GATE_TXNS
        l1 = _replay(1, self._script(run_seed, index, full), tracer)
        l2 = _replay(2, self._script(run_seed, index, full), tracer)
        l3 = _replay_layer3(self._script(run_seed, index, full), tracer)
        gate = _replay(0, self._script(run_seed, index, prefix), tracer)
        l1_prefix = _replay(1, self._script(run_seed, index, prefix),
                            tracer)
        problems = []
        for rung, replay, want in (("layer 1", l1, full),
                                   ("layer 2", l2, full),
                                   ("layer 3", l3, full),
                                   ("gate level", gate, prefix),
                                   ("layer 1 prefix", l1_prefix, prefix)):
            if replay.txns != want or replay.errors:
                problems.append(f"{rung}: {replay.txns}/{want} txns, "
                                f"{replay.errors} errors")
        if l1_prefix.busy != gate.busy:
            problems.append(f"layer 1 took {l1_prefix.busy} cycles, gate "
                            f"level {gate.busy}")
        if not 0 < l1_prefix.energy < gate.energy:
            problems.append(f"layer 1 energy {l1_prefix.energy} pJ not "
                            f"below gate level {gate.energy} pJ")
        timed = (l1, l2, gate, l1_prefix)
        return JobResult(
            txns=sum(r.txns for r in timed) + l3.txns,
            record={"layer1": l1, "layer2": l2, "layer3": l3,
                    "gate": gate, "layer1_prefix": l1_prefix},
            problems=problems,
            counts={
                "kernel.delta_cycles": sum(r.deltas for r in timed),
                "tlm.sim_cycles": sum(r.cycles for r in timed),
                "tlm.txns": sum(r.txns for r in timed) + l3.txns,
                "power.transitions": l1.transitions + l1_prefix.transitions,
            })

    def layer_metrics(self, run_seed, tracer, results):
        jobs = len(results)
        rungs = [result.record for result in results]
        l1_cycles = sum(r["layer1"].cycles + r["layer1_prefix"].cycles
                        for r in rungs)
        l2_cycles = sum(r["layer2"].cycles for r in rungs)
        l3_txns = sum(r["layer3"].txns for r in rungs)

        def per_s(txns: int, *span_names: str) -> float:
            """Transactions per second of the named spans' time."""
            return txns * 1e3 / sum(tracer.total_ms(span)
                                    for span in span_names)

        metrics = {
            # Table 3's ladder: each rung's replay plus its energy
            # estimate
            "rtl.l0_txns_per_s": per_s(sum(r["gate"].txns for r in rungs),
                                       "rtl.replay", "power.diesel"),
            "tlm.l1_txns_per_s": per_s(
                sum(r["layer1"].txns + r["layer1_prefix"].txns
                    for r in rungs),
                "tlm.l1_replay", "power.l1_energy_read"),
            "tlm.l2_txns_per_s": per_s(sum(r["layer2"].txns for r in rungs),
                                       "tlm.l2_replay",
                                       "power.l2_energy_read"),
            "tlm.l3_txns_per_s": per_s(l3_txns, "tlm.l3_issue"),
            "tlm.l1_ns_per_cycle":
                tracer.total_ms("tlm.l1_replay") * 1e6 / l1_cycles,
            "tlm.l2_ns_per_cycle":
                tracer.total_ms("tlm.l2_replay") * 1e6 / l2_cycles,
            "tlm.l3_ns_per_txn":
                tracer.total_ms("tlm.l3_issue") * 1e6 / l3_txns,
            "rtl.replay_ms": tracer.total_ms("rtl.replay") / jobs,
            "power.diesel_ms": tracer.total_ms("power.diesel") / jobs,
            "power.l1_energy_read_ms":
                tracer.total_ms("power.l1_energy_read") / jobs,
            "soc.build_ms": tracer.total_ms("soc.build") / jobs,
        }
        # Table 3's two columns: the same replays with and without a
        # power model, untraced apart from the spans being compared
        spans = Tracer(True)
        for index in range(jobs):
            for layer in (1, 2):
                for estimate in (True, False):
                    with spans.span(f"l{layer}/{estimate}"):
                        _replay(layer, self._script(run_seed, index,
                                                    self.TXNS),
                                _NO_TRACE, estimate)
        for layer in (1, 2):
            ratio = (spans.total_ms(f"l{layer}/True")
                     / spans.total_ms(f"l{layer}/False"))
            metrics[f"power.l{layer}_estimation_pct"] = 100.0 * (ratio - 1)
        return metrics


# ----------------------------------------------------------------------
# card_session
# ----------------------------------------------------------------------

class CardSession(Workload):
    """One T=1 session (``select`` + 3 seeded commands) on layer 1 over
    a 1%-noisy wire, with the link campaign's DPM stack."""

    name = "card_session"
    digest_jobs = 8
    trace_rate = 1.2
    COMMANDS = 3
    NOISE = 0.01

    def session(self, run_seed: str, index: int, tracer: Tracer,
                dpm: bool = True) -> JobResult:
        seed = f"card/{run_seed}/{index}"
        table = characterization().table
        with tracer.span("soc.build"):
            model = Layer1PowerModel(table)
            platform = SmartCardPlatform(bus_layer=1, power_model=model)
            composite = CardPowerModel(model,
                                       ledgers=platform.energy_ledgers())
            if dpm:
                supply = PowerSupply(composite, **DPM_SUPPLY)
                PowerDomain(platform.simulator, platform.clock,
                            platform.bus, supply, halt_on_power_loss=False)
                governor = DpmGovernor(
                    supply, table, policy=FixedTimeoutPolicy(**DPM_POLICY))
                for psm in platform.attach_dpm(governor).values():
                    composite.add_ledger(psm)
                DpmController(platform.simulator, platform.clock, governor)
        mix_rng = random.Random(f"{seed}/mix")
        commands = ["select"] + [mix_rng.choice(COMMANDS[1:])
                                 for _ in range(self.COMMANDS)]

        def probe() -> float:
            with tracer.span("power.probe"):
                return composite.total_energy_pj

        with tracer.span("link.session"):
            report = run_link_session(
                platform, commands, seed=seed,
                channel=NoisyChannel(self.NOISE, seed=f"{seed}/chan"),
                energy_probe=probe, think_range=DPM_THINK)
        problems = []
        if report.outcome not in ("complete", "degraded"):
            problems.append(f"session {seed} ended {report.outcome}")
        if not report.accounted:
            problems.append(f"session {seed} energy books unbalanced "
                            f"({report.unaccounted_pj} pJ)")
        txns = platform.bus.transactions_completed
        retransmissions = (report.host_retransmissions
                           + report.card_retransmissions)
        return JobResult(
            txns=txns,
            record=(report.outcome, report.cycles, txns,
                    report.commands_completed, report.session_retries,
                    retransmissions, repr(report.total_energy_pj),
                    repr(report.clean_energy_pj)),
            problems=problems,
            counts={
                "kernel.delta_cycles": platform.simulator.delta_count,
                "tlm.sim_cycles": platform.clock.cycles,
                "tlm.txns": txns,
                "power.transitions": model.total_transitions(),
                "link.retransmissions": retransmissions,
            })

    def job(self, run_seed, index, tracer=_NO_TRACE):
        return self.session(run_seed, index, tracer)

    def layer_metrics(self, run_seed, tracer, results):
        jobs = len(results)
        cycles = sum(r.counts["tlm.sim_cycles"] for r in results)
        metrics = {
            "tlm.l1_ns_per_cycle":
                tracer.total_ms("link.session") * 1e6 / cycles,
            "power.probe_ms": tracer.total_ms("power.probe") / jobs,
            "soc.build_ms": tracer.total_ms("soc.build") / jobs,
        }
        # the same sessions with DPM off, per simulated cycle (gated
        # receivers lose bytes, so DPM also changes the cycle count);
        # on and off alternate, so both see the same host speed
        spans = {True: Tracer(True), False: Tracer(True)}
        cycles = {True: 0, False: 0}
        for index in range(max(1, jobs // 2)):
            for dpm in (True, False):
                cycles[dpm] += self.session(
                    run_seed, index, spans[dpm], dpm).counts["tlm.sim_cycles"]
        on, off = (spans[dpm].total_ms("link.session") / cycles[dpm]
                   for dpm in (True, False))
        metrics["power.dpm_overhead_pct"] = 100.0 * (on / off - 1)
        return metrics


# ----------------------------------------------------------------------
# chaos
# ----------------------------------------------------------------------

def _run_record(run) -> tuple:
    return (run.layer, run.hang, run.cycles, run.transactions, run.errors,
            run.retries, run.crossings_read, run.crossings_write,
            repr(run.probe_total_pj), run.digest,
            tuple(tuple(outcome) for outcome in run.outcomes))


class Chaos(Workload):
    """One generated chaos scenario through the cross-layer oracle."""

    name = "chaos"
    digest_jobs = 32
    trace_rate = 5.0

    @staticmethod
    def scenario(run_seed: str, index: int):
        return generate_scenario(f"bench/{run_seed}", index)

    def job(self, run_seed, index, tracer=_NO_TRACE):
        scenario = self.scenario(run_seed, index)
        with tracer.span("chaos.scenario"):
            result = run_scenario(scenario)
        problems = ([] if result.passed else
                    [f"{scenario.name}: {result.failure_signature}"])
        runs = result.layers
        return JobResult(
            txns=sum(run.transactions for run in runs),
            record=(result.failure_signature,)
            + tuple(_run_record(run) for run in runs),
            problems=problems,
            counts={
                "tlm.sim_cycles": sum(run.cycles for run in runs),
                "tlm.txns": sum(run.transactions for run in runs),
                "tlm.retries": sum(run.retries for run in runs),
                "fabric.crossings": sum(run.crossings_read
                                        + run.crossings_write
                                        for run in runs),
            })

    def layer_metrics(self, run_seed, tracer, results):
        # single-layer oracle runs of the same scenarios: what each
        # layer costs on the watchdog-guarded generic kernel loop
        spans = Tracer(True)
        work = {"layer1": 0, "layer2": 0, "layer3": 0}
        jobs = max(1, len(results) // 2)
        for index in range(jobs):
            scenario = self.scenario(run_seed, index)
            for layer in work:
                with spans.span(layer):
                    run = run_scenario(scenario, layers=(layer,)).layers[0]
                work[layer] += (run.transactions if layer == "layer3"
                                else run.cycles)
        metrics = {f"chaos.l{n}_run_ms": spans.total_ms(f"layer{n}") / jobs
                   for n in (1, 2, 3)}
        metrics["tlm.l1_ns_per_cycle"] = (spans.total_ms("layer1") * 1e6
                                          / work["layer1"])
        metrics["tlm.l2_ns_per_cycle"] = (spans.total_ms("layer2") * 1e6
                                          / work["layer2"])
        metrics["tlm.l3_ns_per_txn"] = (spans.total_ms("layer3") * 1e6
                                        / work["layer3"])
        return metrics


# ----------------------------------------------------------------------
# campaign
# ----------------------------------------------------------------------

class Campaign(Workload):
    """One 12-cell fault-campaign grid (2 classes x 2 rates x layer 1,
    layer 2 and gate level) over two pool workers, journaled."""

    name = "campaign"
    digest_jobs = 2
    trace_rate = 0.3
    RATES = (0.0, 0.05)
    CLASSES = ("random_mix", "eeprom_contention")
    WORKERS = 2

    def __init__(self, workdir: str) -> None:
        super().__init__(workdir)
        self._journals = 0
        #: job index -> journal of its pooled run, for :meth:`rerun`
        self._pooled: typing.Dict[int, str] = {}

    def grid(self, run_seed: str, index: int, tracer: Tracer,
             workers: int) -> typing.Tuple[JobResult, str]:
        self._journals += 1
        journal = os.path.join(self.workdir,
                               f"grid-{self._journals}.jsonl")
        with tracer.span("experiments.grid"):
            result = run_fault_campaign(
                rates=self.RATES, classes=self.CLASSES,
                seed=f"bench/{run_seed}/{index}", workers=workers,
                journal_path=journal)
        cells = result.cells
        degraded = [cell for cell in cells if cell.status != "ok"]
        problems = [f"degraded cell {cell.layer}/{cell.workload}/"
                    f"{cell.rate}: {cell.error}" for cell in degraded]
        return JobResult(
            txns=sum(cell.transactions for cell in cells),
            record=tuple((cell.layer, cell.workload, cell.rate,
                          cell.transactions, cell.failures, cell.retries,
                          cell.timeouts, cell.cycles, repr(cell.energy_pj))
                         for cell in cells),
            problems=problems,
            counts={
                "tlm.sim_cycles": sum(cell.cycles for cell in cells),
                "tlm.txns": sum(cell.transactions for cell in cells),
                "tlm.retries": sum(cell.retries for cell in cells),
            }), journal

    def job(self, run_seed, index, tracer=_NO_TRACE):
        result, self._pooled[index] = self.grid(run_seed, index, tracer,
                                                self.WORKERS)
        return result

    def trace_job(self, run_seed, index, tracer=_NO_TRACE):
        # serial, so the sampler sees the cells instead of a parent
        # process waiting on its workers
        return self.grid(run_seed, index, tracer, 1)[0]

    def rerun(self, run_seed, index):
        """Grid *index* again with one worker: its journal must match
        the pooled one byte for byte (header aside)."""
        result, journal = self.grid(run_seed, index, _NO_TRACE, 1)
        if _cell_lines(journal) != _cell_lines(self._pooled[index]):
            result.problems.append("workers=1 journal differs from the "
                                   "workers=2 journal")
        return result

    def layer_metrics(self, run_seed, tracer, results):
        spans = Tracer(True)
        for index in range(len(results)):
            for workers in (1, self.WORKERS):
                with spans.span(f"workers={workers}"):
                    self.grid(run_seed, index, _NO_TRACE, workers)
        pooled_ms = spans.total_ms(f"workers={self.WORKERS}")
        cells = sum(len(result.record) for result in results)
        return {"experiments.parallel_efficiency":
                spans.total_ms("workers=1") / (self.WORKERS * pooled_ms),
                "experiments.cells_per_s": cells * 1e3 / pooled_ms}


def _cell_lines(journal: str) -> typing.List[str]:
    """The journal's cell records; the header names the worker count."""
    with open(journal, encoding="utf-8") as handle:
        return [line for line in handle if '"key"' in line]


WORKLOADS: typing.Dict[str, typing.Type[Workload]] = {
    cls.name: cls for cls in (Ladder, CardSession, Chaos, Campaign)}
