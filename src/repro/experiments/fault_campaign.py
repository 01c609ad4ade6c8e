"""Fault-injection campaign: what does recovery *cost* per layer?

The paper estimates the energy of fault-free traffic; a power-aware
card OS also has to budget for the traffic nobody plans — retries
after transient bus errors, EEPROM write tearing, and watchdog aborts
of hung slaves.  This campaign sweeps a fault-rate axis across the
:mod:`repro.experiments.robustness` workload classes and replays each
(class, rate) cell on the cycle-accurate layer 1, the timed layer 2
and the gate-level reference, all through the same seeded
:mod:`repro.faults` injector configuration and the same master-side
:class:`~repro.ec.RetryPolicy`.

Per cell it reports the completion rate under retry, the retry/timeout
counts, the cycle overhead against the rate-0 baseline of the same
layer, and the energy attributed to recovery — both as the baseline
delta and (on the TLM layers) as the per-episode attribution summed
from the masters' :class:`~repro.ec.FaultReport` records.  The
gate-level model prices energy only post-hoc (Diesel), so per-episode
attribution is reported as unavailable there rather than invented.
Under a pipelined master the per-episode window also contains the
energy of concurrently in-flight traffic, so summed ``retry E``
brackets the recovery cost from above; the baseline delta ``E+`` is
the isolated aggregate.

Everything is deterministic in (seed, rates, classes): injector
streams are derived per (class, rate, mechanism) so every layer of a
cell faces the same fault pattern, which is what makes the per-layer
columns comparable.
"""

from __future__ import annotations

import dataclasses
import random
import typing

from repro.ec import RetryPolicy
from repro.faults import (BitFlipInjector, FaultySlave,
                          IntermittentErrorInjector, StuckWaitInjector,
                          TransientErrorInjector)
from repro.kernel import Clock, Simulator
from repro.ec import MemoryMap
from repro.power import Layer1PowerModel, Layer2PowerModel
from repro.power.diesel import DieselEstimator, InterfaceActivityLog
from repro.rtl import RtlBus
from repro.soc.memory import Eeprom, Rom, ScratchpadRam
from repro.soc.smartcard import EEPROM_BASE, RAM_BASE, ROM_BASE
from repro.tlm import EcBusLayer1, EcBusLayer2, PipelinedMaster, run_script

from .common import CLOCK_PERIOD, _busy_cycles, characterization
from .robustness import DEFAULT_SEED, workload_script
from .supervisor import CampaignSupervisor, check_choices

#: Workload classes swept by default — a plain mix, a burst-heavy
#: stream and the EEPROM-contention pattern (where tearing and the
#: layer-2 wait-state snapshot interact).
DEFAULT_CLASSES = ("random_mix", "burst_heavy", "eeprom_contention")

#: Fault-rate axis.  Rate 0 doubles as the overhead baseline.
DEFAULT_RATES = (0.0, 0.02, 0.05, 0.1)

LAYERS = ("layer1", "layer2", "gate-level")

#: Recovery policy of record for the campaign: generous retry budget,
#: short backoff, and a watchdog tighter than a stuck-slave window so
#: hung transfers abort instead of stalling the whole script.
DEFAULT_POLICY = RetryPolicy(max_attempts=12, backoff_cycles=2,
                             timeout_cycles=150)

#: Per-cell cycle budget; the watchdog policy ends any stall long
#: before it.
MAX_CYCLES = 500_000


@dataclasses.dataclass
class CampaignCell:
    """One (layer, workload, rate) run of the campaign."""

    layer: str
    workload: str
    rate: float
    transactions: int = 0
    failures: int = 0      # transactions still failed after all retries
    retries: int = 0
    timeouts: int = 0      # watchdog aborts (each later retried)
    recovered: int = 0     # fault episodes that ended in success
    fault_events: int = 0  # injector activations (incl. silent flips)
    torn_writes: int = 0
    cycles: int = 0
    energy_pj: float = 0.0
    #: deltas against the same layer's rate-0 run of the same class
    cycle_overhead: typing.Optional[int] = None
    energy_overhead_pj: typing.Optional[float] = None
    #: summed FaultReport attribution; None where the layer cannot
    #: price energy incrementally (gate-level)
    retry_energy_pj: typing.Optional[float] = None
    #: "ok", or "degraded" when the cell kept crashing/stalling and the
    #: supervisor recorded a placeholder instead of sinking the sweep
    status: str = "ok"
    error: typing.Optional[str] = None

    @property
    def completion_rate(self) -> float:
        if not self.transactions:
            return 1.0
        return (self.transactions - self.failures) / self.transactions


@dataclasses.dataclass
class FaultCampaignResult:
    seed: typing.Union[int, str]
    rates: typing.Tuple[float, ...]
    classes: typing.Tuple[str, ...]
    cells: typing.List[CampaignCell]

    def cell(self, layer: str, workload: str,
             rate: float) -> CampaignCell:
        for cell in self.cells:
            if (cell.layer == layer and cell.workload == workload
                    and cell.rate == rate):
                return cell
        raise KeyError((layer, workload, rate))

    @property
    def passed(self) -> bool:
        """Every cell ran and every transaction completed under retry
        — a campaign that cannot finish its scripts has failed."""
        return all(cell.status == "ok" and not cell.failures
                   for cell in self.cells)

    def format(self) -> str:
        policy = DEFAULT_POLICY
        lines = [
            "Fault-injection campaign "
            f"(seed={self.seed!r}, retry budget "
            f"{policy.max_attempts}, backoff "
            f"{policy.backoff_cycles}, watchdog "
            f"{policy.timeout_cycles} cycles):",
            f"{'workload':<19}{'rate':>6}  {'layer':<10}{'txns':>6}"
            f"{'compl':>7}{'retry':>6}{'wdog':>5}{'cyc+':>7}"
            f"{'E+ (pJ)':>10}{'retry E (pJ)':>13}",
        ]
        for cell in self.cells:
            if cell.status != "ok":
                lines.append(
                    f"{cell.workload:<19}{cell.rate:>6.2f}"
                    f"  {cell.layer:<10}  DEGRADED: {cell.error}")
                continue
            overhead = ("" if cell.cycle_overhead is None
                        else f"{cell.cycle_overhead:>+7d}")
            e_overhead = ("" if cell.energy_overhead_pj is None
                          else f"{cell.energy_overhead_pj:>+10.1f}")
            retry_e = ("      n/a" if cell.retry_energy_pj is None
                       else f"{cell.retry_energy_pj:>9.1f}")
            lines.append(
                f"{cell.workload:<19}{cell.rate:>6.2f}"
                f"  {cell.layer:<10}{cell.transactions:>6}"
                f"{100.0 * cell.completion_rate:>6.1f}%"
                f"{cell.retries:>6}{cell.timeouts:>5}"
                f"{overhead:>7}{e_overhead:>10}{retry_e:>13}")
        total_failures = sum(cell.failures for cell in self.cells)
        lines.append(
            f"unrecovered transactions across all cells: {total_failures}")
        degraded = sum(1 for cell in self.cells if cell.status != "ok")
        if degraded:
            lines.append(f"degraded cells (crashed/stalled after "
                         f"retries): {degraded}")
        return "\n".join(lines)


def _campaign_injectors(seed: typing.Union[int, str], workload: str,
                        rate: float, slave: str) -> list:
    """The seeded injector set for one slave of one campaign cell.

    Streams are keyed by (seed, workload, rate, slave, mechanism) so
    every layer of a cell draws the same fault pattern, while cells
    never share a stream.
    """
    if rate == 0.0:
        return []

    def rng(mechanism: str) -> random.Random:
        return random.Random(
            f"{seed}/{workload}/{rate}/{slave}/{mechanism}")

    injectors = [
        TransientErrorInjector(rate, rng("transient")),
        IntermittentErrorInjector(rate / 2, rng("intermittent"), burst=2),
        BitFlipInjector(rate, rng("bitflip")),
    ]
    if slave != "rom":
        # a hung-slave window longer than the watchdog budget, so the
        # master aborts and retries after the window closes
        injectors.append(StuckWaitInjector(
            rate / 8, rng("stuck"), duration=60,
            extra_waits=4 * DEFAULT_POLICY.timeout_cycles))
    return injectors


def _campaign_memory_map(seed: typing.Union[int, str], workload: str,
                         rate: float) -> MemoryMap:
    """The Figure-1 memories at their platform bases, each behind a
    seeded :class:`FaultySlave`; the EEPROM additionally tears."""
    eeprom = Eeprom(
        EEPROM_BASE,
        tear_rate=rate,
        tear_rng=(random.Random(f"{seed}/{workload}/{rate}/eeprom/tear")
                  if rate else None))
    slaves = (
        (Rom(ROM_BASE), "rom"),
        (ScratchpadRam(RAM_BASE), "ram"),
        (eeprom, "eeprom"),
    )
    memory_map = MemoryMap()
    for slave, name in slaves:
        memory_map.add_slave(
            FaultySlave(slave, _campaign_injectors(seed, workload, rate,
                                                   name)), name)
    return memory_map


def _run_cell(layer: str, workload: str, rate: float,
              seed: typing.Union[int, str], table,
              wall_seconds: typing.Optional[float] = None) -> dict:
    """One cell, as its journal payload (module-level, so picklable
    for the worker pool)."""
    simulator = Simulator(f"faults-{layer}")
    clock = Clock(simulator, "clk", period=CLOCK_PERIOD)
    memory_map = _campaign_memory_map(seed, workload, rate)

    power_model = None
    activity = None
    if layer == "layer1":
        power_model = Layer1PowerModel(table)
        bus = EcBusLayer1(simulator, clock, memory_map,
                          power_model=power_model)
    elif layer == "layer2":
        power_model = Layer2PowerModel(table)
        bus = EcBusLayer2(simulator, clock, memory_map,
                          power_model=power_model)
    else:
        activity = InterfaceActivityLog()
        bus = RtlBus(simulator, clock, memory_map, activity_log=activity)
    for region in memory_map.regions:
        region.slave.bind_cycle_source(lambda: bus.cycle)

    energy_probe = None
    if power_model is not None:
        energy_probe = lambda: power_model.total_energy_pj
    script = workload_script(workload, seed)
    master = PipelinedMaster(simulator, clock, bus, script,
                             retry_policy=DEFAULT_POLICY,
                             energy_probe=energy_probe)
    run_script(simulator, master, MAX_CYCLES, clock,
               wall_seconds=wall_seconds)

    if power_model is not None:
        if layer == "layer2":
            power_model.account_cycles(bus.cycle)
        energy = power_model.total_energy_pj
    else:
        report = DieselEstimator().estimate(
            activity, netlists=[bus.decoder.netlist],
            control_register_toggles=bus.control_register_toggles,
            control_flop_count=bus.control_flop_count,
            cycles=bus.cycle)
        energy = report.total_energy_pj

    retry_energy = None
    if power_model is not None and master.fault_reports:
        priced = [r.retry_energy_pj for r in master.fault_reports
                  if r.retry_energy_pj is not None]
        retry_energy = sum(priced) if priced else 0.0
    fault_events = sum(len(region.slave.events)
                       for region in memory_map.regions)
    torn = sum(getattr(region.slave, "torn_writes", 0)
               for region in memory_map.regions)
    payload = dataclasses.asdict(CampaignCell(
        layer=layer, workload=workload, rate=rate,
        transactions=len(master.completed),
        failures=len(master.errors),
        retries=master.retries,
        timeouts=master.timeouts,
        recovered=sum(1 for r in master.fault_reports if r.recovered),
        fault_events=fault_events,
        torn_writes=torn,
        cycles=_busy_cycles(master),
        energy_pj=energy,
        retry_energy_pj=retry_energy))
    # the overhead columns are not journaled: they are recomputed in
    # memory on both the fresh and the resumed path, so the two agree
    # byte for byte
    del payload["cycle_overhead"], payload["energy_overhead_pj"]
    return payload


def run_fault_campaign(
        rates: typing.Sequence[float] = DEFAULT_RATES,
        classes: typing.Sequence[str] = DEFAULT_CLASSES,
        seed: typing.Union[int, str] = DEFAULT_SEED,
        layers: typing.Sequence[str] = LAYERS,
        journal_path: typing.Optional[str] = None,
        resume: bool = False,
        cell_wall_seconds: typing.Optional[float] = None,
        workers: int = 1
        ) -> FaultCampaignResult:
    """Sweep fault rates across workload classes on every layer.

    With *journal_path* every finished cell is checkpointed to a JSONL
    journal; *resume* then replays journaled cells instead of
    re-running them, making an interrupted campaign restartable with
    byte-identical results.  A cell that keeps crashing or stalling is
    reported as a degraded row instead of aborting the sweep;
    *cell_wall_seconds* bounds each cell's wall clock through the
    master's progress watchdog.

    *workers* > 1 shards the (class, rate, layer) grid over a process
    pool — every cell is independently seeded, so sharding cannot
    change results, and the supervisor journals outcomes in grid order
    so journal, resume and report stay byte-identical to ``workers=1``.
    """
    from .robustness import WORKLOAD_CLASSES
    check_choices("layer", layers, LAYERS)
    check_choices("workload class", classes, sorted(WORKLOAD_CLASSES))
    for rate in rates:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"fault rates must be in [0, 1], "
                             f"got {rate}")
    supervisor = CampaignSupervisor(
        "fault_campaign", seed, journal_path=journal_path,
        resume=resume)
    table = characterization().table
    cells = []
    baselines: typing.Dict[typing.Tuple[str, str], CampaignCell] = {}
    rate_axis = sorted(set(rates))
    if rate_axis and rate_axis[0] != 0.0:
        rate_axis.insert(0, 0.0)  # overhead needs the fault-free run
    specs = [
        ({"layer": layer, "workload": workload, "rate": rate},
         _run_cell,
         (layer, workload, rate, seed, table, cell_wall_seconds))
        for workload in classes
        for rate in rate_axis
        for layer in layers]
    outcomes = supervisor.run_cells(specs, workers=workers)
    for outcome in outcomes:
        cell = outcome.cell(CampaignCell, **outcome.params)
        key = (cell.layer, cell.workload)
        if cell.rate == 0.0 and cell.status == "ok":
            baselines[key] = cell
        baseline = baselines.get(key)
        if (baseline is not None and cell is not baseline
                and cell.status == "ok"):
            cell.cycle_overhead = cell.cycles - baseline.cycles
            cell.energy_overhead_pj = (cell.energy_pj
                                       - baseline.energy_pj)
        cells.append(cell)
    return FaultCampaignResult(seed=seed, rates=tuple(rate_axis),
                               classes=tuple(classes), cells=cells)
