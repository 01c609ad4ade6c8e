"""Tear campaign: does anti-tearing hold, and what does it cost?

A smart card can lose power at *any* cycle — the reader yanks the
field, the harvest loop browns out mid-EEPROM-write.  The journal in
:mod:`repro.soc.journal` promises that a journaled update survives a
tear at every point of its discipline; this campaign *checks* that
promise empirically, per bus layer, and prices the boot-time recovery
it relies on.

Per (layer, tear point) cell the campaign

1. builds a fresh :class:`~repro.soc.SmartCardPlatform`, pre-loads the
   EEPROM home region with the seeded old values, and drives the
   journaled update workload with a :class:`~repro.tlm.BlockingMaster`
   (in-order issue *is* the journal discipline);
2. kills the whole card at the scheduled cycle through a
   :class:`~repro.faults.TearInjector` (clean kernel halt — volatile
   state gone, EEPROM frozen mid-flight);
3. re-fields the card with
   :meth:`~repro.soc.SmartCardPlatform.cold_boot` (same non-volatile
   words, fresh everything else) and runs the journal's boot-time
   :meth:`~repro.soc.journal.TransactionJournal.recovery_script` over
   the bus, measuring its cycles and energy on the same layer;
4. verifies the consistency invariants: every logical transaction is
   all-old or all-new (no partial commit is visible), the applied
   transactions form a prefix of the issue order, the journal is
   clean afterwards, and a frame that was durably committed at the
   tear point is applied after recovery.

Steps 3 and 4 up to the last invariant are
:meth:`_JournalWorkload.reboot`, the reboot-and-verify step the DPM
campaign's emergency cells share.

Tear points come from :func:`~repro.faults.tear_schedule`, seeded per
layer and spanning each layer's own tear-free baseline run, so the
grid exercises address phases, data beats, EEPROM busy windows and the
journal discipline's every inter-write gap.

A governor sub-study runs the same workload twice on a deliberately
starved :class:`~repro.power.PowerSupply` — once open-loop, once with
masters consulting an :class:`~repro.power.EnergyGovernor` — and
reports the brownout counts side by side.  The supply parameters are
calibrated so the open-loop run dips below the brownout threshold
while the governed run, deferring issues whenever projected draw would
breach the budget, stays above it.

Deterministic in (seed, points, transactions): schedules, workload
values and supply behaviour all derive from seeded streams, so
journaled campaign rows replay byte-identically under ``--resume``.
"""

from __future__ import annotations

import dataclasses
import random
import typing

from repro.faults import TearInjector, tear_schedule
from repro.power import EnergyGovernor, PowerDomain, PowerSupply
from repro.report import Column, Report, Reported, yes_no
from repro.soc import (EEPROM_BASE, JournalState, SmartCardPlatform,
                       TransactionJournal)
from repro.soc.layers import LAYERS
from repro.tlm import BlockingMaster, run_script

from .common import characterization
from .robustness import DEFAULT_SEED
from .supervisor import CampaignSupervisor, check_choices, check_counts

#: Home words per logical transaction (each journaled all-or-nothing).
WORDS_PER_TXN = 2

#: EEPROM layout of the workload: home region well below the journal
#: window, journal window well inside the EEPROM.
HOME_OFFSET = 0x100
JOURNAL_OFFSET = 0x800

#: Supply operating point of the governor sub-study, calibrated so the
#: open-loop workload browns out while the governed one does not: the
#: harvest rate (2 pJ/cycle) undercuts the workload's average draw
#: (~2.4 pJ/cycle), so the storage cap slowly drains.  The governor's
#: margin is about one transaction cost of headroom above the brownout
#: threshold; note ``capacity - brownout`` must exceed ``margin`` plus
#: the dearest transaction's cost, or the governor can never grant and
#: the governed run livelocks (the run_script watchdog would flag it).
GOVERNOR_SUPPLY = dict(capacity_nj=0.10, harvest_pj_per_cycle=2.0,
                       brownout_nj=0.05, power_loss_nj=0.0)
GOVERNOR_MARGIN_NJ = 0.02

#: Cycle budget of every run_script call in a cell.
MAX_CYCLES = 200_000


@dataclasses.dataclass
class TearCell:
    """One (layer, tear point) run: tear, cold boot, recover, verify."""

    layer: str
    tear_cycle: int
    torn: bool = False          # False when the workload beat the tear
    transactions: int = 0
    applied: int = 0            # transactions all-new after recovery
    committed_at_tear: bool = False  # journal held a durable frame
    replayed: bool = False      # recovery replayed that frame
    recovery_cycles: int = 0
    recovery_energy_pj: float = 0.0
    consistent: bool = False
    violations: typing.List[str] = dataclasses.field(default_factory=list)
    #: "ok", or "degraded" when the cell kept crashing and the
    #: supervisor recorded a placeholder instead of sinking the sweep
    status: str = "ok"
    error: typing.Optional[str] = None


@dataclasses.dataclass
class GovernorCell:
    """One arm of the governor sub-study on the starved supply."""

    governed: bool
    completed: bool = False
    cycles: int = 0
    brownouts: int = 0
    deferrals: int = 0
    drained_pj: float = 0.0
    status: str = "ok"
    error: typing.Optional[str] = None


@dataclasses.dataclass
class TearCampaignResult(Reported):
    seed: typing.Union[int, str]
    points: int
    transactions: int
    layers: typing.Tuple[str, ...]
    #: per layer, the tear-free run's payload — or, when that run
    #: degraded, ``{"layer": ..., "error": ...}`` and no tear grid
    baselines: typing.Dict[str, dict]
    cells: typing.List[TearCell]
    governor: typing.List[GovernorCell]

    def layer_cells(self, layer: str) -> typing.List[TearCell]:
        return [cell for cell in self.cells if cell.layer == layer]

    def consistency_rate(self, layer: str) -> float:
        cells = [c for c in self.layer_cells(layer) if c.status == "ok"]
        if not cells:
            return 0.0
        return sum(1 for c in cells if c.consistent) / len(cells)

    @property
    def governor_effective(self) -> bool:
        """Strictly fewer brownouts with the governor, both arms done."""
        arms = {cell.governed: cell for cell in self.governor
                if cell.status == "ok"}
        if True not in arms or False not in arms:
            return False
        return (arms[True].completed and arms[False].completed
                and arms[True].brownouts < arms[False].brownouts)

    def _layer_row(self, layer: str) -> dict:
        cells = self.layer_cells(layer)
        ok = [c for c in cells if c.status == "ok"]
        replays = [c for c in ok if c.replayed]
        mean_cycles = (sum(c.recovery_cycles for c in replays)
                       / len(replays)) if replays else 0.0
        mean_nj = (sum(c.recovery_energy_pj for c in replays)
                   / len(replays) / 1e3) if replays else 0.0
        return dict(layer=layer, points=len(cells),
                    torn=sum(1 for c in ok if c.torn),
                    consistent=sum(1 for c in ok if c.consistent),
                    rate=self.consistency_rate(layer),
                    replays=len(replays), recovery_cycles=mean_cycles,
                    recovery_nj=mean_nj)

    def report(self) -> Report:
        lines: typing.List[str] = []
        violations = [(cell, v) for cell in self.cells
                      for v in cell.violations]
        for cell, violation in violations[:10]:
            lines.append(f"  VIOLATION {cell.layer} @cycle "
                         f"{cell.tear_cycle}: {violation}")
        for layer in self.layers:
            if "error" in self.baselines[layer]:
                lines.append(f"  DEGRADED {layer} baseline: "
                             f"{self.baselines[layer]['error']}")
        degraded = [c for c in self.cells if c.status != "ok"]
        for cell in degraded[:5]:
            lines.append(f"  DEGRADED {cell.layer} @cycle "
                         f"{cell.tear_cycle}: {cell.error}")
        if self.governor:
            supply = GOVERNOR_SUPPLY
            lines.append(
                f"governor sub-study (layer1, "
                f"{supply['capacity_nj']:.2f} nJ cap, "
                f"{supply['harvest_pj_per_cycle']:.1f} pJ/cycle "
                f"harvest, brownout at {supply['brownout_nj']:.2f} nJ):")
            for cell in self.governor:
                arm = "governed" if cell.governed else "open-loop"
                if cell.status != "ok":
                    lines.append(f"  {arm:<10} DEGRADED: {cell.error}")
                    continue
                lines.append(
                    f"  {arm:<10} brownouts={cell.brownouts}"
                    f" deferrals={cell.deferrals}"
                    f" cycles={cell.cycles}"
                    f" completed={yes_no(cell.completed)}")
        # anti-tearing must hold everywhere and, when the sub-study
        # ran, the governor must reduce brownouts
        checks = [
            ("every baseline ran",
             not any("error" in run for run in self.baselines.values())),
            ("every tear point ran", not degraded),
            ("every tear point recovered consistently",
             all(cell.consistent for cell in self.cells
                 if cell.status == "ok")),
        ]
        if self.governor:
            checks.append(("governor effective (strictly fewer brownouts)",
                           self.governor_effective))
        return Report(
            f"Tear campaign (seed={self.seed!r}, {self.points} tear "
            f"points/layer, {self.transactions} journaled txns of "
            f"{WORDS_PER_TXN} words):",
            columns=[
                Column("layer", 12, "{layer}", "<"),
                Column("points", 7, "{points}"),
                Column("torn", 6, "{torn}"),
                Column("consistent", 11, "{consistent}"),
                Column("rate", 8, "{rate:.1%}"),
                Column("replays", 8, "{replays}"),
                Column("recovery cyc", 13, "{recovery_cycles:.1f}"),
                Column("replay E (nJ)", 14, "{recovery_nj:.3f}"),
            ],
            rows=[self._layer_row(layer) for layer in self.layers],
            after=lines, checks=checks,
            verdict="all tear points recovered consistently")


@dataclasses.dataclass
class _Reboot:
    """What :meth:`_JournalWorkload.reboot` found on the re-fielded
    card."""

    booted: SmartCardPlatform
    #: the journal as boot-time recovery found it
    boot_state: JournalState
    recovery_cycles: int
    #: per transaction: "old", "new" or "mixed" after recovery
    statuses: typing.List[str]
    journal_clean: bool
    violations: typing.List[str]


class _JournalWorkload:
    """The seeded journaled-update workload shared by every cell.

    *transactions* logical updates, each writing ``WORDS_PER_TXN``
    disjoint home words, each compiled to the full journal discipline.
    Old and new values come from one seeded stream, so every layer and
    every tear point faces byte-identical traffic.
    """

    def __init__(self, seed: typing.Union[int, str],
                 transactions: int) -> None:
        home_words = WORDS_PER_TXN * transactions
        if HOME_OFFSET + 4 * home_words > JOURNAL_OFFSET:
            raise ValueError(
                f"{transactions} transactions overflow the home "
                f"region (fits "
                f"{(JOURNAL_OFFSET - HOME_OFFSET) // (4 * WORDS_PER_TXN)})")
        self.transactions = transactions
        self.journal = TransactionJournal(EEPROM_BASE + JOURNAL_OFFSET,
                                          capacity=WORDS_PER_TXN)
        rng = random.Random(f"{seed}/tear-workload")
        self.old: typing.Dict[int, int] = {}
        self.txn_writes: typing.List[
            typing.List[typing.Tuple[int, int]]] = []
        for txn in range(transactions):
            writes = []
            for word in range(WORDS_PER_TXN):
                address = (EEPROM_BASE + HOME_OFFSET
                           + 4 * (WORDS_PER_TXN * txn + word))
                old = rng.randrange(1 << 32)
                new = rng.randrange(1 << 32)
                if new == old:
                    new ^= 0xFFFFFFFF
                self.old[address] = old
                writes.append((address, new))
            self.txn_writes.append(writes)

    def preload(self, platform: SmartCardPlatform) -> None:
        for address, value in self.old.items():
            platform.eeprom.poke(address - EEPROM_BASE, value)

    def script(self):
        """A fresh script (transactions are single-use objects)."""
        items = []
        for seq, writes in enumerate(self.txn_writes):
            items.extend(self.journal.update_script(seq, writes))
        return items

    def reader(self, platform: SmartCardPlatform
               ) -> typing.Callable[[int], int]:
        return lambda address: platform.eeprom.peek(address - EEPROM_BASE)

    def classify(self, platform: SmartCardPlatform) -> typing.List[str]:
        """Per transaction: ``"old"``, ``"new"`` or ``"mixed"``."""
        read = self.reader(platform)
        statuses = []
        for writes in self.txn_writes:
            values = [read(address) for address, _ in writes]
            if values == [new for _, new in writes]:
                statuses.append("new")
            elif values == [self.old[address] for address, _ in writes]:
                statuses.append("old")
            else:
                statuses.append("mixed")
        return statuses

    def reboot(self, platform: SmartCardPlatform,
               wall_seconds: typing.Optional[float]) -> _Reboot:
        """Re-field *platform* after a power loss and verify it.

        Cold-boots the card (fresh volatile world and energy model,
        same EEPROM contents), runs the journal's boot-time recovery
        over the new card's bus, and checks what every power-loss study
        demands: the recovery completes, no transaction is partially
        committed, the applied transactions are a prefix of the issue
        order and the journal is clean afterwards.
        """
        booted = platform.cold_boot()
        read = self.reader(booted)
        boot_state = self.journal.decode(read)
        master = BlockingMaster(booted.simulator, booted.clock, booted.bus,
                                self.journal.recovery_script(boot_state))
        cycles = run_script(booted.simulator, master, MAX_CYCLES,
                            booted.clock, wall_seconds=wall_seconds)
        statuses = self.classify(booted)
        applied = [i for i, s in enumerate(statuses) if s == "new"]
        journal_clean = not self.journal.decode(read).committed
        violations = []
        if not master.done:
            violations.append("recovery script did not complete")
        violations.extend(f"txn {index} partially committed"
                          for index, status in enumerate(statuses)
                          if status == "mixed")
        if applied != list(range(len(applied))):
            violations.append(f"applied set {applied} is not a prefix")
        if not journal_clean:
            violations.append("journal still committed after recovery")
        return _Reboot(booted, boot_state, cycles, statuses, journal_clean,
                       violations)


def _run_baseline(layer: str, seed, transactions: int, table,
                  wall_seconds: typing.Optional[float]) -> dict:
    """The tear-free run of one layer: the grid's cycle span."""
    workload = _JournalWorkload(seed, transactions)
    platform = SmartCardPlatform(bus_layer=layer, table=table)
    workload.preload(platform)
    master = BlockingMaster(platform.simulator, platform.clock,
                            platform.bus, workload.script())
    cycles = run_script(platform.simulator, master, MAX_CYCLES,
                        platform.clock, wall_seconds=wall_seconds)
    if not master.done:
        raise RuntimeError(
            f"{layer} baseline incomplete after {cycles} cycles")
    statuses = workload.classify(platform)
    if statuses != ["new"] * transactions:
        raise RuntimeError(f"{layer} baseline left home region "
                           f"inconsistent: {statuses}")
    return {"layer": layer, "cycles": cycles,
            "energy_pj": platform.layer_bus.energy_pj()}


def _run_tear_cell(layer: str, tear_cycle: int, seed,
                   transactions: int, table,
                   wall_seconds: typing.Optional[float]) -> dict:
    workload = _JournalWorkload(seed, transactions)
    platform = SmartCardPlatform(bus_layer=layer, table=table)
    workload.preload(platform)
    master = BlockingMaster(platform.simulator, platform.clock,
                            platform.bus, workload.script())
    TearInjector(platform.simulator, platform.clock,
                 lambda: platform.bus.cycle, at_cycle=tear_cycle)
    run_script(platform.simulator, master, MAX_CYCLES, platform.clock,
               wall_seconds=wall_seconds)
    torn = platform.simulator.powered_off
    state_at_tear = workload.journal.decode(workload.reader(platform))
    reboot = workload.reboot(platform, wall_seconds)
    violations = reboot.violations
    if (state_at_tear.committed
            and reboot.statuses[state_at_tear.seq] != "new"):
        violations.append(
            f"durably committed txn {state_at_tear.seq} lost")
    if not torn and reboot.statuses != ["new"] * transactions:
        violations.append("untorn run did not apply every txn")

    return {
        "layer": layer, "tear_cycle": tear_cycle, "torn": torn,
        "transactions": transactions, "applied": reboot.statuses.count("new"),
        "committed_at_tear": state_at_tear.committed,
        "replayed": reboot.boot_state.committed,
        "recovery_cycles": reboot.recovery_cycles,
        "recovery_energy_pj": reboot.booted.layer_bus.energy_pj(),
        "consistent": not violations, "violations": violations,
    }


def _run_governor_cell(governed: bool, seed, transactions: int, table,
                       wall_seconds: typing.Optional[float]) -> dict:
    workload = _JournalWorkload(seed, transactions)
    platform = SmartCardPlatform(bus_layer="layer1", table=table)
    workload.preload(platform)
    supply = PowerSupply(platform.layer_bus.power_model, **GOVERNOR_SUPPLY)
    PowerDomain(platform.simulator, platform.clock, platform.bus,
                supply, halt_on_power_loss=False)
    governor = (EnergyGovernor(supply, table,
                               margin_nj=GOVERNOR_MARGIN_NJ)
                if governed else None)
    master = BlockingMaster(platform.simulator, platform.clock,
                            platform.bus, workload.script(),
                            governor=governor)
    cycles = run_script(platform.simulator, master, MAX_CYCLES,
                        platform.clock, wall_seconds=wall_seconds)
    return {
        "governed": governed, "completed": master.done,
        "cycles": cycles, "brownouts": len(supply.brownouts),
        "deferrals": governor.deferrals if governor else 0,
        "drained_pj": supply.drained_pj,
    }


def run_tear_campaign(
        points: int = 100,
        transactions: int = 12,
        seed: typing.Union[int, str] = DEFAULT_SEED,
        layers: typing.Sequence[str] = LAYERS,
        journal_path: typing.Optional[str] = None,
        resume: bool = False,
        cell_wall_seconds: typing.Optional[float] = None,
        governor_study: bool = True,
        workers: int = 1) -> TearCampaignResult:
    """Sweep seeded tear points across the journal workload per layer.

    Per layer, a tear-free baseline run spans the grid; *points*
    seeded tear cycles inside that span then each get the full
    tear / cold-boot / recover / verify treatment.  A layer whose
    baseline degrades gets no tear grid and fails the consistency
    verdict.  With *journal_path* every finished cell is checkpointed
    (JSONL); *resume* replays journaled cells byte-identically.

    *workers* > 1 shards each phase over a process pool: first the
    per-layer baselines (the tear grids depend on their cycle spans),
    then the whole tear grid across layers, then the governor arms.
    Cells are independently seeded and the supervisor journals them in
    grid order, so journal, resume and report are byte-identical to a
    ``workers=1`` run.
    """
    check_counts(points=points, transactions=transactions)
    check_choices("layer", layers, LAYERS)
    _JournalWorkload(seed, transactions)  # bounds-check the layout
    supervisor = CampaignSupervisor(
        "tear_campaign", seed, journal_path=journal_path,
        resume=resume)
    table = characterization().table
    # phase 1: the tear-free baselines — the tear grids need their
    # cycle spans, so they run (possibly in parallel) before any tear
    baseline_specs = [
        ({"layer": layer, "phase": "baseline"}, _run_baseline,
         (layer, seed, transactions, table, cell_wall_seconds))
        for layer in layers]
    baselines = {
        layer: (outcome.payload if outcome.ok
                else {"layer": layer, "error": outcome.error})
        for layer, outcome in zip(
            layers, supervisor.run_cells(baseline_specs,
                                         workers=workers))}
    # phase 2: the tear grid — span the whole discipline: every cycle
    # of a layer's baseline run is a candidate tear point
    tear_specs = []
    for layer in layers:
        if "error" in baselines[layer]:
            continue
        schedule = tear_schedule(f"{seed}/{layer}", points,
                                 max_cycle=baselines[layer]["cycles"])
        for index, tear_cycle in enumerate(schedule):
            tear_specs.append(
                ({"layer": layer, "phase": "tear",
                  "index": index, "tear_cycle": tear_cycle},
                 _run_tear_cell,
                 (layer, tear_cycle, seed, transactions, table,
                  cell_wall_seconds)))
    cells = [outcome.cell(TearCell, layer=outcome.params["layer"],
                          tear_cycle=outcome.params["tear_cycle"])
             for outcome in supervisor.run_cells(tear_specs,
                                                 workers=workers)]
    governor_cells: typing.List[GovernorCell] = []
    if governor_study:
        governor_specs = [
            ({"phase": "governor", "governed": governed},
             _run_governor_cell,
             (governed, seed, transactions, table, cell_wall_seconds))
            for governed in (False, True)]
        governor_cells = [
            outcome.cell(GovernorCell, governed=outcome.params["governed"])
            for outcome in supervisor.run_cells(governor_specs,
                                                workers=workers)]
    return TearCampaignResult(
        seed=seed, points=points, transactions=transactions,
        layers=tuple(layers), baselines=baselines, cells=cells,
        governor=governor_cells)
