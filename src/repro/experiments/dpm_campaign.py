"""DPM campaign: do the adaptive power-management policies pay?

The PSM layer (:mod:`repro.power.psm`) lets every peripheral drop into
cheaper states; the governor layer (:mod:`repro.power.governors`)
decides when.  This campaign puts numbers on both claims the extension
makes:

1. **Policy grid** — a bursty journaled-EEPROM workload (seeded idle
   gaps between transactions) runs per (bus layer, policy, supply
   trace) on a deliberately starved harvesting supply.  The supply is
   calibrated so a card that never leaves ACTIVE slowly drains into
   brownout during the idle gaps, while a card that clock-gates its
   idle peripherals harvests faster than it burns.  Every arm drives
   the *identical* transaction script, so the delivered work is
   directly comparable; the verdict demands each adaptive policy incur
   strictly fewer brownouts than ``always_on`` at equal-or-better
   completed transactions.
2. **Emergency checkpoint study** — the same workload on a supply too
   weak to survive, with the full watermark ladder armed.  As charge
   falls through the stages the governor defers work, forces sleep,
   and finally fires the emergency checkpoint: a back-door journal
   commit of the in-flight logical transaction while there is still
   charge to finish it.  After the :class:`~repro.power.PowerLossEvent`
   kills the card, a cold boot runs journal recovery over the bus and
   the cell verifies the checkpointed transaction was applied, the
   home region is consistent, the journal is clean, and a second
   recovery pass is a no-op (idempotence).
3. **Technology corners** — the grid's headline energies re-priced at
   other (process node, Vdd) points through
   :class:`~repro.power.TechnologyTable` bilinear interpolation.  The
   energy models are linear in the characterisation table, so pricing
   scales the measured totals exactly; passing ``node_nm``/``vdd`` to
   :func:`run_dpm_campaign` instead calibrates the table itself before
   any cell runs.

Deterministic in (seed, traces, transactions): harvest rates, idle
gaps and workload values all derive from seeded streams, so journaled
campaign rows replay byte-identically under ``--resume``.
"""

from __future__ import annotations

import dataclasses
import random
import typing

from repro.power import (FixedTimeoutPolicy, POLICIES,
                         default_technology_table)
from repro.report import Column, Report, Reported, yes_no
from repro.soc import EEPROM_BASE, SmartCardPlatform
from repro.soc.uart import CTRL as UART_CTRL, CTRL_ENABLE as UART_ENABLE
from repro.tlm import BlockingMaster, run_script

from .common import characterization
from .robustness import DEFAULT_SEED
from .supervisor import CampaignSupervisor, check_choices, check_counts
from .tear_campaign import WORDS_PER_TXN, _JournalWorkload

LAYERS = ("layer1", "layer2")

#: Idle-gap span (cycles) between journaled transactions in the policy
#: grid: long enough for every policy to reach its deepest state and
#: for the always-on idle draw to matter.
GRID_GAPS = (1200, 2200)

#: Supply operating point of the policy grid, calibrated against the
#: platform's measured idle draw (characterised bus clock ~0.70
#: pJ/cycle + enabled UART 0.02 + free-running TRNG 0.40): the harvest
#: range sits strictly between the clock-gated idle draw (~0.72
#: pJ/cycle) and the always-on idle draw (~1.13 pJ/cycle), so the
#: always-on arm drains monotonically through the brownout threshold
#: during the gaps while every gating policy is net-positive and never
#: browns out.  ``power_loss_nj=0`` keeps every arm alive to the end
#: of the script — equal delivered work by construction, brownout
#: count as the discriminator.
#: ``capacity - brownout`` (1.15 nJ) is sized so the always-on arm
#: crosses the threshold within ~6 transactions' worth of idle gaps at
#: the laziest harvest rate, while staying far above any burst dip.
GRID_SUPPLY = dict(capacity_nj=1.5, brownout_nj=0.35, power_loss_nj=0.0)
HARVEST_RANGE_PJ = (0.80, 0.95)

#: Emergency-study supply: the harvest rate (0.4 pJ/cycle) is below
#: even the fully-gated draw, so the card *will* die; the watermark
#: ladder must fire the checkpoint on the way down, before the
#: power-loss threshold tears the card.
EMERGENCY_SUPPLY = dict(capacity_nj=0.6, harvest_pj_per_cycle=0.4,
                        brownout_nj=0.25, power_loss_nj=0.05)
EMERGENCY_WATERMARKS = dict(defer_nj=0.20, sleep_nj=0.15,
                            emergency_nj=0.10)
EMERGENCY_GAPS = (100, 200)

#: Cycle budget of a cell's workload run (boot-time recovery runs
#: under the tear campaign's budget).
MAX_CYCLES = 400_000


@dataclasses.dataclass
class DpmCell:
    """One (layer, policy, trace) arm of the policy grid."""

    layer: str
    policy: str
    trace: int
    harvest_pj_per_cycle: float = 0.0
    brownouts: int = 0
    completed: int = 0
    transactions: int = 0
    cycles: int = 0
    drained_pj: float = 0.0
    psm_overhead_pj: float = 0.0
    wakes: int = 0
    forced_sleeps: int = 0
    status: str = "ok"
    error: typing.Optional[str] = None


@dataclasses.dataclass
class EmergencyCell:
    """One emergency-checkpoint run: starve, checkpoint, die, recover."""

    trace: int
    checkpoint_fired: bool = False
    checkpoint_cycle: typing.Optional[int] = None
    checkpoint_txn: typing.Optional[int] = None
    died: bool = False
    completed_before_death: int = 0
    recovery_cycles: int = 0
    checkpoint_txn_applied: bool = False
    journal_clean: bool = False
    idempotent: bool = False
    verified: bool = False
    violations: typing.List[str] = dataclasses.field(default_factory=list)
    status: str = "ok"
    error: typing.Optional[str] = None


@dataclasses.dataclass
class DpmCampaignResult(Reported):
    seed: typing.Union[int, str]
    traces: int
    transactions: int
    policies: typing.Tuple[str, ...]
    layers: typing.Tuple[str, ...]
    table_source: str
    cells: typing.List[DpmCell]
    emergency: typing.List[EmergencyCell]
    technology: typing.List[dict]

    def arm(self, layer: str, policy: str) -> typing.List[DpmCell]:
        return [cell for cell in self.cells
                if cell.layer == layer and cell.policy == policy
                and cell.status == "ok"]

    def _arm_ok(self, layer: str, policy: str) -> bool:
        cells = self.arm(layer, policy)
        return len(cells) == self.traces

    @property
    def adaptive_policies(self) -> typing.Tuple[str, ...]:
        return tuple(p for p in self.policies if p != "always_on")

    def beats_baseline(self, layer: str, policy: str) -> bool:
        """The per-arm rule: *policy* strictly beats always-on on summed
        brownouts at equal-or-better completed work per trace.  False
        when either arm is missing a trace."""
        if not (self._arm_ok(layer, policy)
                and self._arm_ok(layer, "always_on")):
            return False
        arm = self.arm(layer, policy)
        baseline = self.arm(layer, "always_on")
        return (sum(c.brownouts for c in arm)
                < sum(c.brownouts for c in baseline)
                and all(a.completed >= b.completed
                        for a, b in zip(arm, baseline)))

    def report(self) -> Report:
        # every adaptive policy must beat always-on on every layer, and
        # every emergency checkpoint must be followed by a verified,
        # idempotent recovery
        checks = [("always_on baseline and an adaptive policy in the grid",
                   "always_on" in self.policies
                   and bool(self.adaptive_policies))]
        if "always_on" in self.policies:
            for layer in self.layers:
                baseline = sum(c.brownouts
                               for c in self.arm(layer, "always_on"))
                for policy in self.adaptive_policies:
                    total = sum(c.brownouts
                                for c in self.arm(layer, policy))
                    checks.append((
                        f"{layer} {policy} beats baseline: {total} vs "
                        f"{baseline} brownouts, no less work per trace",
                        self.beats_baseline(layer, policy)))
        lines: typing.List[str] = []
        if self.emergency:
            checks.append(("every emergency recovery verified",
                           all(cell.status == "ok" and cell.verified
                               for cell in self.emergency)))
            lines.append(
                f"emergency checkpoint study (layer1, "
                f"{EMERGENCY_SUPPLY['capacity_nj']:.2f} nJ cap, "
                f"{EMERGENCY_SUPPLY['harvest_pj_per_cycle']:.1f} "
                f"pJ/cycle harvest, watermarks "
                f"{EMERGENCY_WATERMARKS['defer_nj']:.2f}/"
                f"{EMERGENCY_WATERMARKS['sleep_nj']:.2f}/"
                f"{EMERGENCY_WATERMARKS['emergency_nj']:.2f} nJ):")
            for cell in self.emergency:
                if cell.status != "ok":
                    lines.append(f"  trace {cell.trace}: DEGRADED: "
                                 f"{cell.error}")
                    continue
                lines.append(
                    f"  trace {cell.trace}: checkpoint txn "
                    f"{cell.checkpoint_txn} @cycle "
                    f"{cell.checkpoint_cycle}, died={yes_no(cell.died)}, "
                    f"recovery {cell.recovery_cycles} cycles, applied="
                    f"{yes_no(cell.checkpoint_txn_applied)}, idempotent="
                    f"{yes_no(cell.idempotent)} -> "
                    + ("VERIFIED" if cell.verified else "NOT verified"))
                for violation in cell.violations:
                    lines.append(f"    VIOLATION: {violation}")
        if self.technology:
            lines.append("technology corners (grid layer1 trace 0, "
                         "ref 250 nm / 3.3 V):")
            for row in self.technology:
                lines.append(
                    f"  {row['node_nm']:g} nm / {row['vdd']:g} V "
                    f"(x{row['scale']:.3f}): always_on "
                    f"{row['always_on_nj']:.3f} nJ -> "
                    f"{row['best_policy']} "
                    f"{row['best_adaptive_nj']:.3f} nJ")
        return Report(
            f"DPM campaign (seed={self.seed!r}, {self.traces} supply "
            f"traces x {len(self.policies)} policies x "
            f"{len(self.layers)} layers, {self.transactions} journaled "
            f"txns; table: {self.table_source}):",
            columns=[
                Column("layer", 8, "{layer}", "<"),
                Column("policy", 20, "{policy}", "<"),
                Column("harvest", 8, "{harvest_pj_per_cycle:.3f}"),
                Column("brownouts", 10, "{brownouts}"),
                Column("completed", 10, "{completed:>7}/{transactions:<2}"),
                Column("cycles", 8, "{cycles}"),
                Column("drained nJ", 11,
                       lambda cell: f"{cell.drained_pj / 1e3:.3f}"),
                Column("psm ovh pJ", 11, "{psm_overhead_pj:.2f}"),
                Column("wakes", 6, "{wakes}"),
            ],
            rows=[cell for layer in self.layers for policy in self.policies
                  for cell in self.cells
                  if cell.layer == layer and cell.policy == policy],
            keys=2, degraded=" DEGRADED (trace {trace}): {error}",
            after=lines, checks=checks,
            verdict="adaptive DPM effective, emergency recovery verified")


class _DpmWorkload(_JournalWorkload):
    """The journaled workload with seeded idle gaps before each
    transaction — bursts separated by quiet windows, the traffic shape
    DPM exists for.  Gaps derive from the workload seed only, so every
    policy arm of a trace replays the identical script."""

    def __init__(self, seed: typing.Union[int, str], transactions: int,
                 gap_range: typing.Tuple[int, int]) -> None:
        super().__init__(seed, transactions)
        rng = random.Random(f"{seed}/dpm-gaps")
        self.gaps = [rng.randrange(gap_range[0], gap_range[1] + 1)
                     for _ in range(transactions)]

    def script(self):
        items = []
        for seq, (writes, gap) in enumerate(zip(self.txn_writes,
                                                self.gaps)):
            txn_items = self.journal.update_script(seq, writes)
            items.append((gap, txn_items[0]))
            items.extend(txn_items[1:])
        return items


def _scaled(values: typing.Mapping[str, float],
            scale: float) -> typing.Dict[str, float]:
    """Supply/watermark constants re-priced at a technology point.

    A calibrated characterisation table scales every energy the card
    spends; scaling the supply's capacity, harvest rate and thresholds
    by the same factor keeps the grid's physics — and its verdict —
    identical at every (node, Vdd) point."""
    return {key: value * scale for key, value in values.items()}


def _grid_platform(layer: str, table):
    platform = SmartCardPlatform(bus_layer=layer, table=table)
    # an enabled UART idles at 0.02 pJ/cycle — the card OS keeps the
    # reader link up between APDUs, which is exactly what DPM gates
    platform.uart.registers[UART_CTRL] = UART_ENABLE
    return platform


def _run_grid_cell(layer: str, policy_name: str, trace: int,
                   harvest: float, seed, transactions: int, table,
                   supply_scale: float,
                   wall_seconds: typing.Optional[float]) -> dict:
    workload = _DpmWorkload(f"{seed}/trace{trace}", transactions,
                            GRID_GAPS)
    platform = _grid_platform(layer, table)
    workload.preload(platform)
    # no watermarks: the grid compares pure policies — degradation
    # staging would rescue the always-on baseline and muddy the verdict
    stack = platform.attach_power(
        POLICIES[policy_name](),
        supply=dict(_scaled(GRID_SUPPLY, supply_scale),
                    harvest_pj_per_cycle=harvest * supply_scale))
    supply, psms = stack.supply, stack.psms
    master = BlockingMaster(platform.simulator, platform.clock,
                            platform.bus, workload.script())
    cycles = run_script(platform.simulator, master, MAX_CYCLES,
                        platform.clock, wall_seconds=wall_seconds)
    if not master.done:
        raise RuntimeError(
            f"{layer}/{policy_name} grid arm incomplete after "
            f"{cycles} cycles")
    statuses = workload.classify(platform)
    return {
        "layer": layer, "policy": policy_name, "trace": trace,
        "harvest_pj_per_cycle": harvest,
        "brownouts": len(supply.brownouts),
        "completed": sum(1 for s in statuses if s == "new"),
        "transactions": transactions, "cycles": cycles,
        "drained_pj": supply.drained_pj,
        "psm_overhead_pj": sum(p.energy_pj for p in psms.values()),
        "wakes": sum(p.wakes for p in psms.values()),
        "forced_sleeps": sum(p.forced_sleeps for p in psms.values()),
    }


def _run_emergency_cell(trace: int, seed, transactions: int, table,
                        supply_scale: float,
                        wall_seconds: typing.Optional[float]) -> dict:
    workload = _DpmWorkload(f"{seed}/emergency{trace}", transactions,
                            EMERGENCY_GAPS)
    platform = _grid_platform("layer1", table)
    workload.preload(platform)
    script = workload.script()
    items_per_txn = len(script) // transactions
    holder: typing.Dict[str, typing.Any] = {}
    mark = {"cycle": None, "txn": None}

    def emergency_checkpoint() -> None:
        # commit the in-flight logical transaction while there is
        # still charge: re-poke its full journal frame (records, HDR,
        # COMMIT — no home writes) so boot-time recovery replays it.
        # Stage 3 gates even the critical master, so nothing overwrites
        # the frame between this commit and the power loss.
        master = holder["master"]
        k = min(master._next_index // items_per_txn, transactions - 1)
        frame = workload.journal.update_script(k, workload.txn_writes[k])
        for txn in frame[:2 * WORDS_PER_TXN + 2]:
            platform.eeprom.poke(txn.address - EEPROM_BASE, txn.data[0])
        mark["cycle"] = platform.bus.cycle
        mark["txn"] = k

    stack = platform.attach_power(
        FixedTimeoutPolicy(),
        supply=_scaled(EMERGENCY_SUPPLY, supply_scale),
        halt_on_power_loss=True,
        emergency_checkpoint=emergency_checkpoint,
        **_scaled(EMERGENCY_WATERMARKS, supply_scale))
    supply, governor = stack.supply, stack.governor
    master = BlockingMaster(platform.simulator, platform.clock,
                            platform.bus, script,
                            governor=governor.gate("journal_master",
                                                   critical=True))
    holder["master"] = master
    run_script(platform.simulator, master, MAX_CYCLES, platform.clock,
               wall_seconds=wall_seconds)

    violations: typing.List[str] = []
    died = platform.simulator.powered_off and supply.powered_down
    if not governor.emergency_checkpoints:
        violations.append("emergency checkpoint never fired")
    if not died:
        violations.append("card survived the starvation supply")
    if (mark["cycle"] is not None and supply.power_losses
            and mark["cycle"] > supply.power_losses[0].cycle):
        violations.append("checkpoint fired after the power loss")

    # cold boot + bus-level recovery, then verify
    reboot = workload.reboot(platform, wall_seconds)
    violations.extend(reboot.violations)
    booted = reboot.booted
    checkpoint_txn = mark["txn"]
    checkpoint_txn_applied = (checkpoint_txn is not None
                              and reboot.statuses[checkpoint_txn] == "new")
    if checkpoint_txn is not None and not checkpoint_txn_applied:
        violations.append(
            f"checkpointed txn {checkpoint_txn} not applied "
            f"({reboot.statuses[checkpoint_txn]})")
    snapshot = booted.eeprom.snapshot()
    workload.journal.recover(
        workload.reader(booted),
        lambda address, value: booted.eeprom.poke(address - EEPROM_BASE,
                                                  value))
    idempotent = booted.eeprom.snapshot() == snapshot
    if not idempotent:
        violations.append("second recovery pass changed the image")
    return {
        "trace": trace,
        "checkpoint_fired": bool(governor.emergency_checkpoints),
        "checkpoint_cycle": mark["cycle"],
        "checkpoint_txn": checkpoint_txn,
        "died": died,
        "completed_before_death": len(master.completed),
        "recovery_cycles": reboot.recovery_cycles,
        "checkpoint_txn_applied": checkpoint_txn_applied,
        "journal_clean": reboot.journal_clean,
        "idempotent": idempotent,
        "verified": not violations,
        "violations": violations,
    }


def _technology_rows(result_cells: typing.List[DpmCell],
                     layers: typing.Sequence[str]) -> typing.List[dict]:
    """Re-price the grid's headline energies at other technology
    corners.  Both bus layers are linear in the characterisation
    table, so the corner energy is exactly ``scale x measured``."""
    layer = layers[0]
    baseline = [c for c in result_cells
                if c.layer == layer and c.policy == "always_on"
                and c.trace == 0 and c.status == "ok"]
    adaptive = [c for c in result_cells
                if c.layer == layer and c.policy != "always_on"
                and c.trace == 0 and c.status == "ok"]
    if not baseline or not adaptive:
        return []
    best = min(adaptive, key=lambda c: c.drained_pj)
    technology = default_technology_table()
    rows = []
    for node_nm, vdd in ((350.0, 5.0), (250.0, 3.3), (180.0, 1.8),
                         (130.0, 1.8)):
        scale = technology.scale_factor(node_nm, vdd)
        rows.append({
            "node_nm": node_nm, "vdd": vdd, "scale": scale,
            "always_on_nj": scale * baseline[0].drained_pj / 1e3,
            "best_policy": best.policy,
            "best_adaptive_nj": scale * best.drained_pj / 1e3,
        })
    return rows


def run_dpm_campaign(
        traces: int = 3,
        transactions: int = 8,
        seed: typing.Union[int, str] = DEFAULT_SEED,
        policies: typing.Sequence[str] = tuple(POLICIES),
        layers: typing.Sequence[str] = LAYERS,
        node_nm: typing.Optional[float] = None,
        vdd: typing.Optional[float] = None,
        emergency: bool = True,
        emergency_cells: int = 2,
        journal_path: typing.Optional[str] = None,
        resume: bool = False,
        cell_wall_seconds: typing.Optional[float] = None,
        workers: int = 1) -> DpmCampaignResult:
    """Run the DPM policy grid and the emergency-checkpoint study.

    *traces* seeded harvest rates x *policies* x *layers* grid cells,
    plus *emergency_cells* starvation runs (layer 1).  Passing
    *node_nm*/*vdd* calibrates the characterisation table at that
    technology point before any cell runs (both must be given
    together).  With *journal_path* every finished cell is
    checkpointed (JSONL); *resume* replays journaled cells
    byte-identically; *workers* > 1 shards each phase over a process
    pool with identical results.
    """
    check_counts(traces=traces, transactions=transactions)
    check_choices("policy", policies, POLICIES)
    check_choices("layer", layers, LAYERS)
    if (node_nm is None) != (vdd is None):
        raise ValueError("node_nm and vdd must be given together")
    supervisor = CampaignSupervisor(
        "dpm_campaign", seed, journal_path=journal_path, resume=resume)
    table = characterization().table
    supply_scale = 1.0
    if node_nm is not None:
        technology = default_technology_table()
        supply_scale = technology.scale_factor(node_nm, vdd)
        table = technology.calibrate(table, node_nm, vdd)
    # stratified harvest rates: one per trace, jittered within its own
    # slice of the calibrated range so traces are distinct and seeded
    rng = random.Random(f"{seed}/dpm-traces")
    low, high = HARVEST_RANGE_PJ
    harvests = [round(low + (high - low) * (t + rng.random()) / traces,
                      3) for t in range(traces)]
    grid_specs = [
        ({"phase": "grid", "layer": layer, "policy": policy,
          "trace": trace},
         _run_grid_cell,
         (layer, policy, trace, harvests[trace], seed, transactions,
          table, supply_scale, cell_wall_seconds))
        for layer in layers
        for policy in policies
        for trace in range(traces)]
    cells = [outcome.cell(DpmCell, layer=outcome.params["layer"],
                          policy=outcome.params["policy"],
                          trace=outcome.params["trace"])
             for outcome in supervisor.run_cells(grid_specs,
                                                 workers=workers)]
    emergency_results: typing.List[EmergencyCell] = []
    if emergency:
        emergency_specs = [
            ({"phase": "emergency", "trace": trace},
             _run_emergency_cell,
             (trace, seed, transactions, table, supply_scale,
              cell_wall_seconds))
            for trace in range(emergency_cells)]
        emergency_results = [
            outcome.cell(EmergencyCell, trace=outcome.params["trace"])
            for outcome in supervisor.run_cells(emergency_specs,
                                                workers=workers)]
    return DpmCampaignResult(
        seed=seed, traces=traces, transactions=transactions,
        policies=tuple(policies), layers=tuple(layers),
        table_source=table.source, cells=cells,
        emergency=emergency_results,
        technology=_technology_rows(cells, layers))
