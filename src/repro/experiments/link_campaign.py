"""T=1 link campaign: does the link layer survive a noisy reader?

The link layer (:mod:`repro.link`) claims that every T=1 session over
the modelled UART either completes or degrades *cleanly*: bounded
retransmission, the RESYNC → IFS → ABORT ladder, no hangs, and every
picojoule the recovery machinery burns attributed to a named bucket.
This campaign puts a seeded grid behind that claim:

* **noise rates** — per-byte corruption probabilities of the
  :class:`~repro.link.NoisyChannel` (drops, bit flips, spurious bytes,
  jitter, truncated frames), including the clean 0.0 baseline,
* **bus layers** — layer 1 and layer 2, so recovery energy is priced
  by both estimation models,
* **DPM off/on** — with DPM on, the full power stack rides along
  (supply, domain, governor, per-peripheral PSMs) and the UART's
  clock-gated receiver genuinely loses wire bytes; the link layer must
  absorb those extra drops with the same machinery.

Each cell runs several sessions of seeded APDU command mixes on a
fresh platform.  The verdict demands: every session closes cleanly
(``complete`` or ``degraded``, retries within the session budget, and
the energy books balanced — clean + recovery == total), zero hangs
anywhere, and the noise-free/DPM-off baseline finishes with zero
retransmissions in either direction.

Deterministic in (seed, grid): channel faults, command mixes and
host think times all derive from per-session seed strings, so
journaled rows replay byte-identically under ``--resume`` and
``workers > 1`` shards the grid with identical results.
"""

from __future__ import annotations

import dataclasses
import random
import time
import typing

from repro.link import LinkParams, NoisyChannel, run_link_session
from repro.power import (CardPowerModel, DpmController, DpmGovernor,
                         FixedTimeoutPolicy, Layer1PowerModel,
                         Layer2PowerModel, PowerDomain, PowerSupply)
from repro.soc import SmartCardPlatform
from repro.workloads.apdu import COMMANDS

from .common import characterization
from .robustness import DEFAULT_SEED
from .supervisor import CampaignSupervisor, check_choices, check_counts

LAYERS = ("layer1", "layer2")
DPM_MODES = ("off", "on")

#: default per-byte corruption rates; 0.0 is the load-bearing baseline
#: (it must produce *zero* retransmissions, proving the link layer adds
#: no overhead when the wire is clean)
NOISE_RATES = (0.0, 0.01, 0.03)

#: host think time between commands (cycles); the DPM arm thinks
#: longer so the governor actually gets to gate the UART between APDUs
BASE_THINK = (60, 160)
DPM_THINK = (180, 500)

#: DPM-arm governor: ``gate_after`` must exceed the UART's byte pace
#: (BAUD = 16 cycles/byte) or the governor re-gates the receiver
#: *between* the bytes of a frame and every other byte is lost on the
#: wire.  At 24 the receiver stays up across a frame and only the
#: leading byte after a think gap is sacrificed to wake the card.
DPM_POLICY = dict(gate_after=24, sleep_after=300)

#: DPM-arm supply: generous enough never to brown out — this campaign
#: measures link-layer robustness under gating, not charge starvation
#: (the DPM campaign owns that axis).  ``power_loss_nj=0`` keeps every
#: session alive to its verdict.
DPM_SUPPLY = dict(capacity_nj=80.0, harvest_pj_per_cycle=6.0,
                  brownout_nj=1.0, power_loss_nj=0.0)

#: Cycle budget of each T=1 session.
MAX_CYCLES = 400_000

#: LinkCell counters summed over a cell's sessions, each read from
#: the session-report attribute of the same name unless renamed here
_SUMMED = ("commands_total", "commands_completed", "commands_shed",
           "retries", "host_retransmissions", "card_retransmissions",
           "retransmitted_bytes", "resyncs", "ifs_renegotiations",
           "wtx_grants", "aborts", "cwt_timeouts", "bwt_timeouts",
           "rx_overruns", "rx_dropped_gated", "cycles")
_RENAMED = {"retries": "session_retries",
            "rx_overruns": "uart_rx_overruns",
            "rx_dropped_gated": "uart_rx_dropped_gated"}


@dataclasses.dataclass
class LinkCell:
    """One (layer, noise, dpm) arm: *sessions* T=1 sessions."""

    layer: str
    noise: float
    dpm: str
    sessions: int = 0
    completed: int = 0
    degraded: int = 0
    hung: int = 0
    commands_total: int = 0
    commands_completed: int = 0
    commands_shed: int = 0
    retries: int = 0
    max_session_retries: int = 0
    retry_budget: int = 0
    host_retransmissions: int = 0
    card_retransmissions: int = 0
    retransmitted_bytes: int = 0
    resyncs: int = 0
    ifs_renegotiations: int = 0
    wtx_grants: int = 0
    aborts: int = 0
    cwt_timeouts: int = 0
    bwt_timeouts: int = 0
    rx_overruns: int = 0
    rx_dropped_gated: int = 0
    channel_events: int = 0
    cycles: int = 0
    energy_pj: float = 0.0
    clean_energy_pj: float = 0.0
    recovery_pj: typing.Dict[str, float] = dataclasses.field(
        default_factory=dict)
    max_unaccounted_pj: float = 0.0
    all_accounted: bool = False
    all_clean: bool = False
    status: str = "ok"
    error: typing.Optional[str] = None

    @property
    def recovery_total_pj(self) -> float:
        return sum(self.recovery_pj.values())


@dataclasses.dataclass
class LinkCampaignResult:
    seed: typing.Union[int, str]
    noise_rates: typing.Tuple[float, ...]
    layers: typing.Tuple[str, ...]
    dpm_modes: typing.Tuple[str, ...]
    sessions: int
    commands: int
    cells: typing.List[LinkCell]

    @property
    def all_cells_ok(self) -> bool:
        return all(cell.status == "ok" for cell in self.cells)

    @property
    def no_hangs(self) -> bool:
        return all(cell.hung == 0 for cell in self.cells
                   if cell.status == "ok")

    @property
    def all_sessions_clean(self) -> bool:
        """Every session of every healthy cell closed cleanly: it
        completed or degraded (never hung), kept its retries within
        the session budget, and its energy books balanced."""
        return all(cell.all_clean for cell in self.cells
                   if cell.status == "ok")

    @property
    def baseline_quiet(self) -> bool:
        """The noise-free/DPM-off arms complete every session with
        zero retransmissions in either direction — the link layer is
        free when the wire is clean."""
        baseline = [cell for cell in self.cells
                    if cell.noise == 0.0 and cell.dpm == "off"]
        if not baseline:
            return True
        return all(cell.status == "ok"
                   and cell.completed == cell.sessions
                   and cell.host_retransmissions == 0
                   and cell.card_retransmissions == 0
                   and cell.retries == 0
                   for cell in baseline)

    @property
    def passed(self) -> bool:
        return (self.all_cells_ok and self.no_hangs
                and self.all_sessions_clean and self.baseline_quiet)

    def format(self) -> str:
        lines = [
            f"T=1 link campaign (seed={self.seed!r}, "
            f"{len(self.noise_rates)} noise rates x "
            f"{len(self.layers)} layers x DPM {'/'.join(self.dpm_modes)}"
            f", {self.sessions} sessions x {self.commands} commands):",
            f"{'layer':<8}{'noise':>6}{'dpm':>5}{'ok/dg/hg':>9}"
            f"{'cmds':>8}{'retry':>6}{'retx h/c':>9}{'rsync':>6}"
            f"{'abrt':>5}{'cwt':>5}{'bwt':>5}{'gated':>6}"
            f"{'recov pJ':>10}{'total nJ':>10}{'books':>6}",
        ]
        for cell in self.cells:
            if cell.status != "ok":
                lines.append(
                    f"{cell.layer:<8}{cell.noise:>6.3f}{cell.dpm:>5}"
                    f" DEGRADED: {cell.error}")
                continue
            lines.append(
                f"{cell.layer:<8}{cell.noise:>6.3f}{cell.dpm:>5}"
                f"{cell.completed:>3}/{cell.degraded:>2}/{cell.hung:>2}"
                f"{cell.commands_completed:>4}/{cell.commands_total:<3}"
                f"{cell.retries:>6}"
                f"{cell.host_retransmissions:>4}/"
                f"{cell.card_retransmissions:<4}"
                f"{cell.resyncs:>6}{cell.aborts:>5}"
                f"{cell.cwt_timeouts:>5}{cell.bwt_timeouts:>5}"
                f"{cell.rx_dropped_gated:>6}"
                f"{cell.recovery_total_pj:>10.1f}"
                f"{cell.energy_pj / 1e3:>10.3f}"
                f"{'  ok' if cell.all_accounted else ' LEAK':>6}")
        checks = [
            ("all cells ran", self.all_cells_ok),
            ("zero hangs", self.no_hangs),
            ("every session closed cleanly (books balanced, "
             "retries within budget)", self.all_sessions_clean),
            ("clean baseline retransmission-free", self.baseline_quiet),
        ]
        for label, good in checks:
            lines.append(f"  [{'pass' if good else 'FAIL'}] {label}")
        lines.append("verdict: "
                     + ("every session completes or degrades cleanly"
                        if self.passed else "FAILED"))
        return "\n".join(lines)


def _link_platform(layer: str, dpm: str, table):
    """A fresh platform for one session, with the energy probe and
    (for the DPM arm) the full power stack attached."""
    model = (Layer1PowerModel(table) if layer == "layer1"
             else Layer2PowerModel(table))
    platform = SmartCardPlatform(bus_layer=1 if layer == "layer1" else 2,
                                 power_model=model)
    composite = CardPowerModel(model, ledgers=platform.energy_ledgers())
    if dpm == "on":
        supply = PowerSupply(composite, **DPM_SUPPLY)
        PowerDomain(platform.simulator, platform.clock, platform.bus,
                    supply, halt_on_power_loss=False)
        governor = DpmGovernor(supply, table,
                               policy=FixedTimeoutPolicy(**DPM_POLICY))
        psms = platform.attach_dpm(governor)
        for psm in psms.values():
            composite.add_ledger(psm)
        DpmController(platform.simulator, platform.clock, governor)
    account = getattr(model, "account_cycles", None)

    def probe() -> float:
        # layer 2 accrues bus-clock energy lazily; bring the books up
        # to the current cycle before reading the total (PowerSupply
        # owns energy_since_last_call_pj — only ever read the total)
        if account is not None:
            account(platform.bus.cycle)
        return composite.total_energy_pj

    return platform, probe


def _merge_recovery(total: typing.Dict[str, float],
                    part: typing.Mapping[str, float]) -> None:
    for kind, pj in part.items():
        total[kind] = total.get(kind, 0.0) + pj


def _run_link_cell(layer: str, noise: float, dpm: str, seed,
                   sessions: int, commands: int, table,
                   wall_seconds: typing.Optional[float]) -> dict:
    deadline = (time.monotonic() + wall_seconds
                if wall_seconds is not None else None)
    params = LinkParams()
    think = DPM_THINK if dpm == "on" else BASE_THINK
    outcomes = {"complete": 0, "degraded": 0, "hung": 0,
                "incomplete": 0}
    totals = dict.fromkeys(_SUMMED + ("channel_events",), 0)
    energy = clean = 0.0
    recovery: typing.Dict[str, float] = {}
    max_unaccounted = 0.0
    max_retries = 0
    all_accounted = all_clean = True
    for index in range(sessions):
        if deadline is not None and time.monotonic() > deadline:
            raise RuntimeError(
                f"cell wall budget exhausted after {index}/{sessions} "
                f"sessions")
        session_seed = f"{seed}/{layer}/n{noise}/d{dpm}/s{index}"
        mix_rng = random.Random(f"{session_seed}/mix")
        mix = ["select"] + [mix_rng.choice(COMMANDS[1:])
                            for _ in range(commands - 1)]
        channel = (NoisyChannel(noise, seed=f"{session_seed}/chan")
                   if noise > 0.0 else None)
        platform, probe = _link_platform(layer, dpm, table)
        report = run_link_session(
            platform, mix, params=params, seed=session_seed,
            channel=channel, energy_probe=probe,
            max_cycles=MAX_CYCLES, think_range=think)
        outcomes[report.outcome] = outcomes.get(report.outcome, 0) + 1
        for name in _SUMMED:
            totals[name] += getattr(report, _RENAMED.get(name, name))
        totals["channel_events"] += sum(
            count for kind, count in report.channel_events.items()
            if kind != "bytes")
        energy += report.total_energy_pj
        clean += report.clean_energy_pj
        _merge_recovery(recovery, report.recovery_energy_pj)
        max_unaccounted = max(max_unaccounted,
                              abs(report.unaccounted_pj))
        max_retries = max(max_retries, report.session_retries)
        all_accounted = all_accounted and report.accounted
        all_clean = all_clean and report.clean_close
    return {
        "layer": layer, "noise": noise, "dpm": dpm,
        "sessions": sessions,
        "completed": outcomes["complete"],
        "degraded": outcomes["degraded"],
        "hung": outcomes["hung"] + outcomes["incomplete"],
        "max_session_retries": max_retries,
        "retry_budget": params.session_retry_budget,
        "energy_pj": energy, "clean_energy_pj": clean,
        "recovery_pj": recovery,
        "max_unaccounted_pj": max_unaccounted,
        "all_accounted": all_accounted, "all_clean": all_clean,
        **totals,
    }


def run_link_campaign(
        noise_rates: typing.Sequence[float] = NOISE_RATES,
        layers: typing.Sequence[str] = LAYERS,
        dpm_modes: typing.Sequence[str] = DPM_MODES,
        sessions: int = 4,
        commands: int = 6,
        seed: typing.Union[int, str] = DEFAULT_SEED,
        journal_path: typing.Optional[str] = None,
        resume: bool = False,
        cell_wall_seconds: typing.Optional[float] = None,
        workers: int = 1) -> LinkCampaignResult:
    """Run the T=1 link grid: noise rates x layers x DPM modes.

    Each cell runs *sessions* fresh-platform T=1 sessions of
    *commands* seeded APDUs.  With *journal_path* every finished cell
    is checkpointed (JSONL); *resume* replays journaled cells
    byte-identically; *workers* > 1 shards the grid over a process
    pool with identical results.
    """
    check_counts(sessions=sessions, commands=commands)
    for rate in noise_rates:
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"noise rate must be in [0, 1), got {rate}")
    check_choices("layer", layers, LAYERS)
    check_choices("dpm mode", dpm_modes, DPM_MODES)
    supervisor = CampaignSupervisor(
        "link_campaign", seed, journal_path=journal_path, resume=resume)
    table = characterization().table
    specs = [
        ({"layer": layer, "noise": rate, "dpm": mode},
         _run_link_cell,
         (layer, rate, mode, seed, sessions, commands, table,
          cell_wall_seconds))
        for layer in layers
        for rate in noise_rates
        for mode in dpm_modes]
    cells = [outcome.cell(LinkCell, **outcome.params)
             for outcome in supervisor.run_cells(specs, workers=workers)]
    return LinkCampaignResult(
        seed=seed, noise_rates=tuple(noise_rates),
        layers=tuple(layers), dpm_modes=tuple(dpm_modes),
        sessions=sessions, commands=commands, cells=cells)
