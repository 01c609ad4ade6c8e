"""Fabric campaign: flat vs bridged topology under APDU traffic.

The routable fabric (:mod:`repro.fabric`) makes three claims:

* **routing is transparent** — the same APDU firmware traffic runs
  unmodified whether the peripherals sit on the CPU bus or behind a
  bridge, on every abstraction layer (1, 2 and 3),
* **the flat default is the legacy card** — a platform built from the
  explicit flat topology is byte-identical (cycle counts *and* probe
  energy, bit for bit) to the historical single-bus construction,
* **per-link energy books telescope** — every picojoule lands in a
  named per-link bucket (segment wires, bridge logic, arbitration,
  peripheral ledgers) and the buckets sum *exactly* to the composite
  probe total.

This campaign pins all three behind a seeded topology x layer grid.
Every timed cell runs a DMA engine alongside the CPU (multi-master
contention at the root arbiter, with the CPU's peripheral traffic
crossing the bridge in the bridged arm) and demands zero transaction
errors, drained posted queues, and balanced books.  The bridged arm
must demonstrably cross its bridge and pay for it in cycles.

Deterministic in (seed, grid): journaled rows replay byte-identically
under ``--resume`` and ``workers > 1`` shards the grid with identical
results.
"""

from __future__ import annotations

import dataclasses
import random
import typing

from repro.ec import data_read, data_write
from repro.fabric import Topology, build_fabric
from repro.power import Layer1PowerModel, Layer2PowerModel
from repro.soc import DMA_BASE, RAM_BASE, UART_BASE, SmartCardPlatform
from repro.soc.dma import CTRL, CTRL_BURST, CTRL_START, DST, LEN, SRC
from repro.tlm.master import PipelinedMaster, normalise_script, run_script
from repro.workloads.apdu import apdu_session

from .common import characterization
from .robustness import DEFAULT_SEED
from .supervisor import CampaignSupervisor, check_choices, check_counts

TOPOLOGIES = ("flat", "bridged")
FABRIC_LAYERS = ("layer1", "layer2", "layer3")

#: RAM staging windows of the campaign's DMA descriptor (outside the
#: address ranges the APDU expanders touch)
_DMA_SRC = RAM_BASE + 0x600
_DMA_DST = RAM_BASE + 0x700
_DMA_WORDS = 8

#: Cycle budget of every run_script call in a cell.
MAX_CYCLES = 300_000


@dataclasses.dataclass
class FabricCell:
    """One (topology, layer) arm of the grid."""

    topology: str
    layer: str
    cycles: int = 0
    transactions: int = 0
    errors: int = 0
    dma_words: int = 0
    cpu_grants: int = 0
    dma_grants: int = 0
    bridge_crossings: int = 0
    posted_errors: int = 0
    probe_total_pj: float = 0.0
    buckets: typing.Dict[str, float] = dataclasses.field(
        default_factory=dict)
    balanced: bool = False
    imbalance_pj: float = 0.0
    #: summed in-flight latency of the transactions that target the
    #: peripheral segment — the traffic that crosses the bridge in the
    #: bridged arm (posted writes can *shorten* root-bus contention,
    #: so whole-workload cycle counts cannot isolate the crossing)
    periph_cycles: int = 0
    #: flat arms only: explicit-flat-topology platform byte-identical
    #: to the legacy default construction (None on bridged arms)
    flat_identity: typing.Optional[bool] = None
    status: str = "ok"
    error: typing.Optional[str] = None


@dataclasses.dataclass
class FabricCampaignResult:
    seed: typing.Union[int, str]
    topologies: typing.Tuple[str, ...]
    layers: typing.Tuple[str, ...]
    commands: int
    cells: typing.List[FabricCell]

    @property
    def all_cells_ok(self) -> bool:
        return all(cell.status == "ok" for cell in self.cells)

    @property
    def books_balanced(self) -> bool:
        """Every cell's per-link buckets telescope exactly into the
        composite probe total — the fabric's attribution invariant."""
        return all(cell.balanced for cell in self.cells
                   if cell.status == "ok")

    @property
    def no_errors(self) -> bool:
        return all(cell.errors == 0 and cell.posted_errors == 0
                   for cell in self.cells if cell.status == "ok")

    @property
    def bridged_arm_crossed(self) -> bool:
        """Every bridged cell routed traffic through its bridge, and
        the timed bridged cells granted both masters at the arbiter."""
        bridged = [cell for cell in self.cells
                   if cell.status == "ok" and cell.topology == "bridged"]
        if not bridged:
            return True
        for cell in bridged:
            if cell.bridge_crossings == 0:
                return False
            if cell.layer != "layer3" and (cell.cpu_grants == 0
                                           or cell.dma_grants == 0):
                return False
        return True

    @property
    def flat_is_legacy(self) -> bool:
        """The explicit flat topology reproduces the legacy default
        single-bus platform byte-identically (cycles and energy)."""
        return all(cell.flat_identity is not False for cell in self.cells
                   if cell.status == "ok")

    @property
    def bridge_costs_cycles(self) -> bool:
        """On the timed layers, the bridged arm pays for its crossing:
        same workload, and the transactions that route across the
        bridge spend strictly more cycles in flight than they do on
        the flat bus.  (Whole-workload cycles are deliberately not
        compared: posted writes release the root bus early, which can
        *speed up* unrelated traffic and mask the crossing cost.)"""
        by_key = {(cell.topology, cell.layer): cell
                  for cell in self.cells if cell.status == "ok"}
        for layer in ("layer1", "layer2"):
            flat = by_key.get(("flat", layer))
            bridged = by_key.get(("bridged", layer))
            if flat is not None and bridged is not None \
                    and bridged.periph_cycles <= flat.periph_cycles:
                return False
        return True

    @property
    def passed(self) -> bool:
        return (self.all_cells_ok and self.books_balanced
                and self.no_errors and self.bridged_arm_crossed
                and self.flat_is_legacy and self.bridge_costs_cycles)

    def format(self) -> str:
        lines = [
            f"fabric campaign (seed={self.seed!r}, "
            f"{'/'.join(self.topologies)} x {'/'.join(self.layers)}, "
            f"{self.commands} APDU commands + DMA):",
            f"{'topology':<9}{'layer':<8}{'cycles':>8}{'periph':>7}"
            f"{'txns':>6}{'err':>4}{'dma':>4}{'grants c/d':>11}"
            f"{'cross':>6}{'total pJ':>11}{'books':>6}",
        ]
        for cell in self.cells:
            if cell.status != "ok":
                lines.append(f"{cell.topology:<9}{cell.layer:<8}"
                             f" DEGRADED: {cell.error}")
                continue
            lines.append(
                f"{cell.topology:<9}{cell.layer:<8}{cell.cycles:>8}"
                f"{cell.periph_cycles:>7}"
                f"{cell.transactions:>6}{cell.errors:>4}"
                f"{cell.dma_words:>4}"
                f"{cell.cpu_grants:>6}/{cell.dma_grants:<4}"
                f"{cell.bridge_crossings:>6}"
                f"{cell.probe_total_pj:>11.1f}"
                f"{'  ok' if cell.balanced else ' LEAK':>6}")
        checks = [
            ("all cells ran", self.all_cells_ok),
            ("per-link books telescope to the probe total",
             self.books_balanced),
            ("zero transaction / posted-write errors", self.no_errors),
            ("bridged arm crossed the bridge under contention",
             self.bridged_arm_crossed),
            ("flat topology byte-identical to the legacy card",
             self.flat_is_legacy),
            ("bridge crossing costs cycles on the timed layers",
             self.bridge_costs_cycles),
        ]
        for label, good in checks:
            lines.append(f"  [{'pass' if good else 'FAIL'}] {label}")
        lines.append("verdict: "
                     + ("per-link energy books telescope to the "
                        "probe total" if self.passed else "FAILED"))
        return "\n".join(lines)


def _campaign_topology(topology: str, layer: str) -> Topology:
    """The topology of one arm.  The timed arms arbitrate the root
    segment (CPU vs DMA); layer 3 is untimed, hence un-arbitrated."""
    arbiter = None if layer == "layer3" else "priority_rr"
    if topology == "flat":
        return Topology.flat(arbiter=arbiter)
    return Topology.two_segment(arbiter=arbiter)


def _session_script(seed_string: str, commands: int) -> list:
    return apdu_session(random.Random(seed_string), commands).script


def _periph_probe() -> typing.List:
    """Deterministic peripheral touches appended to every arm: short
    seeded sessions may never draw a peripheral access, and an arm
    with zero cross-bridge traffic proves nothing about the bridge."""
    return [data_write(UART_BASE, [0x55AA_55AA]),
            data_read(UART_BASE + 4),   # UART status
            data_read(UART_BASE)]       # UART data (loopback drain)


def _dma_descriptor(rng: random.Random) -> typing.List:
    """Bus script programming one burst RAM-to-RAM DMA move."""
    payload = [rng.getrandbits(32) for _ in range(_DMA_WORDS)]
    script = [data_write(_DMA_SRC, payload[:4]),
              data_write(_DMA_SRC + 16, payload[4:])]
    for offset, value in ((SRC, _DMA_SRC), (DST, _DMA_DST),
                          (LEN, _DMA_WORDS),
                          (CTRL, CTRL_START | CTRL_BURST)):
        script.append(data_write(DMA_BASE + 4 * offset, [value]))
    return script


def _timed_platform(topology: str, layer: str, table):
    model_cls = Layer1PowerModel if layer == "layer1" else Layer2PowerModel
    return SmartCardPlatform(
        bus_layer=1 if layer == "layer1" else 2,
        power_model=model_cls(table),
        topology=_campaign_topology(topology, layer),
        power_model_factory=lambda segment: model_cls(table),
        with_dma=True)


def _drain(platform, limit: int = 4000) -> None:
    """Run until the DMA, every segment bus and every posted queue is
    quiet — the books are only comparable on a quiescent fabric."""
    for _ in range(limit):
        quiet = (not platform.dma.busy
                 and platform.fabric.posted_writes_pending == 0
                 and all(not segment.bus.busy
                         for segment in platform.fabric.segments.values()))
        if quiet:
            return
        platform.run_cycles(1)
    raise RuntimeError(
        f"fabric did not drain within {limit} cycles (dma busy: "
        f"{platform.dma.busy}, posted: "
        f"{platform.fabric.posted_writes_pending})")


def _bridge_crossings(fabric) -> typing.Tuple[int, int]:
    crossings = sum(bridge.forwarded_reads + bridge.forwarded_writes
                    + bridge.messages_forwarded
                    for bridge in fabric.bridges.values())
    posted_errors = sum(bridge.posted_errors
                        for bridge in fabric.bridges.values())
    return crossings, posted_errors


def _flat_identity(layer: str, seed, commands: int, table,
                   wall_seconds: typing.Optional[float]) -> bool:
    """Build the same card twice — legacy default vs explicit flat
    topology — run the same session, demand bitwise-equal results."""
    results = []
    for topology in (None, Topology.flat()):
        model_cls = (Layer1PowerModel if layer == "layer1"
                     else Layer2PowerModel)
        platform = SmartCardPlatform(
            bus_layer=1 if layer == "layer1" else 2,
            power_model=model_cls(table), topology=topology)
        script = _session_script(f"{seed}/identity/{layer}", commands)
        master = PipelinedMaster(platform.simulator, platform.clock,
                                 platform.cpu_interface, script,
                                 name="cpu")
        cycles = run_script(platform.simulator, master, MAX_CYCLES,
                            platform.clock, wall_seconds=wall_seconds)
        report = platform.energy_report()
        results.append((cycles, len(master.completed),
                        report.probe_total_pj, report.balanced))
    return results[0] == results[1]


def _run_fabric_cell(topology: str, layer: str, seed, commands: int,
                     table, wall_seconds: typing.Optional[float]) -> dict:
    # the workload seed deliberately excludes the topology: the flat
    # and bridged arms of one layer replay the *same* traffic, so
    # their cycle counts isolate the cost of the bridge crossing
    rng = random.Random(f"{seed}/dma/{layer}")
    if layer == "layer3":
        return _run_layer3_cell(topology, rng, seed, commands)
    platform = _timed_platform(topology, layer, table)
    script = (_dma_descriptor(rng)
              + _session_script(f"{seed}/session/{layer}", commands)
              + _periph_probe())
    master = PipelinedMaster(platform.simulator, platform.clock,
                             platform.cpu_interface, script, name="cpu")
    run_script(platform.simulator, master, MAX_CYCLES, platform.clock,
               wall_seconds=wall_seconds)
    _drain(platform)
    # summed in-flight latency: end-to-end wall time hides the bridge
    # (crossings absorb into the script's inter-command gaps), but the
    # cycles each transaction spends on the bus cannot lie
    busy_cycles = sum(t.latency_cycles or 0 for t in master.completed)
    periph_cycles = sum(t.latency_cycles or 0 for t in master.completed
                        if UART_BASE <= t.address < DMA_BASE)
    report = platform.energy_report()
    arbiter = platform.fabric.root.arbiter
    grants = {port.name: port.grants for port in arbiter.ports}
    crossings, posted_errors = _bridge_crossings(platform.fabric)
    identity = (None if topology != "flat"
                else _flat_identity(layer, seed, commands, table,
                                    wall_seconds))
    return {
        "topology": topology, "layer": layer,
        "cycles": busy_cycles,  # summed per-transaction bus occupancy
        "periph_cycles": periph_cycles,
        "transactions": len(master.completed),
        "errors": len(master.errors),
        "dma_words": platform.dma.words_moved,
        "cpu_grants": grants.get("cpu", 0),
        "dma_grants": grants.get("dma", 0),
        "bridge_crossings": crossings,
        "posted_errors": posted_errors,
        "probe_total_pj": report.probe_total_pj,
        "buckets": dict(report.buckets),
        "balanced": report.balanced,
        "imbalance_pj": report.imbalance_pj,
        "flat_identity": identity,
    }


def _run_layer3_cell(topology: str, rng: random.Random, seed,
                     commands: int) -> dict:
    """The untimed arm: same traffic, synchronous routing, energy from
    the peripheral + bridge ledgers only (layer 3 prices no wires)."""
    platform = SmartCardPlatform(bus_layer=1)  # slave farm only
    named = {"rom": platform.rom, "flash": platform.flash,
             "eeprom": platform.eeprom, "ram": platform.ram,
             "uart": platform.uart, "timers": platform.timers,
             "trng": platform.rng, "intc": platform.intc}
    fabric = build_fabric(_campaign_topology(topology, "layer3"),
                          named, bus_layer=3)
    script = (_session_script(f"{seed}/session/layer3", commands)
              + _periph_probe())
    errors = completed = 0
    for _, transaction in normalise_script(script):
        state = fabric.root_bus.issue(transaction)
        if not state.finished:
            raise RuntimeError(
                f"layer-3 transaction did not complete synchronously: "
                f"{transaction}")
        completed += 1
        if transaction.error:
            errors += 1
    report = fabric.energy_report(platform.energy_ledgers())
    crossings, posted_errors = _bridge_crossings(fabric)
    return {
        "topology": topology, "layer": "layer3",
        "cycles": 0, "transactions": completed, "errors": errors,
        "dma_words": 0, "cpu_grants": 0, "dma_grants": 0,
        "bridge_crossings": crossings, "posted_errors": posted_errors,
        "probe_total_pj": report.probe_total_pj,
        "buckets": dict(report.buckets),
        "balanced": report.balanced,
        "imbalance_pj": report.imbalance_pj,
        "flat_identity": None,
    }


def run_fabric_campaign(
        topologies: typing.Sequence[str] = TOPOLOGIES,
        layers: typing.Sequence[str] = FABRIC_LAYERS,
        commands: int = 8,
        seed: typing.Union[int, str] = DEFAULT_SEED,
        journal_path: typing.Optional[str] = None,
        resume: bool = False,
        cell_wall_seconds: typing.Optional[float] = None,
        workers: int = 1) -> FabricCampaignResult:
    """Run the fabric grid: topologies x abstraction layers.

    Each timed cell replays a seeded APDU session plus a DMA burst
    move through a fresh platform and checks routing, contention and
    exact per-link energy telescoping; *cell_wall_seconds* bounds its
    bus runs through the master's progress watchdog (the untimed
    layer-3 arm routes synchronously and has no run to bound).  With
    *journal_path* every finished cell is checkpointed (JSONL);
    *resume* replays journaled cells byte-identically; *workers* > 1
    shards the grid over a process pool with identical results.
    """
    check_counts(commands=commands)
    check_choices("topology", topologies, TOPOLOGIES)
    check_choices("layer", layers, FABRIC_LAYERS)
    supervisor = CampaignSupervisor(
        "fabric_campaign", seed, journal_path=journal_path,
        resume=resume)
    table = characterization().table
    specs = [
        ({"topology": topology, "layer": layer}, _run_fabric_cell,
         (topology, layer, seed, commands, table, cell_wall_seconds))
        for topology in topologies
        for layer in layers]
    cells = [outcome.cell(FabricCell, **outcome.params)
             for outcome in supervisor.run_cells(specs, workers=workers)]
    return FabricCampaignResult(
        seed=seed, topologies=tuple(topologies), layers=tuple(layers),
        commands=commands, cells=cells)
