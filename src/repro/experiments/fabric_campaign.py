"""Fabric campaign: flat vs bridged topology under APDU traffic.

The routable fabric (:mod:`repro.fabric`) makes three claims:

* **routing is transparent** — the same APDU firmware traffic runs
  unmodified whether the peripherals sit on the CPU bus or behind a
  bridge, on every abstraction layer (1, 2 and 3),
* **the flat default is the flat topology** — a platform built from
  the explicit flat topology is byte-identical (cycle counts *and*
  probe energy, bit for bit) to the default-constructed card,
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
from repro.fabric import Topology
from repro.report import Column, Report, Reported
from repro.soc import DMA_BASE, UART_BASE, SmartCardPlatform
from repro.soc.dma import ram_move_script
from repro.tlm.layer3 import MessageRun
from repro.tlm.master import PipelinedMaster, run_script
from repro.workloads.apdu import apdu_session

from .common import characterization
from .robustness import DEFAULT_SEED
from .supervisor import CampaignSupervisor, check_choices, check_counts

TOPOLOGIES = ("flat", "bridged")
FABRIC_LAYERS = ("layer1", "layer2", "layer3")

#: Cycle budget of every run_script call in a cell.
MAX_CYCLES = 300_000

#: Cycles a timed cell may take to drain after its script completes.
DRAIN_CYCLES = 4000


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
    #: to the default-constructed card (None on bridged arms)
    flat_identity: typing.Optional[bool] = None
    status: str = "ok"
    error: typing.Optional[str] = None


@dataclasses.dataclass
class FabricCampaignResult(Reported):
    seed: typing.Union[int, str]
    topologies: typing.Tuple[str, ...]
    layers: typing.Tuple[str, ...]
    commands: int
    cells: typing.List[FabricCell]

    def report(self) -> Report:
        ok = [cell for cell in self.cells if cell.status == "ok"]
        arm = {(cell.topology, cell.layer): cell for cell in ok}
        return Report(
            f"fabric campaign (seed={self.seed!r}, "
            f"{'/'.join(self.topologies)} x {'/'.join(self.layers)}, "
            f"{self.commands} APDU commands + DMA):",
            columns=[
                Column("topology", 9, "{topology}", "<"),
                Column("layer", 8, "{layer}", "<"),
                Column("cycles", 8, "{cycles}"),
                Column("periph", 7, "{periph_cycles}"),
                Column("txns", 6, "{transactions}"),
                Column("err", 4, "{errors}"),
                Column("dma", 4, "{dma_words}"),
                Column("grants c/d", 11, "{cpu_grants:>6}/{dma_grants:<4}"),
                Column("cross", 6, "{bridge_crossings}"),
                Column("total pJ", 11, "{probe_total_pj:.1f}"),
                Column("books", 6,
                       lambda cell: "ok" if cell.balanced else "LEAK"),
            ], rows=self.cells, keys=2,
            degraded=" DEGRADED: {error}",
            checks=[
                ("all cells ran", len(ok) == len(self.cells)),
                # the fabric's attribution invariant, bit for bit
                ("per-link books telescope to the probe total",
                 all(cell.balanced for cell in ok)),
                ("zero transaction / posted-write errors",
                 all(cell.errors == 0 and cell.posted_errors == 0
                     for cell in ok)),
                # the timed arms also granted both masters
                ("bridged arm crossed the bridge under contention",
                 all(cell.bridge_crossings > 0
                     and (cell.layer == "layer3"
                          or (cell.cpu_grants > 0 and cell.dma_grants > 0))
                     for cell in ok if cell.topology == "bridged")),
                # in cycles and energy
                ("flat topology byte-identical to the legacy card",
                 all(cell.flat_identity is not False for cell in ok)),
                # the in-flight cycles of the traffic that crosses, on
                # the same workload; whole-workload cycles would not
                # do: posted writes release the root bus early, which
                # can speed up other traffic and mask the crossing cost
                ("bridge crossing costs cycles on the timed layers",
                 all(arm["bridged", layer].periph_cycles
                     > arm["flat", layer].periph_cycles
                     for layer in ("layer1", "layer2")
                     if ("flat", layer) in arm
                     and ("bridged", layer) in arm)),
            ],
            verdict="per-link energy books telescope to the probe total")


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


def _bridge_crossings(fabric) -> typing.Tuple[int, int]:
    crossings = sum(bridge.forwarded_reads + bridge.forwarded_writes
                    + bridge.messages_forwarded
                    for bridge in fabric.bridges.values())
    posted_errors = sum(bridge.posted_errors
                        for bridge in fabric.bridges.values())
    return crossings, posted_errors


def _flat_identity(layer: str, seed, commands: int, table,
                   wall_seconds: typing.Optional[float]) -> bool:
    """Build the same card twice — default vs explicit flat topology,
    both through :func:`~repro.fabric.build_fabric` — run the same
    session, demand bitwise-equal results."""
    results = []
    for topology in (None, Topology.flat()):
        platform = SmartCardPlatform(bus_layer=layer, table=table,
                                     topology=topology)
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
    if layer == "layer3":
        return _run_layer3_cell(topology, seed, commands)
    # the workload seed deliberately excludes the topology: the flat
    # and bridged arms of one layer replay the *same* traffic, so
    # their cycle counts isolate the cost of the bridge crossing
    rng = random.Random(f"{seed}/dma/{layer}")
    platform = SmartCardPlatform(
        bus_layer=layer, table=table,
        topology=_campaign_topology(topology, layer), with_dma=True)
    script = (ram_move_script(rng)
              + _session_script(f"{seed}/session/{layer}", commands)
              + _periph_probe())
    master = PipelinedMaster(platform.simulator, platform.clock,
                             platform.cpu_interface, script, name="cpu")
    run_script(platform.simulator, master, MAX_CYCLES, platform.clock,
               wall_seconds=wall_seconds)
    if not platform.drain(DRAIN_CYCLES):
        raise RuntimeError(
            f"fabric did not drain within {DRAIN_CYCLES} cycles (dma "
            f"busy: {platform.dma.busy}, posted: "
            f"{platform.fabric.posted_writes_pending})")
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


def _run_layer3_cell(topology: str, seed, commands: int) -> dict:
    """The untimed arm: same traffic, synchronous routing, energy from
    the peripheral + bridge ledgers only (layer 3 prices no wires)."""
    platform = SmartCardPlatform(
        bus_layer="layer3", topology=_campaign_topology(topology, "layer3"))
    run = MessageRun(platform.cpu_interface,
                     _session_script(f"{seed}/session/layer3", commands)
                     + _periph_probe())
    report = platform.energy_report()
    crossings, posted_errors = _bridge_crossings(platform.fabric)
    return {
        "topology": topology, "layer": "layer3",
        "cycles": 0, "transactions": len(run.completed),
        "errors": len(run.errors),
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
