"""Cross-layer differential oracle for chaos scenarios.

One scenario runs three times — on the cycle-accurate layer-1 bus, the
timed layer-2 bus and the untimed layer-3 bus — over identical seeded
traffic, an identical fabric topology and an *identical* fabric fault
schedule (pure per-crossing decisions, see :mod:`repro.faults.fabric`).
The layers disagree about time by design; they must agree about
everything else.  The oracle checks:

* **no hangs** — each timed run sits under a
  :class:`~repro.kernel.ProgressWatchdog`; a trip is a finding, never
  a silent timeout,
* **outcome equality** — per script item, every layer reports the same
  ok / error-cause verdict (the CPU is a blocking master, so program
  order — and therefore the crossing index each fault lands on — is
  identical across layers),
* **memory equality** — the digest over the architecturally-visible
  memory span (scratchpad RAM + EEPROM) matches across layers,
* **fault accounting** — each fault process's ``fired`` counts match
  the bridge/arbiter counters on its own layer *and* match across
  layers; every master-visible error carries a definite cause; posted
  queues drain to empty and nothing is journaled as lost,
* **balanced books** — each layer's per-link energy buckets telescope
  bitwise into its composite probe total, faults included,
* **energy envelope** — the layer-2 probe total stays within the
  accuracy-study envelope of the layer-1 reference.

Divergences are classified (``hang``, ``outcome``, ``memory``,
``fault_accounting``, ``energy_leak``, ``energy_envelope``) and folded
into a stable ``failure_signature`` the shrinker preserves while
minimising.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import struct
import typing

from repro.ec import RetryPolicy
from repro.faults.fabric import build_fault_processes
from repro.fabric import Topology
from repro.kernel import StallError
from repro.power import FixedTimeoutPolicy
from repro.soc import SmartCardPlatform
from repro.soc.dma import ram_move_script
from repro.tlm.layer3 import MessageRun
from repro.tlm.master import BlockingMaster, run_script

from .scenario import ChaosScenario, scenario_script

CHAOS_LAYERS = ("layer1", "layer2", "layer3")

#: L2/L1 probe-total ratio bounds — generous on purpose: the envelope
#: flags abstraction *breakage* (an order-of-magnitude leak), not the
#: few-percent modeling error the accuracy study quantifies
ENERGY_ENVELOPE = (0.3, 3.0)

#: architecturally-visible digest span: the RAM/EEPROM bytes the
#: workloads write (DMA staging sits above RAM+0x400 and is excluded —
#: the untimed layer runs no DMA engine)
_DIGEST_RAM_BYTES = 0x400
_DIGEST_EEPROM_BYTES = 0x1000

#: recovery policy of scenarios with ``retry=True``; no per-attempt
#: watchdog — injected stall windows must trip the *progress* watchdog
#: (a finding) instead of being silently cancelled mid-flight
_RETRY_POLICY = RetryPolicy(max_attempts=3, backoff_cycles=2,
                            timeout_cycles=None)

#: cycles a timed run may take to settle after its script; a fabric
#: still busy after them is a hang finding
DRAIN_CYCLES = 20_000


@dataclasses.dataclass
class LayerRun:
    """What one layer observed for one scenario (JSON-stable)."""

    layer: str
    hang: bool
    hang_diagnostic: typing.Optional[str]
    outcomes: typing.List[typing.List]  # [kind, address, verdict]
    digest: str
    cycles: int
    transactions: int
    errors: int
    retries: int
    uncaused_errors: int
    fault_reports: int
    recovered: int
    crossings_read: int
    crossings_write: int
    fired: typing.Dict[str, int]
    glitches_fired: int
    bridge_counters: typing.Dict[str, int]
    posted_pending: int
    posted_lost: int
    dma_words: int
    probe_total_pj: float
    balanced: bool
    imbalance_pj: float

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class ScenarioResult:
    """The oracle's verdict over the three layer runs."""

    scenario: ChaosScenario
    layers: typing.List[LayerRun]
    divergences: typing.List[typing.Dict[str, str]]

    @property
    def passed(self) -> bool:
        return not self.divergences

    @property
    def failure_signature(self) -> str:
        """Stable classification of *how* the scenario failed: the
        sorted set of divergence kinds.  Details (cycle counts,
        picojoules) deliberately excluded — a shrunken scenario fails
        "the same way" when its kinds match."""
        kinds = sorted({item["kind"] for item in self.divergences})
        return "+".join(kinds) if kinds else "pass"

    @property
    def faults_fired(self) -> int:
        if not self.layers:
            return 0
        first = self.layers[0]
        return sum(first.fired.values()) + first.glitches_fired

    def to_dict(self) -> dict:
        return {"scenario": self.scenario.to_dict(),
                "layers": [run.to_dict() for run in self.layers],
                "divergences": self.divergences,
                "signature": self.failure_signature}


def _topology(scenario: ChaosScenario, layer: str) -> Topology:
    arbiter = None if layer == "layer3" else scenario.arbiter
    return Topology.two_segment(
        crossing_cycles=scenario.crossing_cycles,
        posted_depth=scenario.posted_depth,
        arbiter=arbiter)


def _memory_digest(platform: SmartCardPlatform) -> str:
    """SHA-256 over the digest span of RAM + EEPROM, little-endian
    words.  Taken from the back-door snapshot, so it books no bus reads
    and no events."""
    hasher = hashlib.sha256()
    for slave, span in ((platform.ram, _DIGEST_RAM_BYTES),
                        (platform.eeprom, _DIGEST_EEPROM_BYTES)):
        span = min(span, slave.size) // 4 * 4
        window = bytearray(span)
        for offset, word in slave.snapshot().items():
            if offset < span:
                struct.pack_into("<I", window, offset, word)
        hasher.update(window)
    return hasher.hexdigest()


def _item_outcomes(completed: typing.List) -> typing.List[typing.List]:
    """Final per-item verdicts in script order: each master finishes
    items strictly in order, and ``completed`` holds one final attempt
    per item."""
    outcomes = []
    for transaction in completed:
        verdict = ("ok" if not transaction.error
                   else (transaction.error_cause.value
                         if transaction.error_cause else "uncaused"))
        outcomes.append([transaction.kind.value, transaction.address,
                         verdict])
    return outcomes


def _bridge_counter_dict(bridge) -> typing.Dict[str, int]:
    return {
        "route_faults": bridge.route_faults,
        "posted_dropped": bridge.posted_dropped,
        "posted_duplicated": bridge.posted_duplicated,
        "fault_stall_cycles": bridge.fault_stall_cycles,
        "posted_errors": bridge.posted_errors,
        "posted_flushed_on_power_off": bridge.posted_flushed_on_power_off,
        "posted_lost_on_power_off": bridge.posted_lost_on_power_off,
    }


def _run_layer(scenario: ChaosScenario, layer: str) -> LayerRun:
    """One arm.  A timed layer runs the scenario's DMA and DPM under a
    blocking master and the progress watchdog; layer 3 completes the
    same script synchronously, with the same retry decisions."""
    from repro.experiments.common import characterization
    timed = layer != "layer3"
    platform = SmartCardPlatform(
        bus_layer=layer, table=characterization().table,
        topology=_topology(scenario, layer),
        with_dma=timed and scenario.with_dma)
    fault_process, glitch_process = build_fault_processes(scenario.faults)
    bridge = platform.fabric.bridge("bridge")
    bridge.fault_process = fault_process
    arbiter = platform.fabric.root.arbiter
    if arbiter is not None:
        arbiter.glitch_process = glitch_process

    psm_ledgers: typing.List = []
    if timed and scenario.dpm:
        # default supply, well-fed: chaos, not brownout
        stack = platform.attach_power(FixedTimeoutPolicy())
        psm_ledgers = list(stack.psms.values())

    script = scenario_script(scenario)
    dma_items = 0
    if platform.dma is not None:
        # a root-segment RAM-to-RAM move: it never crosses the bridge,
        # so it perturbs arbitration without using fault crossings
        dma_script = ram_move_script(random.Random(f"{scenario.seed}/dma"))
        dma_items = len(dma_script)
        script = dma_script + script
    policy = _RETRY_POLICY if scenario.retry else None

    hang = False
    diagnostic = None
    cycles = 0
    if timed:
        master = BlockingMaster(
            platform.simulator, platform.clock, platform.cpu_interface,
            script, name="cpu", retry_policy=policy)
        try:
            cycles = run_script(platform.simulator, master,
                                scenario.max_cycles, platform.clock,
                                stall_cycles=scenario.stall_cycles)
            if not platform.drain(DRAIN_CYCLES):
                hang = True
                diagnostic = "fabric did not drain after script completion"
        except StallError as exc:
            hang = True
            diagnostic = str(exc).splitlines()[0]
    else:
        master = MessageRun(platform.cpu_interface, script,
                            retry_policy=policy)

    report = platform.fabric.energy_report(
        platform.energy_ledgers() + psm_ledgers)
    return LayerRun(
        layer=layer, hang=hang, hang_diagnostic=diagnostic,
        outcomes=_item_outcomes(master.completed)[dma_items:],
        digest=_memory_digest(platform), cycles=cycles,
        transactions=len(master.completed) - dma_items,
        errors=len(master.errors), retries=master.retries,
        uncaused_errors=sum(1 for txn in master.errors
                            if txn.error_cause is None),
        fault_reports=len(master.fault_reports),
        recovered=sum(1 for rep in master.fault_reports
                      if rep.recovered),
        crossings_read=bridge._read_crossings,
        crossings_write=bridge._write_crossings,
        fired=dict(fault_process.fired),
        glitches_fired=glitch_process.fired,
        bridge_counters=_bridge_counter_dict(bridge),
        posted_pending=platform.fabric.posted_writes_pending,
        posted_lost=bridge.posted_lost_on_power_off,
        dma_words=(platform.dma.words_moved
                   if platform.dma is not None else 0),
        probe_total_pj=report.probe_total_pj,
        balanced=report.balanced,
        imbalance_pj=report.imbalance_pj)


def _classify(scenario: ChaosScenario,
              runs: typing.List[LayerRun]
              ) -> typing.List[typing.Dict[str, str]]:
    divergences: typing.List[typing.Dict[str, str]] = []

    def finding(kind: str, detail: str) -> None:
        divergences.append({"kind": kind, "detail": detail})

    for run in runs:
        if run.hang:
            finding("hang", f"{run.layer}: {run.hang_diagnostic}")
    if any(run.hang for run in runs):
        # a hung layer's books/outcomes are meaningless — report the
        # hang alone so the signature stays stable under shrinking
        return divergences

    reference = runs[0]
    for run in runs[1:]:
        if run.outcomes != reference.outcomes:
            detail = f"{reference.layer} vs {run.layer}"
            for i, (a, b) in enumerate(zip(reference.outcomes,
                                           run.outcomes)):
                if a != b:
                    detail += f" first at item {i}: {a} != {b}"
                    break
            else:
                detail += (f" lengths {len(reference.outcomes)} != "
                           f"{len(run.outcomes)}")
            finding("outcome", detail)
        if run.digest != reference.digest:
            finding("memory",
                    f"{reference.layer} vs {run.layer} digest mismatch")

    for run in runs:
        counters = run.bridge_counters
        expected = {
            "route_faults": run.fired.get("route_error", 0),
            "posted_dropped": run.fired.get("drop_write", 0),
            "posted_duplicated": run.fired.get("dup_write", 0),
        }
        for key, want in expected.items():
            if counters.get(key, 0) != want:
                finding("fault_accounting",
                        f"{run.layer}: bridge {key}={counters.get(key)} "
                        f"but process fired {want}")
        if run.uncaused_errors:
            finding("fault_accounting",
                    f"{run.layer}: {run.uncaused_errors} errors "
                    f"without a cause")
        if run.posted_pending:
            finding("fault_accounting",
                    f"{run.layer}: {run.posted_pending} posted writes "
                    f"still queued after drain")
        if run.posted_lost:
            finding("fault_accounting",
                    f"{run.layer}: {run.posted_lost} posted writes "
                    f"lost at power-off")
        if scenario.retry and run.errors > run.fault_reports:
            finding("fault_accounting",
                    f"{run.layer}: {run.errors} errors but only "
                    f"{run.fault_reports} fault reports")
    for run in runs[1:]:
        for key in ("crossings_read", "crossings_write"):
            if getattr(run, key) != getattr(reference, key):
                finding("fault_accounting",
                        f"{key}: {reference.layer}="
                        f"{getattr(reference, key)} vs {run.layer}="
                        f"{getattr(run, key)}")
        if run.fired != reference.fired:
            finding("fault_accounting",
                    f"fired counts diverge: {reference.layer}="
                    f"{reference.fired} vs {run.layer}={run.fired}")

    for run in runs:
        if not run.balanced:
            finding("energy_leak",
                    f"{run.layer}: probe != bucket sum "
                    f"(imbalance {run.imbalance_pj:+.6f} pJ)")
    by_layer = {run.layer: run for run in runs}
    l1, l2 = by_layer.get("layer1"), by_layer.get("layer2")
    if l1 is not None and l2 is not None and l1.probe_total_pj > 0:
        ratio = l2.probe_total_pj / l1.probe_total_pj
        if not (ENERGY_ENVELOPE[0] <= ratio <= ENERGY_ENVELOPE[1]):
            finding("energy_envelope",
                    f"L2/L1 probe ratio {ratio:.3f} outside "
                    f"{ENERGY_ENVELOPE}")
    return divergences


def run_scenario(scenario: ChaosScenario,
                 layers: typing.Sequence[str] = CHAOS_LAYERS
                 ) -> ScenarioResult:
    """Run *scenario* on every requested layer and classify the
    cross-layer divergences (empty list = the scenario passed)."""
    runs = [_run_layer(scenario, layer) for layer in layers]
    return ScenarioResult(scenario=scenario, layers=runs,
                          divergences=_classify(scenario, runs))
