"""The report text of results no smoke run produces.

The golden manifest pins the campaigns' reports as their passing runs
print them.  Here each of the eight campaign results is built by hand
with one degraded cell and at least one failing check or violation,
so the ``DEGRADED`` rows, the ``[FAIL]`` check lines and the
``FAILED`` verdicts are pinned too.  Two more results fail one rule
with every cell ok: a tear run whose only failure is the governor, and
a DPM arm with fewer brownouts but less completed work — their check
lines must say so.  Every failing result prints a ``[FAIL]`` line and
ends ``verdict: FAILED``.  Table 3 is pinned from a fixed
result, with and without the gate-level row, because its real numbers
are wall-clock rates.  Every expected text is a literal: a change to
any column, check or verdict fails here with the two texts side by
side.
"""

import pytest

from repro.experiments.bus_sweep import BusSweepResult, SweepPoint
from repro.experiments.chaos_campaign import (ChaosCampaignResult,
                                              ChaosCell, ShrinkCell)
from repro.experiments.dpm_campaign import (DpmCampaignResult, DpmCell,
                                            EmergencyCell)
from repro.experiments.fabric_campaign import (FabricCampaignResult,
                                               FabricCell)
from repro.experiments.fault_campaign import (CampaignCell,
                                              FaultCampaignResult)
from repro.experiments.link_campaign import LinkCampaignResult, LinkCell
from repro.experiments.robustness import RobustnessResult, RobustnessRow
from repro.experiments.table3 import Table3Result, Table3Row
from repro.experiments.tear_campaign import (GovernorCell, TearCampaignResult,
                                             TearCell)


def faults():
    return FaultCampaignResult(
        seed="pin", rates=(0.0, 0.05), classes=("random_mix",),
        cells=[
            CampaignCell("layer1", "random_mix", 0.0, transactions=40,
                         cycles=900, energy_pj=1234.5, cycle_overhead=0,
                         energy_overhead_pj=0.0, retry_energy_pj=0.0),
            CampaignCell("layer1", "random_mix", 0.05, transactions=40,
                         failures=2, retries=7, timeouts=1, cycles=1010,
                         energy_pj=1400.25, cycle_overhead=110,
                         energy_overhead_pj=165.75,
                         retry_energy_pj=88.125),
            CampaignCell("gate-level", "random_mix", 0.05,
                         transactions=40, retries=3, cycles=1005,
                         cycle_overhead=-5, energy_overhead_pj=-2.5),
            CampaignCell("layer2", "random_mix", 0.05, status="degraded",
                         error="stalled twice"),
        ])


def tear():
    return TearCampaignResult(
        seed="pin", points=2, transactions=3, layers=("layer1", "layer2"),
        baselines={"layer1": {"layer": "layer1"},
                   "layer2": {"layer": "layer2",
                              "error": "baseline crashed"}},
        cells=[
            TearCell("layer1", 120, torn=True, transactions=3, applied=1,
                     committed_at_tear=True, replayed=True,
                     recovery_cycles=41, recovery_energy_pj=5321.0,
                     consistent=True),
            TearCell("layer1", 240, torn=True, transactions=3,
                     replayed=True, recovery_cycles=44,
                     recovery_energy_pj=5500.5, consistent=False,
                     violations=["txn 1 partially committed",
                                 "journal still committed after "
                                 "recovery"]),
            TearCell("layer2", 120, status="degraded",
                     error="crashed twice"),
        ],
        governor=[
            GovernorCell(True, completed=True, cycles=5000, brownouts=2,
                         deferrals=9, drained_pj=300.0),
            GovernorCell(False, status="degraded", error="stalled"),
        ])


def dpm():
    return DpmCampaignResult(
        seed="pin", traces=1, transactions=6,
        policies=("always_on", "budget_aware"), layers=("layer1",),
        table_source="default characterisation",
        cells=[
            DpmCell("layer1", "always_on", 0, harvest_pj_per_cycle=0.35,
                    brownouts=4, completed=6, transactions=6,
                    cycles=12000, drained_pj=2500.0, psm_overhead_pj=0.0,
                    wakes=0),
            DpmCell("layer1", "budget_aware", 0, status="degraded",
                    error="stalled twice"),
        ],
        emergency=[
            EmergencyCell(0, checkpoint_fired=True, checkpoint_cycle=800,
                          checkpoint_txn=2, died=True,
                          completed_before_death=2, recovery_cycles=37,
                          checkpoint_txn_applied=False, journal_clean=True,
                          idempotent=True, verified=False,
                          violations=["checkpointed txn 2 not applied"]),
            EmergencyCell(1, status="degraded", error="crashed"),
        ],
        technology=[dict(node_nm=130, vdd=1.2, scale=0.1234,
                         always_on_nj=1.5, best_policy="budget_aware",
                         best_adaptive_nj=1.25)])


def tear_governor_ineffective():
    # every tear point consistent; only the governor sub-study fails
    return TearCampaignResult(
        seed="pin", points=1, transactions=3, layers=("layer1",),
        baselines={"layer1": {"layer": "layer1"}},
        cells=[
            TearCell("layer1", 120, torn=True, transactions=3, applied=1,
                     committed_at_tear=True, replayed=True,
                     recovery_cycles=41, recovery_energy_pj=5321.0,
                     consistent=True),
        ],
        governor=[
            GovernorCell(True, completed=True, cycles=5000, brownouts=3,
                         deferrals=9, drained_pj=300.0),
            GovernorCell(False, completed=True, cycles=4800, brownouts=3,
                         drained_pj=310.0),
        ])


def dpm_fewer_brownouts_less_work():
    # the adaptive arm browns out less but completes less work than
    # always-on: it does not beat the baseline, check and verdict alike
    return DpmCampaignResult(
        seed="pin", traces=1, transactions=6,
        policies=("always_on", "fixed_timeout"), layers=("layer1",),
        table_source="default characterisation",
        cells=[
            DpmCell("layer1", "always_on", 0, harvest_pj_per_cycle=0.35,
                    brownouts=4, completed=6, transactions=6,
                    cycles=12000, drained_pj=2500.0),
            DpmCell("layer1", "fixed_timeout", 0,
                    harvest_pj_per_cycle=0.35, brownouts=1, completed=4,
                    transactions=6, cycles=11000, drained_pj=2000.0,
                    psm_overhead_pj=12.5, wakes=3),
        ],
        emergency=[], technology=[])


def link():
    return LinkCampaignResult(
        seed="pin", noise_rates=(0.0, 0.02), layers=("layer1",),
        dpm_modes=("off", "on"), sessions=2, commands=4,
        cells=[
            LinkCell("layer1", 0.0, "off", sessions=2, completed=2,
                     commands_total=8, commands_completed=8, retries=1,
                     host_retransmissions=1, energy_pj=4567.0,
                     all_accounted=True, all_clean=True),
            LinkCell("layer1", 0.02, "off", sessions=2, completed=1,
                     degraded=0, hung=1, commands_total=8,
                     commands_completed=5, retries=6,
                     host_retransmissions=3, card_retransmissions=2,
                     resyncs=1, aborts=1, cwt_timeouts=2, bwt_timeouts=1,
                     rx_dropped_gated=4, energy_pj=9876.5,
                     recovery_pj={"retransmit": 100.25, "resync": 20.5},
                     all_accounted=False, all_clean=False),
            LinkCell("layer1", 0.02, "on", status="degraded",
                     error="crashed twice"),
        ])


def fabric():
    return FabricCampaignResult(
        seed="pin", topologies=("flat", "bridged"), layers=("layer1",),
        commands=4,
        cells=[
            FabricCell("flat", "layer1", cycles=700, transactions=30,
                       dma_words=8, cpu_grants=30, dma_grants=8,
                       probe_total_pj=4321.0, balanced=True,
                       periph_cycles=12, flat_identity=True),
            FabricCell("bridged", "layer1", cycles=690, transactions=30,
                       errors=1, dma_words=8, cpu_grants=30,
                       dma_grants=8, bridge_crossings=3,
                       probe_total_pj=4400.5, balanced=False,
                       periph_cycles=10),
            FabricCell("bridged", "layer3", status="degraded",
                       error="crashed twice"),
        ])


def chaos():
    return ChaosCampaignResult(
        seed="pin", scenarios=3,
        cells=[
            ChaosCell(0, "chaos-0", signature="ok", passed=True,
                      faults_scheduled=2, faults_fired=1,
                      fired={"drop_write": 1, "read_stall": 0},
                      balanced=True, recovered=1, fault_reports=2),
            ChaosCell(1, "chaos-1", signature="divergence:cycles",
                      passed=False, hangs=1, balanced=True,
                      divergences=[{"detail": "layer2 ran 3 cycles "
                                              "longer"}]),
            ChaosCell(2, "chaos-2", status="degraded",
                      error="crashed twice"),
        ],
        selftest=ShrinkCell(signature="hang", runs=12, steps=4,
                            replayed=False,
                            original={"faults": [{}, {}, {}]},
                            minimal_faults=1))


def robustness():
    return RobustnessResult([
        RobustnessRow("random_mix", cycles=1500, layer1_timing_error=0.0,
                      layer2_timing_error=0.5, layer1_energy_error=-5.75,
                      layer2_energy_error=11.25),
        RobustnessRow("sparse", cycles=800, layer2_energy_error=-3.125,
                      layer1_energy_error=-4.5),
        RobustnessRow("subword", status="degraded", error="crashed twice"),
    ])


def sweep():
    return BusSweepResult([
        SweepPoint(1, 1, cycles=3000, bus_energy_pj=45000.5,
                   fetch_transactions=900, fetch_words=900),
        SweepPoint(4, 8, cycles=2100, bus_energy_pj=47000.25,
                   fetch_transactions=200, fetch_words=800),
        SweepPoint(2, 4, status="degraded", error="crashed twice"),
    ])


def table3(gate_level_kts=None):
    return Table3Result(
        [Table3Row("TL Layer 1", 85.25, 1.0, 94.5, 1.1085),
         Table3Row("TL Layer 2", 129.625, 1.5205, 145.75, 1.7097)],
        transactions=2_000, gate_level_kts=gate_level_kts)


EXPECTED = {
    'chaos': (
        "chaos campaign (seed='pin', 3 scenarios x 3 layers):",
        '  scenarios: 2 ok / 1 degraded; 1 with fault schedules, 1 faults '
        'fired',
        '  fired: drop_write=1, read_stall=0',
        '  recovery: 2 fault reports, 1 recovered within the retry budget',
        '  FAIL chaos-1: divergence:cycles — layer2 ran 3 cycles longer',
        '  DEGRADED chaos-2: crashed twice',
        "  selftest shrink: signature 'hang', 3 -> 1 fault(s) in 4 steps / "
        '12 oracle runs, replay DIVERGED',
        '  [FAIL] all cells ran',
        '  [FAIL] zero hangs under the progress watchdog',
        '  [FAIL] zero unexplained cross-layer divergences',
        '  [pass] per-link energy books telescope bitwise',
        '  [pass] scheduled fabric faults fired',
        '  [FAIL] injected failure shrank to a deterministic minimal repro',
        'verdict: FAILED',
    ),
    'dpm': (
        "DPM campaign (seed='pin', 1 supply traces x 2 policies x 1 "
        'layers, 6 journaled txns; table: default characterisation):',
        'layer   policy               harvest brownouts completed  cycles '
        'drained nJ psm ovh pJ wakes',
        'layer1  always_on              0.350         4      6/6    12000  '
        '    2.500       0.00     0',
        'layer1  budget_aware         DEGRADED (trace 0): stalled twice',
        'emergency checkpoint study (layer1, 0.60 nJ cap, 0.4 pJ/cycle '
        'harvest, watermarks 0.20/0.15/0.10 nJ):',
        '  trace 0: checkpoint txn 2 @cycle 800, died=yes, recovery 37 '
        'cycles, applied=NO, idempotent=yes -> NOT verified',
        '    VIOLATION: checkpointed txn 2 not applied',
        '  trace 1: DEGRADED: crashed',
        'technology corners (grid layer1 trace 0, ref 250 nm / 3.3 V):',
        '  130 nm / 1.2 V (x0.123): always_on 1.500 nJ -> budget_aware '
        '1.250 nJ',
        '  [pass] always_on baseline and an adaptive policy in the grid',
        '  [FAIL] layer1 budget_aware beats baseline: 0 vs 4 brownouts, no '
        'less work per trace',
        '  [FAIL] every emergency recovery verified',
        'verdict: FAILED',
    ),
    'dpm_fewer_brownouts_less_work': (
        "DPM campaign (seed='pin', 1 supply traces x 2 policies x 1 "
        'layers, 6 journaled txns; table: default characterisation):',
        'layer   policy               harvest brownouts completed  cycles '
        'drained nJ psm ovh pJ wakes',
        'layer1  always_on              0.350         4      6/6    12000  '
        '    2.500       0.00     0',
        'layer1  fixed_timeout          0.350         1      4/6    11000  '
        '    2.000      12.50     3',
        '  [pass] always_on baseline and an adaptive policy in the grid',
        '  [FAIL] layer1 fixed_timeout beats baseline: 1 vs 4 brownouts, no '
        'less work per trace',
        'verdict: FAILED',
    ),
    'fabric': (
        "fabric campaign (seed='pin', flat/bridged x layer1, 4 APDU "
        'commands + DMA):',
        'topology layer     cycles periph  txns err dma grants c/d cross   '
        'total pJ books',
        'flat     layer1       700     12    30   0   8    30/8        0   '
        '  4321.0    ok',
        'bridged  layer1       690     10    30   1   8    30/8        3   '
        '  4400.5  LEAK',
        'bridged  layer3   DEGRADED: crashed twice',
        '  [FAIL] all cells ran',
        '  [FAIL] per-link books telescope to the probe total',
        '  [FAIL] zero transaction / posted-write errors',
        '  [pass] bridged arm crossed the bridge under contention',
        '  [pass] flat topology byte-identical to the legacy card',
        '  [FAIL] bridge crossing costs cycles on the timed layers',
        'verdict: FAILED',
    ),
    'faults': (
        "Fault-injection campaign (seed='pin', retry budget 12, backoff 2, "
        'watchdog 150 cycles):',
        'workload             rate  layer       txns  compl retry wdog   '
        'cyc+   E+ (pJ) retry E (pJ)',
        'random_mix           0.00  layer1        40 100.0%     0    0     '
        '+0      +0.0          0.0',
        'random_mix           0.05  layer1        40  95.0%     7    1   '
        '+110    +165.8         88.1',
        'random_mix           0.05  gate-level    40 100.0%     3    0     '
        '-5      -2.5          n/a',
        'random_mix           0.05  layer2      DEGRADED: stalled twice',
        'unrecovered transactions across all cells: 2',
        'degraded cells (crashed/stalled after retries): 1',
        '  [FAIL] every cell ran',
        '  [FAIL] every transaction recovered under retry',
        'verdict: FAILED',
    ),
    'link': (
        "T=1 link campaign (seed='pin', 2 noise rates x 1 layers x DPM "
        'off/on, 2 sessions x 4 commands):',
        'layer    noise  dpm ok/dg/hg    cmds retry retx h/c rsync abrt  '
        'cwt  bwt gated  recov pJ  total nJ books',
        'layer1   0.000  off  2/ 0/ 0   8/8       1   1/0        0    0    '
        '0    0     0       0.0     4.567    ok',
        'layer1   0.020  off  1/ 0/ 1   5/8       6   3/2        1    1    '
        '2    1     4     120.8     9.877  LEAK',
        'layer1   0.020   on DEGRADED: crashed twice',
        '  [FAIL] all cells ran',
        '  [FAIL] zero hangs',
        '  [FAIL] every session closed cleanly (books balanced, retries '
        'within budget)',
        '  [FAIL] clean baseline retransmission-free',
        'verdict: FAILED',
    ),
    'robustness': (
        'Accuracy robustness across workload classes (one fixed '
        'characterisation):',
        'workload              cycles  L1 t-err  L2 t-err  L1 E-err  L2 E-err',
        'random_mix              1500    +0.00%    +0.50%    -5.75%   +11.25%',
        'sparse                   800    +0.00%    +0.00%    -4.50%    -3.12%',
        'subword               DEGRADED: crashed twice',
        'L1 energy error band: [-5.75%, -4.50%]   L2: [-3.12%, +11.25%]',
        '  [FAIL] every workload class ran',
        'verdict: FAILED',
    ),
    'sweep': (
        'Fetch-path parameter sweep (section-4.1 test program):',
        'configuration         cycles     bus pJ  fetch txns  fetch words',
        'burst=1 lines=1         3000    45000.5         900          900',
        'burst=4 lines=8         2100    47000.2         200          800',
        'burst=2 lines=4       DEGRADED: crashed twice',
        'fastest: burst=4 lines=8   lowest energy: burst=1 lines=1',
        '  [FAIL] every grid point ran',
        'verdict: FAILED',
    ),
    'table3': (
        'Table 3: simulation performance (executed transactions/s)',
        '                     with estimation      without estimation',
        '                      kT/s    factor          kT/s    factor',
        'TL Layer 1            85.2      1.00          94.5      1.11',
        'TL Layer 2           129.6      1.52         145.8      1.71',
    ),
    'table3_gate_level': (
        'Table 3: simulation performance (executed transactions/s)',
        '                     with estimation      without estimation',
        '                      kT/s    factor          kT/s    factor',
        'TL Layer 1            85.2      1.00          94.5      1.11',
        'TL Layer 2           129.6      1.52         145.8      1.71',
        'gate level             1.9         -             -         -',
    ),
    'tear': (
        "Tear campaign (seed='pin', 2 tear points/layer, 3 journaled txns "
        'of 2 words):',
        'layer        points  torn consistent    rate replays recovery cyc '
        'replay E (nJ)',
        'layer1            2     2          1   50.0%       2         42.5 '
        '        5.411',
        'layer2            1     0          0    0.0%       0          0.0 '
        '        0.000',
        '  VIOLATION layer1 @cycle 240: txn 1 partially committed',
        '  VIOLATION layer1 @cycle 240: journal still committed after '
        'recovery',
        '  DEGRADED layer2 baseline: baseline crashed',
        '  DEGRADED layer2 @cycle 120: crashed twice',
        'governor sub-study (layer1, 0.10 nJ cap, 2.0 pJ/cycle harvest, '
        'brownout at 0.05 nJ):',
        '  governed   brownouts=2 deferrals=9 cycles=5000 completed=yes',
        '  open-loop  DEGRADED: stalled',
        '  [FAIL] every baseline ran',
        '  [FAIL] every tear point ran',
        '  [FAIL] every tear point recovered consistently',
        '  [FAIL] governor effective (strictly fewer brownouts)',
        'verdict: FAILED',
    ),
    'tear_governor_ineffective': (
        "Tear campaign (seed='pin', 1 tear points/layer, 3 journaled txns "
        'of 2 words):',
        'layer        points  torn consistent    rate replays recovery cyc '
        'replay E (nJ)',
        'layer1            1     1          1  100.0%       1         41.0 '
        '        5.321',
        'governor sub-study (layer1, 0.10 nJ cap, 2.0 pJ/cycle harvest, '
        'brownout at 0.05 nJ):',
        '  governed   brownouts=3 deferrals=9 cycles=5000 completed=yes',
        '  open-loop  brownouts=3 deferrals=0 cycles=4800 completed=yes',
        '  [pass] every baseline ran',
        '  [pass] every tear point ran',
        '  [pass] every tear point recovered consistently',
        '  [FAIL] governor effective (strictly fewer brownouts)',
        'verdict: FAILED',
    ),
}

CASES = {
    "faults": faults,
    "tear": tear,
    "tear_governor_ineffective": tear_governor_ineffective,
    "dpm": dpm,
    "dpm_fewer_brownouts_less_work": dpm_fewer_brownouts_less_work,
    "link": link,
    "fabric": fabric,
    "chaos": chaos,
    "robustness": robustness,
    "sweep": sweep,
    "table3": table3,
    "table3_gate_level": lambda: table3(gate_level_kts=1.875),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_text_is_pinned(name):
    result = CASES[name]()
    assert result.format() == "\n".join(EXPECTED[name])


@pytest.mark.parametrize("name", sorted(set(CASES) - {"table3",
                                                      "table3_gate_level"}))
def test_failing_campaign_does_not_pass(name):
    # the text says why: a failed check, then the failed verdict
    result = CASES[name]()
    assert not result.passed
    lines = result.format().splitlines()
    assert any(line.startswith("  [FAIL] ") for line in lines)
    assert lines[-1] == "verdict: FAILED"
