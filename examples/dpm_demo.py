#!/usr/bin/env python3
"""Dynamic power management demo: one card, four policies, one budget.

A bursty smart card workload — journaled EEPROM updates separated by
long idle gaps — runs on a starved harvesting supply, once per DPM
policy.  Every peripheral carries a power state machine; the governor
applies the policy each cycle.  The always-on card burns its full idle
power through the gaps and browns out; the gating policies drop the
idle peripherals into CLOCK_GATED/SLEEP, keep the capacitor topped up,
and deliver the same transactions.

The demo then starves the card to death on purpose: the watermark
ladder defers work, forces sleep, and fires the emergency journal
checkpoint just before the power loss.  A cold boot recovers the
checkpointed transaction and proves the recovery idempotent.

Run:  python examples/dpm_demo.py
"""

from repro.experiments.dpm_campaign import (_run_emergency_cell,
                                            _run_grid_cell)
from repro.experiments.common import characterization
from repro.power import POLICIES, PowerState, PowerStateMachine

SEED = 2004
TRANSACTIONS = 6
HARVEST_PJ = 0.88


def show_psm_basics() -> None:
    print("=== a power state machine, by hand ===")
    psm = PowerStateMachine("demo")
    for cycle in range(40):
        psm.tick(busy=False)
        if psm.idle_cycles == 16:
            psm.request(PowerState.CLOCK_GATED)
    latency = psm.wake()
    print(f"  16 idle cycles -> {PowerState.CLOCK_GATED.name}; "
          f"wake costs {latency} wait states and "
          f"{psm.transition_energy_pj:.1f} pJ of transition energy")
    print(f"  residency: " + ", ".join(
        f"{state.name} {cycles}" for state, cycles
        in psm.residency_cycles.items() if cycles))
    print()


def run_policies() -> None:
    print("=== policy grid: one starved supply, four policies ===")
    table = characterization().table
    print(f"  harvest {HARVEST_PJ} pJ/cycle; always-on idle draw "
          f"~1.13 pJ/cycle, clock-gated ~0.72")
    cells = {}
    for policy in POLICIES:
        cell = _run_grid_cell("layer1", policy, 0, HARVEST_PJ, SEED,
                              TRANSACTIONS, table, 1.0, None)
        cells[policy] = cell
        print(f"  {policy:<20} brownouts={cell['brownouts']} "
              f"completed={cell['completed']}/{TRANSACTIONS} "
              f"drained={cell['drained_pj'] / 1e3:.2f} nJ "
              f"(psm overhead {cell['psm_overhead_pj']:.0f} pJ, "
              f"{cell['wakes']} wakes)")
    baseline = cells["always_on"]
    for policy, cell in cells.items():
        assert cell["completed"] == TRANSACTIONS
        if policy != "always_on":
            assert cell["brownouts"] < baseline["brownouts"], policy
    print("  -> every adaptive policy beats always-on on brownouts "
          "at equal delivered work")
    print()


def run_emergency() -> None:
    print("=== graceful degradation: checkpoint before the tear ===")
    table = characterization().table
    cell = _run_emergency_cell(0, SEED, TRANSACTIONS, table, 1.0, None)
    print(f"  emergency checkpoint fired at cycle "
          f"{cell['checkpoint_cycle']} for txn "
          f"{cell['checkpoint_txn']}; the card then died")
    print(f"  cold boot + recovery ({cell['recovery_cycles']} cycles): "
          f"checkpointed txn applied={cell['checkpoint_txn_applied']}, "
          f"journal clean={cell['journal_clean']}, "
          f"idempotent={cell['idempotent']}")
    print(f"  verified: {cell['verified']}")
    assert cell["verified"], cell["violations"]


def main() -> None:
    show_psm_basics()
    run_policies()
    run_emergency()


if __name__ == "__main__":
    main()
