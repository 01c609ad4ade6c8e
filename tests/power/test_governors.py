"""Unit tests for DPM policies, the staged governor and issue gates."""

import pytest

from repro.ec import data_read, data_write
from repro.power import (AlwaysOnPolicy, BudgetAwarePolicy, DpmGovernor,
                         FixedTimeoutPolicy, HistoryPredictivePolicy,
                         POLICIES, PowerState, PowerStateMachine,
                         PowerSupply, default_table)
from repro.soc import RAM_BASE


class FlatModel:
    """A power model draining a scripted amount per step() call."""

    def __init__(self, per_cycle_pj=0.0):
        self.per_cycle_pj = per_cycle_pj
        self.total_energy_pj = 0.0

    def energy_since_last_call_pj(self):
        self.total_energy_pj += self.per_cycle_pj
        return self.per_cycle_pj


def make_supply(charge_nj, capacity_nj=1.0, brownout_nj=0.0):
    return PowerSupply(FlatModel(), capacity_nj=capacity_nj,
                       harvest_pj_per_cycle=0.0,
                       brownout_nj=brownout_nj, power_loss_nj=0.0,
                       initial_nj=charge_nj)


def idle_psm(cycles):
    psm = PowerStateMachine()
    for _ in range(cycles):
        psm.tick(busy=False)
    return psm


class TestPolicies:
    def test_registry_names_match_classes(self):
        for name, factory in POLICIES.items():
            assert factory().name == name

    def test_always_on_never_leaves_active(self):
        policy = AlwaysOnPolicy()
        assert policy.select(idle_psm(10_000), None) is PowerState.ACTIVE

    def test_fixed_timeout_ladder(self):
        policy = FixedTimeoutPolicy(gate_after=16, sleep_after=256)
        assert policy.select(idle_psm(3), None) is PowerState.IDLE
        assert policy.select(idle_psm(16), None) is PowerState.CLOCK_GATED
        assert policy.select(idle_psm(256), None) is PowerState.SLEEP

    def test_fixed_timeout_validates_ordering(self):
        with pytest.raises(ValueError):
            FixedTimeoutPolicy(gate_after=0)
        with pytest.raises(ValueError):
            FixedTimeoutPolicy(gate_after=300, sleep_after=200)

    def test_history_predictive_falls_back_without_history(self):
        policy = HistoryPredictivePolicy(
            fallback=FixedTimeoutPolicy(gate_after=4, sleep_after=8))
        assert policy.select(idle_psm(4), None) is PowerState.CLOCK_GATED

    def test_history_predictive_gates_early_on_long_history(self):
        policy = HistoryPredictivePolicy(idle_cost_pj_per_cycle=0.05)
        psm = idle_psm(1)
        psm.idle_history = [10_000] * 4  # long idles observed
        # 1 idle cycle in, but prediction amortises even SLEEP
        assert policy.select(psm, None) is PowerState.SLEEP

    def test_history_predictive_stays_shallow_on_short_history(self):
        policy = HistoryPredictivePolicy(idle_cost_pj_per_cycle=0.05)
        psm = idle_psm(1)
        psm.idle_history = [4] * 4
        assert policy.select(psm, None) is PowerState.IDLE

    def test_history_predictive_validates_cost(self):
        with pytest.raises(ValueError):
            HistoryPredictivePolicy(idle_cost_pj_per_cycle=0.0)

    def test_budget_aware_without_supply_is_fixed_timeout(self):
        policy = BudgetAwarePolicy(gate_after=32, sleep_after=512)
        assert policy.select(idle_psm(31), None) is PowerState.IDLE
        assert policy.select(idle_psm(32), None) is PowerState.CLOCK_GATED

    def test_budget_aware_shortens_timeouts_as_charge_drops(self):
        policy = BudgetAwarePolicy(gate_after=32, sleep_after=512)
        drained = make_supply(charge_nj=0.05, capacity_nj=1.0)
        # 5% headroom: timeouts scale down towards min_scale
        assert policy.select(idle_psm(4), drained) is PowerState.CLOCK_GATED
        full = make_supply(charge_nj=1.0, capacity_nj=1.0)
        assert policy.select(idle_psm(4), full) is PowerState.IDLE

    def test_budget_aware_validates_min_scale(self):
        with pytest.raises(ValueError):
            BudgetAwarePolicy(min_scale=0.0)
        with pytest.raises(ValueError):
            BudgetAwarePolicy(min_scale=1.5)


class TestDpmGovernorStages:
    def make_governor(self, charge_nj, **kwargs):
        supply = make_supply(charge_nj)
        kwargs.setdefault("defer_nj", 0.6)
        kwargs.setdefault("sleep_nj", 0.4)
        kwargs.setdefault("emergency_nj", 0.2)
        return DpmGovernor(supply, default_table(),
                           policy=FixedTimeoutPolicy(), **kwargs)

    def test_watermark_ordering_enforced(self):
        supply = make_supply(1.0)
        with pytest.raises(ValueError):
            DpmGovernor(supply, default_table(), defer_nj=0.1,
                        sleep_nj=0.4)
        with pytest.raises(ValueError):
            DpmGovernor(supply, default_table(), sleep_nj=0.1,
                        emergency_nj=0.4)

    def test_stage_follows_charge(self):
        for charge, stage in ((0.9, 0), (0.5, 1), (0.3, 2), (0.1, 3)):
            governor = self.make_governor(charge)
            governor.tick()
            assert governor.stage == stage, charge

    def test_stage2_forces_noncritical_to_sleep(self):
        governor = self.make_governor(0.3)
        shed = governor.register(PowerStateMachine("dma"),
                                 busy=lambda: False)
        kept = governor.register(PowerStateMachine("journal"),
                                 busy=lambda: False, critical=True)
        governor.tick()
        assert shed.state is PowerState.SLEEP
        assert shed.forced_sleeps == 1
        assert kept.state is not PowerState.SLEEP

    def test_policy_applied_only_when_idle(self):
        governor = self.make_governor(0.9)
        busy = governor.register(PowerStateMachine("busy"),
                                 busy=lambda: True)
        governor.tick()
        assert busy.state is PowerState.ACTIVE

    def test_emergency_checkpoint_fires_once_per_descent(self):
        fired = []
        governor = self.make_governor(
            0.1, emergency_checkpoint=lambda: fired.append(True))
        for _ in range(5):
            governor.tick()
        assert len(fired) == 1
        assert governor.emergency_checkpoints == 1
        # charge recovers above the watermark: re-arm and fire again
        governor.supply.charge_pj = 900.0
        governor.tick()
        governor.supply.charge_pj = 100.0
        governor.tick()
        assert len(fired) == 2

    def test_stage_cycles_accumulate(self):
        governor = self.make_governor(0.5)
        for _ in range(3):
            governor.tick()
        assert governor.stage_cycles[1] == 3
        assert governor.stage_cycles[2] == 0


def _settled_psm(state, idle_cycles):
    """A PSM already in *state* after *idle_cycles* idle ticks."""
    psm = PowerStateMachine()
    psm.request(state)
    for _ in range(idle_cycles):
        psm.tick(busy=False)
    return psm


class TestSteadyHint:
    """The hint after one tick: a countdown to the next timeout only for
    fixed timeouts without watermarks, 0 for every other setting."""

    @pytest.mark.parametrize("policy, watermarks, hint", [
        ("always_on", {}, 0),
        ("history_predictive", {}, 0),
        ("budget_aware", {}, 0),
        ("fixed_timeout", {"defer_nj": 0.1}, 0),
        ("fixed_timeout", {"sleep_nj": 0.1}, 0),
        ("fixed_timeout", {"emergency_nj": 0.1}, 0),
        # IDLE at 5 idle cycles: 16 - 1 - 5 = 10 ticks to CLOCK_GATED;
        # CLOCK_GATED at 251: 256 - 1 - 251 = 4 ticks to SLEEP
        ("fixed_timeout", {}, 4),
    ])
    def test_hint_after_one_tick(self, policy, watermarks, hint):
        governor = DpmGovernor(make_supply(1.0), default_table(),
                               policy=POLICIES[policy](), **watermarks)
        governor.register(_settled_psm(PowerState.IDLE, 4),
                          busy=lambda: False)
        governor.register(_settled_psm(PowerState.CLOCK_GATED, 250),
                          busy=lambda: False)
        governor.register(PowerStateMachine("busy"), busy=lambda: True)
        governor.tick()
        assert governor.stage == 0
        assert governor.steady_hint == hint

    @staticmethod
    def _governed():
        """One governor, ticked once, over a zero-cost idle row (IDLE),
        two costed idle rows (CLOCK_GATED, SLEEP) and a busy row."""
        governor = DpmGovernor(make_supply(1.0), default_table(),
                               policy=FixedTimeoutPolicy())
        for state, idle in ((PowerState.IDLE, 4),
                            (PowerState.CLOCK_GATED, 250),
                            (PowerState.SLEEP, 7)):
            governor.register(_settled_psm(state, idle),
                              busy=lambda: False)
        governor.register(PowerStateMachine("busy"), busy=lambda: True)
        governor.tick()
        return governor

    @staticmethod
    def _books(governor):
        return [(psm.state, dict(psm.residency_cycles), psm.idle_cycles,
                 dict(psm.transition_counts), repr(psm.energy_pj),
                 repr(psm.residency_energy_pj),
                 repr(psm.transition_energy_pj))
                for psm, _busy, _critical in governor._managed]

    # the hint (4: CLOCK_GATED gates to SLEEP on the fifth tick) bounds
    # the span
    @pytest.mark.parametrize("cycles", [1, 2, 4])
    def test_span_is_that_many_ticks(self, cycles):
        spanned, ticked = self._governed(), self._governed()
        assert spanned.steady_hint == 4
        spanned.span(cycles)
        for _ in range(cycles):
            ticked.tick()
        assert self._books(spanned) == self._books(ticked)
        assert spanned.stage == ticked.stage == 0

    def test_a_numbered_span_marks_each_psm(self):
        governor = self._governed()
        before = [psm.energy_pj for psm, _b, _c in governor._managed]
        governor.span(3, 17)
        assert [psm.span_start for psm, _b, _c in governor._managed] == [
            (17, energy, psm.steady_adds())
            for energy, (psm, _b, _c) in zip(before, governor._managed)]
        # zero-cost states add nothing, costed ones their residency
        assert [psm.steady_adds() for psm, _b, _c in governor._managed] == [
            (), (0.004,), (0.001,), ()]

    def test_a_state_change_ends_the_countdown(self):
        governor = DpmGovernor(make_supply(1.0), default_table(),
                               policy=FixedTimeoutPolicy())
        governor.register(_settled_psm(PowerState.IDLE, 15),
                          busy=lambda: False)
        governor.tick()  # the 16th idle cycle gates the clock
        assert governor.steady_hint == 0


class TestIssueGate:
    def make_governor(self, charge_nj=0.9, **kwargs):
        return DpmGovernor(make_supply(charge_nj), default_table(),
                           defer_nj=kwargs.pop("defer_nj", 0.6),
                           sleep_nj=kwargs.pop("sleep_nj", 0.4),
                           emergency_nj=kwargs.pop("emergency_nj", 0.2),
                           **kwargs)

    def test_gate_is_memoised_per_name(self):
        governor = self.make_governor()
        assert governor.gate("dma") is governor.gate("dma")
        assert governor.gate("dma") is not governor.gate("crypto")
        assert set(governor.gates) == {"dma", "crypto"}

    def test_stage1_defers_noncritical_only(self):
        governor = self.make_governor(0.5)
        governor.tick()
        txn = data_read(RAM_BASE)
        assert not governor.gate("dma").may_issue(txn)
        assert governor.gate("journal", critical=True).may_issue(txn)
        assert governor.gate("dma").shed_deferrals == 1

    def test_critical_transaction_overrides_noncritical_gate(self):
        governor = self.make_governor(0.5)
        governor.tick()
        assert governor.stage == 1
        gate = governor.gate("dma")
        urgent = data_read(RAM_BASE)
        urgent.critical = True
        assert gate.may_issue(urgent)
        assert not gate.may_issue(data_read(RAM_BASE))

    def test_critical_flag_survives_clone(self):
        urgent = data_read(RAM_BASE)
        urgent.critical = True
        assert urgent.clone().critical
        assert not data_read(RAM_BASE).clone().critical

    def test_stage3_stops_the_world(self):
        governor = self.make_governor(0.1)
        governor.tick()
        txn = data_read(RAM_BASE)
        txn.critical = True
        assert not governor.gate("journal", critical=True).may_issue(txn)

    def test_stage0_delegates_to_energy_check(self):
        governor = self.make_governor(0.9)
        governor.tick()
        gate = governor.gate("dma")
        assert gate.may_issue(data_read(RAM_BASE))
        assert gate.grants == 1
        assert gate.shed_deferrals == 0


class TestDenyPathBookkeeping:
    """Satellite: a denial must not book any energy anywhere."""

    def starved_setup(self):
        from repro.power import CardPowerModel, Layer1PowerModel
        from repro.soc import SmartCardPlatform

        model = Layer1PowerModel(default_table())
        platform = SmartCardPlatform(bus_layer=1, power_model=model)
        composite = CardPowerModel(model,
                                   ledgers=platform.energy_ledgers())
        # 1 pJ of headroom: every transaction estimate exceeds it
        supply = PowerSupply(composite, capacity_nj=0.011,
                             harvest_pj_per_cycle=0.0,
                             brownout_nj=0.01, power_loss_nj=0.0)
        governor = DpmGovernor(supply, default_table())
        return platform, composite, supply, governor

    def test_repeated_denials_book_no_energy(self):
        platform, composite, supply, governor = self.starved_setup()
        gate = governor.gate("master")
        before_total = composite.total_energy_pj
        before_ledgers = [l.energy_pj for l in composite.ledgers]
        txn = data_write(RAM_BASE, [0xFFFF_FFFF])
        for _ in range(50):
            assert not gate.may_issue(txn)
        assert composite.total_energy_pj == before_total
        assert [l.energy_pj for l in composite.ledgers] == before_ledgers
        assert supply.drained_pj == 0.0
        assert gate.deferrals == 50
        assert governor.deferrals == 50
        assert governor.grants == 0
