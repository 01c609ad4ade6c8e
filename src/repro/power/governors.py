"""DPM governor policies and graceful degradation under scarcity.

The :mod:`repro.power.psm` layer gives every peripheral a power state
machine; this module decides *when* to use it.  Three classic DPM
policies (fixed-timeout, history-predictive, budget-aware) plus the
degenerate always-on baseline, and a :class:`DpmGovernor` that applies
one policy to a fleet of PSMs while watching the
:class:`~repro.power.PowerSupply` for scarcity.

Graceful degradation: as the supply's stored charge falls through the
configured watermarks the governor sheds load in stages instead of
letting the card hit the power-loss threshold mid-write:

=====  ===================  =========================================
stage  below watermark      response
=====  ===================  =========================================
1      ``defer_nj``         non-critical issue gates defer new bus
                            work (DMA chunks, crypto DMA, scripted
                            masters flagged non-critical)
2      ``sleep_nj``         non-critical peripherals are forced to
                            SLEEP regardless of policy
3      ``emergency_nj``     the emergency checkpoint callback fires
                            once per descent — the card OS commits a
                            journal frame while there is still charge
                            to finish it, so the impending
                            :class:`~repro.power.PowerLossEvent`
                            tears *after* a durable commit
=====  ===================  =========================================

Stages are cumulative (stage 2 implies stage 1) and release as
harvesting rebuilds charge above the watermark; the emergency
checkpoint re-arms only after charge recovers, so one descent fires
one checkpoint.

Issue gating composes with the PR-3 plumbing: :meth:`DpmGovernor.gate`
returns an object with the same ``may_issue(transaction)`` contract as
:class:`~repro.power.EnergyGovernor`, accepted by
``DmaController.attach_governor`` and the scripted masters' governor
hook unchanged.
"""

from __future__ import annotations

import abc
import functools
import itertools
import operator
import typing

from repro.ec import Transaction
from repro.kernel import STEADY_FOREVER

from .domain import EnergyGovernor, PowerSupply, PJ_PER_NJ
from .psm import PowerState, PowerStateMachine
from .table import CharacterizationTable


# member lookups on an Enum class are slow attribute walks; the
# per-cycle policy paths use these module constants instead
_IDLE = PowerState.IDLE
_CLOCK_GATED = PowerState.CLOCK_GATED
_SLEEP = PowerState.SLEEP


class DpmPolicy(abc.ABC):
    """Chooses a target state for an idle component."""

    name = "policy"

    @abc.abstractmethod
    def select(self, psm: PowerStateMachine,
               supply: typing.Optional[PowerSupply]) -> PowerState:
        """Deepest state the component should occupy right now."""


class AlwaysOnPolicy(DpmPolicy):
    """The baseline every adaptive policy must beat: never leave
    ACTIVE, never pay a transition, burn the full idle power."""

    name = "always_on"

    def select(self, psm: PowerStateMachine,
               supply: typing.Optional[PowerSupply]) -> PowerState:
        return PowerState.ACTIVE


class FixedTimeoutPolicy(DpmPolicy):
    """Enter deeper states after fixed idle timeouts.

    IDLE immediately when not busy, CLOCK_GATED after *gate_after*
    consecutive idle cycles, SLEEP after *sleep_after*.
    """

    name = "fixed_timeout"

    def __init__(self, gate_after: int = 16,
                 sleep_after: int = 256) -> None:
        if not 0 < gate_after <= sleep_after:
            raise ValueError(
                "need 0 < gate_after <= sleep_after, got "
                f"{gate_after} / {sleep_after}")
        self.gate_after = gate_after
        self.sleep_after = sleep_after

    def select(self, psm: PowerStateMachine,
               supply: typing.Optional[PowerSupply]) -> PowerState:
        if psm.idle_cycles >= self.sleep_after:
            return _SLEEP
        if psm.idle_cycles >= self.gate_after:
            return _CLOCK_GATED
        return _IDLE


class HistoryPredictivePolicy(DpmPolicy):
    """Predict the idle period from history; gate/sleep early when the
    prediction amortises the transition cost.

    The predictor is the mean of the component's recent idle periods
    (:attr:`PowerStateMachine.idle_history`).  A state is worth
    entering when the predicted *remaining* idle time exceeds its
    break-even: the idle cycles whose saved energy repays entry + exit.
    Savings per cycle are approximated by *idle_cost_pj_per_cycle* —
    what the component burns per idle cycle when left ACTIVE.  With no
    history yet the policy falls back to fixed timeouts.
    """

    name = "history_predictive"

    def __init__(self, idle_cost_pj_per_cycle: float = 0.05,
                 fallback: typing.Optional[FixedTimeoutPolicy] = None
                 ) -> None:
        if idle_cost_pj_per_cycle <= 0:
            raise ValueError("idle_cost_pj_per_cycle must be positive")
        self.idle_cost_pj_per_cycle = idle_cost_pj_per_cycle
        self.fallback = fallback or FixedTimeoutPolicy()

    def breakeven_cycles(self, psm: PowerStateMachine,
                         state: PowerState) -> float:
        profile = psm.profiles[state]
        return ((profile.entry_pj + profile.exit_pj)
                / self.idle_cost_pj_per_cycle)

    def select(self, psm: PowerStateMachine,
               supply: typing.Optional[PowerSupply]) -> PowerState:
        predicted = psm.mean_idle_period()
        if predicted is None:
            return self.fallback.select(psm, supply)
        remaining = predicted - psm.idle_cycles
        for state in (PowerState.SLEEP, PowerState.CLOCK_GATED):
            # enter as soon as the prediction amortises the cost, with
            # a 2x safety factor against mispredicted short idles
            if remaining >= 2.0 * self.breakeven_cycles(psm, state):
                return state
        return self.fallback.select(psm, supply)


class BudgetAwarePolicy(DpmPolicy):
    """Fixed timeouts scaled by the supply's remaining headroom.

    A full capacitor affords lazy timeouts (fewer transitions, lower
    wake latency); a draining one shortens them down to *min_scale* of
    the configured values, sliding into SLEEP aggressively before the
    brownout threshold is ever reached.  Without a supply this is a
    plain :class:`FixedTimeoutPolicy`.
    """

    name = "budget_aware"

    def __init__(self, gate_after: int = 32, sleep_after: int = 512,
                 min_scale: float = 0.05) -> None:
        if not 0 < min_scale <= 1:
            raise ValueError(f"min_scale must be in (0, 1]: {min_scale}")
        self.base = FixedTimeoutPolicy(gate_after, sleep_after)
        self.min_scale = min_scale

    def _scale(self, supply: typing.Optional[PowerSupply]) -> float:
        if supply is None:
            return 1.0
        span = supply.capacity_pj - supply.brownout_pj
        if span <= 0:
            return self.min_scale
        fraction = supply.headroom_pj() / span
        return max(self.min_scale, min(1.0, fraction))

    def select(self, psm: PowerStateMachine,
               supply: typing.Optional[PowerSupply]) -> PowerState:
        scale = self._scale(supply)
        gate_after = max(1, int(self.base.gate_after * scale))
        sleep_after = max(gate_after, int(self.base.sleep_after * scale))
        if psm.idle_cycles >= sleep_after:
            return _SLEEP
        if psm.idle_cycles >= gate_after:
            return _CLOCK_GATED
        return _IDLE


#: The selectable policies of the ``repro dpm`` campaign.
POLICIES: typing.Dict[str, typing.Callable[[], DpmPolicy]] = {
    "always_on": AlwaysOnPolicy,
    "fixed_timeout": FixedTimeoutPolicy,
    "history_predictive": HistoryPredictivePolicy,
    "budget_aware": BudgetAwarePolicy,
}


class IssueGate:
    """Per-client issue gate with the ``may_issue`` contract.

    Critical clients (the card OS's journal master) are only subject
    to the underlying energy check; non-critical clients (bulk DMA,
    crypto offload) are additionally deferred while the governor is in
    degradation stage 1 or deeper.  A single transaction flagged
    ``critical=True`` (see :class:`~repro.ec.Transaction`) gets the
    critical treatment even on a non-critical gate — the override for
    a bulk client's one must-not-shed write.
    """

    def __init__(self, governor: "DpmGovernor", name: str,
                 critical: bool) -> None:
        self.governor = governor
        self.name = name
        self.critical = critical
        self.grants = 0
        self.deferrals = 0
        self.shed_deferrals = 0

    def may_issue(self, transaction: Transaction) -> bool:
        stage = self.governor.stage
        critical = self.critical or transaction.critical
        if stage >= 3 or (not critical and stage >= 1):
            # stage 3 stops the world: the emergency checkpoint is the
            # last durable write before the impending power loss, and
            # nothing may overwrite the journal window after it
            self.deferrals += 1
            self.shed_deferrals += 1
            self.governor.deferrals += 1
            return False
        if self.governor.may_issue(transaction):
            self.grants += 1
            return True
        self.deferrals += 1
        return False


class _ManagedPsm(typing.NamedTuple):
    psm: PowerStateMachine
    busy: typing.Callable[[], bool]
    critical: bool


class DpmGovernor(EnergyGovernor):
    """Policy-driven DPM governor with staged graceful degradation.

    Extends :class:`~repro.power.EnergyGovernor` (the per-transaction
    energy check keeps working, and the grants/deferrals counters stay
    comparable) with a state-management loop over registered PSMs and
    the watermark machinery described in the module docstring.

    Watermarks are absolute stored charge in nJ; ``None`` disables a
    stage.  They must be ordered ``emergency <= sleep <= defer`` where
    present — deeper scarcity triggers stronger responses.
    """

    def __init__(self, supply: PowerSupply,
                 table: CharacterizationTable,
                 policy: typing.Optional[DpmPolicy] = None,
                 margin_nj: float = 0.0,
                 defer_nj: typing.Optional[float] = None,
                 sleep_nj: typing.Optional[float] = None,
                 emergency_nj: typing.Optional[float] = None,
                 emergency_checkpoint: typing.Optional[
                     typing.Callable[[], None]] = None) -> None:
        super().__init__(supply, table, margin_nj=margin_nj)
        ordered = [nj for nj in (emergency_nj, sleep_nj, defer_nj)
                   if nj is not None]
        if ordered != sorted(ordered):
            raise ValueError(
                "watermarks must satisfy emergency_nj <= sleep_nj <= "
                f"defer_nj, got {emergency_nj} / {sleep_nj} / "
                f"{defer_nj}")
        self.policy = policy or AlwaysOnPolicy()
        self.defer_pj = (None if defer_nj is None
                         else defer_nj * PJ_PER_NJ)
        self.sleep_pj = (None if sleep_nj is None
                         else sleep_nj * PJ_PER_NJ)
        self.emergency_pj = (None if emergency_nj is None
                             else emergency_nj * PJ_PER_NJ)
        self.emergency_checkpoint = emergency_checkpoint
        self.stage = 0
        self.stage_cycles = {1: 0, 2: 0, 3: 0}
        self.emergency_checkpoints = 0
        self._emergency_armed = True
        self._managed: typing.List[_ManagedPsm] = []
        self._gates: typing.Dict[str, IssueGate] = {}
        #: ticks after the last one in which no PSM changes state, so
        #: that :meth:`span` may stand for them (kept at 0 where that
        #: cannot be shown cheaply: watermarks, or a policy other than
        #: fixed timeouts)
        self.steady_hint = 0

    # -- registration ------------------------------------------------------

    def register(self, psm: PowerStateMachine,
                 busy: typing.Callable[[], bool],
                 critical: bool = False) -> PowerStateMachine:
        """Manage *psm*: tick it each cycle with the *busy* predicate
        and apply the policy while the component is idle.  Critical
        components are never forced to SLEEP by stage 2.

        *busy* may change only in a cycle in which some clocked process
        does real work, or between runs: the steady hint (see
        :meth:`span`) holds its verdict fixed.  A window that
        closes by itself must end a steady run from elsewhere, as the
        platform's peripheral tick does for the EEPROM and the TRNG.
        """
        self._managed.append(_ManagedPsm(psm, busy, critical))
        return psm

    def gate(self, name: str, critical: bool = False) -> IssueGate:
        """An issue gate for client *name* (memoised per name)."""
        existing = self._gates.get(name)
        if existing is None:
            existing = IssueGate(self, name, critical)
            self._gates[name] = existing
        return existing

    @property
    def gates(self) -> typing.Mapping[str, IssueGate]:
        return dict(self._gates)

    # -- the per-cycle loop ------------------------------------------------

    def _current_stage(self) -> int:
        charge = self.supply.charge_pj
        if self.emergency_pj is not None and charge < self.emergency_pj:
            return 3
        if self.sleep_pj is not None and charge < self.sleep_pj:
            return 2
        if self.defer_pj is not None and charge < self.defer_pj:
            return 1
        return 0

    def tick(self) -> None:
        """One clock cycle of governing: watermark staging, emergency
        checkpointing and PSM policy application."""
        self.stage = self._current_stage()
        if self.stage:
            self.stage_cycles[self.stage] += 1
        if self.stage >= 3:
            if self._emergency_armed:
                self._emergency_armed = False
                self.emergency_checkpoints += 1
                if self.emergency_checkpoint is not None:
                    self.emergency_checkpoint()
        elif not self._emergency_armed:
            # charge recovered above the emergency watermark: re-arm
            self._emergency_armed = True
        policy = self.policy
        supply = self.supply
        forcing = self.stage >= 2
        # fixed timeouts without watermarks: the stage stays 0, and a
        # PSM only changes state when woken or when its idle count
        # reaches the next timeout — count the ticks until then; any
        # other setting hints 0
        counting = (type(policy) is FixedTimeoutPolicy
                    and self.defer_pj is None and self.sleep_pj is None
                    and self.emergency_pj is None)
        steady = STEADY_FOREVER if counting else 0
        for psm, busy, critical in self._managed:
            state = psm.state
            psm.tick(busy())
            idle = psm.idle_cycles
            if idle:  # a busy (or just woken) PSM stays ACTIVE
                if forcing and not critical:
                    psm.request(_SLEEP, forced=True)
                else:
                    psm.request(policy.select(psm, supply))
            if not counting:
                continue
            if psm.state is not state:
                steady = 0
            elif idle:
                if state < _CLOCK_GATED:
                    steady = min(steady, policy.gate_after - 1 - idle)
                elif state < _SLEEP:
                    steady = min(steady, policy.sleep_after - 1 - idle)
        self.steady_hint = steady

    def span(self, cycles: int,
             mark: typing.Optional[int] = None) -> None:
        """*cycles* ticks in which no PSM changes state (at most
        :attr:`steady_hint` after a tick): each PSM books its residency
        once per tick and counts its idle cycles exactly as :meth:`tick`
        would (the stage stays 0).  With *mark*, the number of the
        kernel fast-forward, each PSM's ledger is marked where it
        started (see :mod:`repro.power.interfaces`)."""
        for psm, _busy, _critical in self._managed:
            state = psm.state
            cost = psm.profiles[state].cycle_cost_pj
            if mark is not None:
                psm.span_start = (mark, psm.energy_pj,
                                  (cost,) if cost else ())
            if cost:
                psm.energy_pj = functools.reduce(
                    operator.add, itertools.repeat(cost, cycles),
                    psm.energy_pj)
                psm.residency_energy_pj = functools.reduce(
                    operator.add, itertools.repeat(cost, cycles),
                    psm.residency_energy_pj)
            psm.residency_cycles[state] += cycles
            # a busy verdict, which holds, left the idle count at 0
            if psm.idle_cycles:
                psm.idle_cycles += cycles


class DpmController:
    """Kernel process ticking a :class:`DpmGovernor` once per cycle.

    The DPM analogue of :class:`~repro.power.PowerDomain`: a posedge
    method on the platform clock.  Construct it *after* the power
    domain so the governor observes the charge level the domain just
    settled for this cycle.
    """

    def __init__(self, simulator, clock, governor: DpmGovernor,
                 name: str = "dpm") -> None:
        from repro.kernel import Module  # late: avoid import cycles

        self.simulator = simulator
        self.governor = governor
        self._module = Module(simulator, name)
        self._process = self._module.method(
            self._on_posedge, name="govern",
            sensitive=[clock.posedge_event], dont_initialize=True,
            steady=self._span)

    def _on_posedge(self) -> None:
        if self.simulator.powered_off:
            return
        governor = self.governor
        governor.tick()
        process = self._process
        if process.steady_armed:
            process.steady_until = process.run_count + governor.steady_hint

    def _span(self, cycles: int) -> None:
        self.governor.span(cycles, self.simulator.steady_spans)
