"""The power domain: supply budget, brownout/power-loss events and the
energy governor (the "power-aware" loop the paper motivates).

A contactless smart card harvests its entire power budget from the
reader field into a small storage capacitor; the card dies the moment
the capacitor drains below the regulator's drop-out.  The paper's bus
models estimate the energy the card *spends*; this module closes the
loop and makes those estimates actionable:

* :class:`PowerSupply` — a capacitor charged at a fixed field-harvest
  rate and drained by a live :class:`~repro.power.PowerInterface`
  (layer-1, layer-2 or accumulator).  Crossing the *brownout* threshold
  emits a :class:`BrownoutEvent`; crossing the *power-loss* threshold
  emits a :class:`PowerLossEvent` and marks the supply dead.
* :class:`PowerDomain` — the kernel process sampling the model into
  the supply once per clock cycle, optionally turning supply
  exhaustion into a cooperative whole-card halt
  (:meth:`~repro.kernel.Simulator.power_off`).
* :class:`EnergyGovernor` — the dynamic-power-management policy
  masters and the DMA engine consult before issuing *new* bus work:
  when the projected draw of a transaction would push the capacitor
  into brownout, the work is deferred until harvesting has rebuilt
  headroom.  Graceful degradation: the workload still completes, just
  slower.  With no governor attached the masters are bit-identical to
  the governor-less originals.

Charge is tracked in pJ internally (the unit of every energy model)
but configured in nJ — capacitor budgets are naturally nanojoules:
at a 10 MHz clock, a 5 mW field delivers 500 pJ per cycle.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import operator
import typing

from repro.ec import Transaction
from repro.kernel import STEADY_FOREVER

from .interfaces import PowerInterface
from .layer2 import Layer2PowerModel
from .table import CharacterizationTable

#: pJ per nJ — the supply is configured in nJ, drained in pJ.
PJ_PER_NJ = 1e3


@dataclasses.dataclass(frozen=True)
class BrownoutEvent:
    """The supply dipped below the brownout threshold (one event per
    downward crossing, not per cycle spent below)."""

    cycle: int
    charge_nj: float


@dataclasses.dataclass(frozen=True)
class PowerLossEvent:
    """The supply drained below the power-loss threshold: the card is
    dead until re-fielded."""

    cycle: int
    charge_nj: float


class PowerSupply:
    """Field-harvesting storage capacitor drained by a power model.

    Parameters
    ----------
    power_model:
        Any :class:`~repro.power.PowerInterface`; its
        ``energy_since_last_call_pj`` stream is the drain.  The supply
        must then be that method's only caller.
    capacity_nj:
        Storage capacitor budget (the charge ceiling).
    harvest_pj_per_cycle:
        Energy entering from the reader field every cycle.
    brownout_nj / power_loss_nj:
        Thresholds: below *brownout* the regulator flags low voltage
        (the card should shed load); below *power_loss* the card dies.
    initial_nj:
        Starting charge (defaults to a full capacitor).
    """

    def __init__(self, power_model: PowerInterface,
                 capacity_nj: float = 50.0,
                 harvest_pj_per_cycle: float = 500.0,
                 brownout_nj: float = 10.0,
                 power_loss_nj: float = 2.0,
                 initial_nj: typing.Optional[float] = None) -> None:
        if capacity_nj <= 0:
            raise ValueError("capacity_nj must be positive")
        if harvest_pj_per_cycle < 0:
            raise ValueError("harvest_pj_per_cycle must be >= 0")
        if not 0 <= power_loss_nj <= brownout_nj <= capacity_nj:
            raise ValueError(
                "thresholds must satisfy 0 <= power_loss_nj <= "
                "brownout_nj <= capacity_nj, got "
                f"{power_loss_nj} / {brownout_nj} / {capacity_nj}")
        if initial_nj is None:
            initial_nj = capacity_nj
        if not 0 <= initial_nj <= capacity_nj:
            raise ValueError("initial_nj must be within the capacity")
        self.power_model = power_model
        self.capacity_pj = capacity_nj * PJ_PER_NJ
        self.harvest_pj_per_cycle = harvest_pj_per_cycle
        self.brownout_pj = brownout_nj * PJ_PER_NJ
        self.power_loss_pj = power_loss_nj * PJ_PER_NJ
        self.charge_pj = initial_nj * PJ_PER_NJ
        self.brownouts: typing.List[BrownoutEvent] = []
        self.power_losses: typing.List[PowerLossEvent] = []
        self.cycles_stepped = 0
        self.drained_pj = 0.0
        self.harvested_pj = 0.0

    @property
    def charge_nj(self) -> float:
        return self.charge_pj / PJ_PER_NJ

    @property
    def powered_down(self) -> bool:
        return bool(self.power_losses)

    def headroom_pj(self) -> float:
        """Charge above the brownout threshold (what a governor may
        spend before the regulator complains)."""
        return self.charge_pj - self.brownout_pj

    def step(self, cycle: int) -> float:
        """Advance one cycle: harvest, drain the model's delta, emit
        threshold-crossing events.  Returns the energy drained (pJ)."""
        # runs every cycle of a powered card: properties inlined
        charge = self.charge_pj
        brownout = self.brownout_pj
        was_brownout = charge < brownout
        was_down = bool(self.power_losses)
        drained = self.power_model.energy_since_last_call_pj()
        self.drained_pj += drained
        harvest = self.harvest_pj_per_cycle
        self.harvested_pj += harvest
        charge = charge + harvest - drained
        if charge > self.capacity_pj:
            charge = self.capacity_pj
        if charge < 0.0:
            charge = 0.0
        self.charge_pj = charge
        self.cycles_stepped += 1
        if charge < brownout and not was_brownout:
            self.brownouts.append(BrownoutEvent(cycle, self.charge_nj))
        if charge < self.power_loss_pj and not was_down:
            self.power_losses.append(
                PowerLossEvent(cycle, self.charge_nj))
        return drained

    def span(self, drains: typing.Sequence[float], cycle: int) -> None:
        """One :meth:`step` per drain in *drains*, from bus cycle
        *cycle* on, as if the model had returned them: the same
        additions and clamps, each threshold event on its own cycle."""
        cycles = len(drains)
        harvest = self.harvest_pj_per_cycle
        # the totals take one addition per cycle, in order
        self.drained_pj = functools.reduce(operator.add, drains,
                                           self.drained_pj)
        self.harvested_pj = functools.reduce(
            operator.add, itertools.repeat(harvest, cycles),
            self.harvested_pj)
        self.cycles_stepped += cycles
        charge = self.charge_pj
        capacity = self.capacity_pj
        if (charge == capacity
                and min(map(operator.sub, itertools.repeat(
                    charge + harvest, cycles), drains),
                        default=capacity) >= capacity):
            # a full capacitor that every cycle refills: the charge
            # clamps back to capacity each time, crossing nothing
            return
        brownout = self.brownout_pj
        power_loss = self.power_loss_pj
        down = bool(self.power_losses)
        for cycle, drained in enumerate(drains, cycle):
            was_brownout = charge < brownout
            charge = charge + harvest - drained
            if charge > capacity:
                charge = capacity
            if charge < 0.0:
                charge = 0.0
            if charge < brownout and not was_brownout:
                self.brownouts.append(
                    BrownoutEvent(cycle, charge / PJ_PER_NJ))
            if charge < power_loss and not down:
                down = True
                self.power_losses.append(
                    PowerLossEvent(cycle, charge / PJ_PER_NJ))
        self.charge_pj = charge


class EnergyGovernor:
    """Defers new bus work when its projected draw would breach the
    supply budget (dynamic power management, graceful degradation).

    Masters and the DMA engine call :meth:`may_issue` before issuing a
    transaction they have not started yet; a False verdict defers the
    work to a later cycle, by which time field harvesting has rebuilt
    headroom.  *margin_nj* keeps a safety buffer above the brownout
    threshold, covering the clock baseline and estimation error during
    the transaction's flight.  The projected draw is the layer-2
    price of the transaction on *table*
    (:meth:`~repro.power.Layer2PowerModel.projected_energy_pj`).
    """

    def __init__(self, supply: PowerSupply,
                 table: CharacterizationTable,
                 margin_nj: float = 0.0) -> None:
        if margin_nj < 0:
            raise ValueError("margin_nj must be >= 0")
        self.supply = supply
        self.table = table
        self._price = Layer2PowerModel(table).projected_energy_pj
        self.margin_pj = margin_nj * PJ_PER_NJ
        self.deferrals = 0
        self.grants = 0

    def may_issue(self, transaction: Transaction) -> bool:
        cost = self._price(transaction)
        if self.supply.headroom_pj() - cost >= self.margin_pj:
            self.grants += 1
            return True
        self.deferrals += 1
        return False


class PowerDomain:
    """Kernel process wiring a :class:`PowerSupply` to a running bus.

    Samples the power model into the supply once per rising clock edge
    (the cycle the bus booked on the preceding falling edge).  For
    layer-2 models the per-cycle clock baseline is folded in first via
    ``account_cycles``, so the supply sees the same totals the
    experiments report.  With *halt_on_power_loss* the first
    :class:`PowerLossEvent` powers the whole simulator off — the
    whole-card tear the anti-tearing journal must survive.
    """

    def __init__(self, simulator, clock, bus, supply: PowerSupply,
                 name: str = "power_domain",
                 halt_on_power_loss: bool = True) -> None:
        from repro.kernel import Module  # late: avoid import cycles

        self.simulator = simulator
        self.bus = bus
        self.supply = supply
        self.halt_on_power_loss = halt_on_power_loss
        self._account_cycles = getattr(supply.power_model,
                                       "account_cycles", None)
        # a model whose drains a span can replay, and no lazily
        # accrued baseline (layer 2's) to settle first
        self._span_drains = (getattr(supply.power_model, "span_drains",
                                     None)
                             if self._account_cycles is None else None)
        self._module = Module(simulator, name)
        self._process = self._module.method(
            self._on_posedge, name="sample",
            sensitive=[clock.posedge_event], dont_initialize=True,
            steady=self._span)

    def _sample(self) -> None:
        """Settle one cycle's drain and harvest into the supply."""
        if self._account_cycles is not None:
            self._account_cycles(self.bus.cycle)
        self.supply.step(self.bus.cycle)

    def _span(self, cycles: int) -> None:
        """*cycles* samples with no power loss to halt the card: replay
        their drains from the model's sources (see
        :func:`~repro.power.interfaces.replay_drains`) into the supply.
        The bus counts its cycles on the falling edge, after this
        sample, so its counter still holds the first one's."""
        drains = self._span_drains(cycles, self.simulator.steady_spans)
        self.supply.span(drains, self.bus.cycle)

    def _on_posedge(self) -> None:
        if self.simulator.powered_off:
            return
        self._sample()
        if self.halt_on_power_loss:
            # a power loss would stop the kernel mid-cycle
            self._process.steady_until = 0
            if self.supply.powered_down:
                event = self.supply.power_losses[0]
                self.simulator.power_off(
                    f"supply exhausted at cycle {event.cycle} "
                    f"({event.charge_nj:.2f} nJ left)")
        elif self._span_drains is not None:
            self._process.steady_until = STEADY_FOREVER
