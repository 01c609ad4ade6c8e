"""Per-component power state machines (dynamic power management).

Conti's SystemC DPM work models every peripheral with a Power State
Machine: a handful of operating states, each with its own power level,
connected by transitions that themselves cost energy and time.  This
module reconstructs that layer for the smart card platform:

* :class:`PowerState` — ACTIVE / IDLE / CLOCK_GATED / SLEEP, ordered by
  depth (deeper states spend less per cycle, cost more to leave);
* :class:`StateProfile` — the per-state numbers: a *scale* applied to
  the component's dynamic event energy, a per-cycle residency cost, and
  the entry/exit energy and wake latency of reaching/leaving the state;
* :class:`PowerStateMachine` — the per-component instance: tracks the
  current state, books residency and transition energy into its own
  ledger, counts per-state residency cycles, and answers the two
  questions peripherals ask every cycle (``event_scale`` — how much
  does a dynamic event cost right now; ``clock_running`` — may my
  ``tick()`` advance at all);
* :class:`CardPowerModel` — a composite
  :class:`~repro.power.PowerInterface` merging the bus model's energy
  with peripheral ledgers and PSM overhead ledgers, so one
  :class:`~repro.power.PowerSupply` drains *everything*: the same
  composite works in front of layer 1, layer 2 or the gate-level
  estimate, which is what keeps DPM priced consistently across the
  abstraction layers.

Wake latency is modelled the way the EEPROM models its programming-busy
window: the peripheral's ``wait_states`` property adds the PSM's wake
latency when an access arrives in a gated or sleeping state.  Layer 1
samples the property per beat, layer 2 snapshots it at request
creation (§3.2) — both layers therefore see the same wake stall.

Everything here is strictly opt-in: a peripheral without an attached
PSM books energy through the exact pre-DPM code path, bit for bit.
"""

from __future__ import annotations

import dataclasses
import enum
import typing

from .interfaces import PowerInterface, replay_drains


class PowerState(enum.IntEnum):
    """DPM states, ordered by depth (higher = deeper = cheaper/cycle)."""

    ACTIVE = 0        # clocked, working
    IDLE = 1          # clocked, quiescent datapath
    CLOCK_GATED = 2   # functional clock stopped, state retained
    SLEEP = 3         # power-gated except retention, slow wake


# member lookups on an Enum class are slow attribute walks; the
# per-cycle paths below use these module constants instead
_ACTIVE = PowerState.ACTIVE
_IDLE = PowerState.IDLE


@dataclasses.dataclass(frozen=True)
class StateProfile:
    """The numbers of one PSM state.

    Parameters
    ----------
    event_scale:
        Multiplier applied to the component's dynamic event energy
        booked while resident in this state (clock-tree and datapath
        activity shrink as the state deepens).
    cycle_cost_pj:
        Residency cost booked to the PSM ledger every cycle spent in
        this state (retention / leakage floor).
    entry_pj / exit_pj:
        Energy of entering this state from a shallower one, and of
        waking from it back to ACTIVE (isolation cells, PLL relock...).
    wake_cycles:
        Extra wait states an access arriving in this state suffers
        before the component can serve it.
    """

    event_scale: float = 1.0
    cycle_cost_pj: float = 0.0
    entry_pj: float = 0.0
    exit_pj: float = 0.0
    wake_cycles: int = 0

    def __post_init__(self) -> None:
        for field in ("event_scale", "cycle_cost_pj", "entry_pj",
                      "exit_pj"):
            if getattr(self, field) < 0:
                raise ValueError(f"{field} must be >= 0")
        if self.wake_cycles < 0:
            raise ValueError("wake_cycles must be >= 0")


#: Default profiles, scaled to the peripheral ledgers' magnitudes
#: (UART idle: 0.02 pJ/cycle, timer tick: 0.05 pJ): clock gating pays
#: for itself after tens of idle cycles, sleep after hundreds.
DEFAULT_STATE_PROFILES: typing.Dict[PowerState, StateProfile] = {
    PowerState.ACTIVE: StateProfile(),
    PowerState.IDLE: StateProfile(event_scale=0.6),
    PowerState.CLOCK_GATED: StateProfile(
        event_scale=0.0, cycle_cost_pj=0.004, entry_pj=0.8,
        exit_pj=1.2, wake_cycles=2),
    PowerState.SLEEP: StateProfile(
        event_scale=0.0, cycle_cost_pj=0.001, entry_pj=2.5,
        exit_pj=6.0, wake_cycles=8),
}


class PowerStateMachine:
    """One component's DPM state, ledger and residency statistics.

    The PSM never decides anything by itself: a governor policy calls
    :meth:`request` to deepen the state, bus accesses and observed
    activity call :meth:`wake` / :meth:`notify_activity` to leave it.
    All DPM overhead (residency floors, entry/exit energy) lands in
    :attr:`energy_pj`, separate from the component's own ledger, so a
    report can show what the management itself cost.
    """

    def __init__(self, name: str = "psm",
                 profiles: typing.Optional[typing.Mapping[
                     PowerState, StateProfile]] = None) -> None:
        self.name = name
        self.profiles: typing.Dict[PowerState, StateProfile] = dict(
            DEFAULT_STATE_PROFILES)
        if profiles:
            self.profiles.update(profiles)
        for state in PowerState:
            if state not in self.profiles:
                raise ValueError(f"missing profile for {state.name}")
        self.state = PowerState.ACTIVE
        self.energy_pj = 0.0          # DPM overhead ledger
        self.transition_energy_pj = 0.0
        self.residency_energy_pj = 0.0
        self.idle_cycles = 0          # consecutive cycles without activity
        self.residency_cycles: typing.Dict[PowerState, int] = {
            state: 0 for state in PowerState}
        self.transition_counts: typing.Dict[
            typing.Tuple[PowerState, PowerState], int] = {}
        self.wakes = 0
        self.forced_sleeps = 0
        #: set by the governor's span step (see
        #: :mod:`repro.power.interfaces`)
        self.span_start: typing.Optional[tuple] = None
        #: idle-period lengths observed at the last few wake-ups
        #: (bounded history for predictive policies)
        self.idle_history: typing.List[int] = []

    # -- the two per-cycle questions peripherals ask ----------------------

    @property
    def profile(self) -> StateProfile:
        return self.profiles[self.state]

    @property
    def clock_running(self) -> bool:
        """Whether the component's functional clock is running (its
        ``tick()`` may advance)."""
        return self.state <= _IDLE

    def event_scale(self) -> float:
        """Multiplier for dynamic event energy booked right now."""
        return self.profiles[self.state].event_scale

    # -- transitions -------------------------------------------------------

    def _book_transition(self, target: PowerState,
                         energy_pj: float) -> None:
        key = (self.state, target)
        self.transition_counts[key] = \
            self.transition_counts.get(key, 0) + 1
        self.energy_pj += energy_pj
        self.transition_energy_pj += energy_pj
        self.state = target

    def request(self, target: PowerState, *, forced: bool = False) -> bool:
        """Governor side: move to a *deeper* state.

        Deepening books the target's entry energy.  Requests to the
        current or a shallower state are ignored (waking is the
        component's business, via :meth:`wake`).  Returns whether a
        transition happened.
        """
        if target <= self.state:
            return False
        self._book_transition(target, self.profiles[target].entry_pj)
        if forced:
            self.forced_sleeps += 1
        return True

    def wake(self) -> int:
        """Component side: an access (or activity) needs the device.

        Books the exit energy of the current state and returns the wake
        latency in cycles (extra wait states the in-flight access
        suffers).  Waking from ACTIVE/IDLE is free and instantaneous.
        """
        if self.state is _ACTIVE:
            return 0
        profile = self.profiles[self.state]
        latency = profile.wake_cycles
        self._book_transition(_ACTIVE, profile.exit_pj)
        if latency or profile.exit_pj:
            self.wakes += 1
        if self.idle_cycles:
            self.idle_history.append(self.idle_cycles)
            del self.idle_history[:-16]
        self.idle_cycles = 0
        return latency

    def notify_activity(self) -> None:
        """The component did real work this cycle: wake if needed and
        restart the idle counter."""
        if self.state is not _ACTIVE:
            self.wake()
        self.idle_cycles = 0

    # -- per-cycle accounting ---------------------------------------------

    def tick(self, busy: bool) -> None:
        """Advance one clock cycle: book residency, track idleness."""
        profile = self.profiles[self.state]
        if profile.cycle_cost_pj:
            self.energy_pj += profile.cycle_cost_pj
            self.residency_energy_pj += profile.cycle_cost_pj
        self.residency_cycles[self.state] += 1
        if busy:
            self.notify_activity()
        else:
            self.idle_cycles += 1

    def steady_adds(self) -> typing.Tuple[float, ...]:
        """What a tick in the current state adds to :attr:`energy_pj`."""
        cost = self.profiles[self.state].cycle_cost_pj
        return (cost,) if cost else ()

    # -- reporting ---------------------------------------------------------

    def mean_idle_period(self) -> typing.Optional[float]:
        """Mean of the recorded idle-period history (None when empty)."""
        if not self.idle_history:
            return None
        return sum(self.idle_history) / len(self.idle_history)

    def __repr__(self) -> str:
        return (f"PowerStateMachine({self.name!r}, {self.state.name}, "
                f"{self.energy_pj:.2f} pJ overhead)")


class CardPowerModel(PowerInterface):
    """Composite power model: bus energy + ledgers, one drain stream.

    Merges the bus power model (layer 1, layer 2 — or ``None`` for
    gate-level platforms whose energy is estimated offline) with any
    number of *ledgers* — objects exposing an ``energy_pj`` attribute:
    peripherals, :class:`PowerStateMachine` overhead, anything booked
    in picojoules.  The composite is what a
    :class:`~repro.power.PowerSupply` should drain on a DPM-managed
    card, so peripheral activity, PSM transitions and bus traffic all
    deplete the same capacitor.

    ``account_cycles`` forwards to the bus model when it has one
    (layer 2's per-cycle clock baseline), so
    :class:`~repro.power.PowerDomain` keeps working unchanged.
    """

    def __init__(self, bus_model: typing.Optional[PowerInterface],
                 ledgers: typing.Sequence[typing.Any] = ()) -> None:
        self.bus_model = bus_model
        self.ledgers = list(ledgers)
        self._last_sample = 0.0
        bus_account = getattr(bus_model, "account_cycles", None)
        if bus_account is not None:
            # expose the layer-2 baseline hook only when the bus model
            # has one — PowerDomain getattr-probes for it
            self.account_cycles = bus_account

    def add_ledger(self, ledger: typing.Any) -> None:
        """Track another ``energy_pj`` ledger (idempotent)."""
        if ledger not in self.ledgers:
            self.ledgers.append(ledger)

    @property
    def total_energy_pj(self) -> float:
        total = (self.bus_model.total_energy_pj
                 if self.bus_model is not None else 0.0)
        for ledger in self.ledgers:
            total += ledger.energy_pj
        return total

    def energy_since_last_call_pj(self) -> float:
        # total_energy_pj inlined: a supply calls this every cycle
        bus_model = self.bus_model
        total = (bus_model.total_energy_pj
                 if bus_model is not None else 0.0)
        for ledger in self.ledgers:
            total += ledger.energy_pj
        delta = total - self._last_sample
        self._last_sample = total
        return delta

    def span_drains(self, cycles: int, span: int) -> typing.List[float]:
        """The next *cycles* results of :meth:`energy_since_last_call_pj`
        in fast-forward *span*, replayed from the bus model and the
        ledgers (see :func:`~repro.power.interfaces.replay_drains`)."""
        # a card without a bus model (gate level) never fast-forwards:
        # its bus has no span step
        bus_model = self.bus_model
        sources = [(bus_model, bus_model.total_energy_pj)]
        sources += [(ledger, ledger.energy_pj) for ledger in self.ledgers]
        drains, self._last_sample = replay_drains(
            sources, self._last_sample, cycles, span)
        return drains
