"""The power interface of the bus models (§3.3).

Layer 1 exposes both methods — "a method returning the energy
dissipated during the last clock cycle and a second method which
returns the dissipated energy since the last method call" — enabling
cycle-accurate energy profiling.  Layer 2 "comprises only one method to
get the energy consumed since the last method call", because its
energy is booked per finished phase, not per cycle.
"""

from __future__ import annotations

import abc
import itertools
import operator
import typing


class PowerInterface(abc.ABC):
    """Accumulated-energy view every energy model provides."""

    @property
    @abc.abstractmethod
    def total_energy_pj(self) -> float:
        """Total energy booked since construction (pJ)."""

    @abc.abstractmethod
    def energy_since_last_call_pj(self) -> float:
        """Energy since the previous invocation of this method (pJ)."""


class CycleAccuratePowerInterface(PowerInterface):
    """Adds the per-cycle method only layer 1 can support."""

    @abc.abstractmethod
    def energy_last_cycle_pj(self) -> float:
        """Energy dissipated during the most recent clock cycle (pJ)."""


class EnergyAccumulator:
    """Small helper implementing the since-last-call bookkeeping."""

    def __init__(self) -> None:
        self._total = 0.0
        self._last_sample = 0.0

    def add(self, energy_pj: float) -> None:
        self._total += energy_pj

    @property
    def total(self) -> float:
        return self._total

    def since_last_call(self) -> float:
        delta = self._total - self._last_sample
        self._last_sample = self._total
        return delta


# -- span replay ----------------------------------------------------------
#
# A kernel fast-forward (see :mod:`repro.kernel.simulator`) advances
# every process of a quiet card by a span of cycles, one process after
# the other; a power domain sampling a summed energy total cannot read
# its per-cycle drains off the ledgers afterwards, because the ledgers
# booked before the sample have moved on by then.  So an energy source
# that steady cycles add to tells the domain how:
#
# * ``steady_adds()`` — the additions one steady cycle makes to its
#   energy total, in order (an empty tuple: it holds still);
# * ``span_start`` — ``(span, energy, adds)``, set by the span step
#   that advances the source: the number of the fast-forward
#   (:attr:`~repro.kernel.Simulator.steady_spans`), the energy the
#   source had before it and the additions it made per cycle.


def replay_drains(sources: typing.Sequence[typing.Tuple[typing.Any, float]],
                  last_sample: float, cycles: int, span: int
                  ) -> typing.Tuple[typing.List[float], float]:
    """The drains ``energy_since_last_call_pj`` would return at the
    next *cycles* samples of the total summed from *sources*, and the
    total at the last of them.

    *sources* are (source, energy now) pairs in the total's addition
    order.  A source marked with this fast-forward's *span* was
    advanced already — its owner books before the sample — so it
    restarts from the energy in its mark and each cycle's additions
    land before that cycle's sample; any other source still holds its
    energy from before the span, and its additions land after the
    sample.  Every addition is made once per cycle, in order, as the
    cycles themselves make them.
    """
    totals = None
    for source, energy in sources:
        mark = getattr(source, "span_start", None)
        if mark is not None and mark[0] == span:
            _, energy, adds = mark
            skip = len(adds)  # additions made before the first sample
        else:
            adds = getattr(source, "steady_adds", None)
            adds = adds() if adds is not None else ()
            skip = 0
        # the energy each sample sees, accumulated as the source did
        values = (itertools.islice(
            itertools.accumulate(adds * cycles, initial=energy),
            skip, skip + cycles * len(adds), len(adds))
            if adds else itertools.repeat(energy, cycles))
        # each cycle's total, summed left to right as the model sums it
        totals = (values if totals is None
                  else map(operator.add, totals, values))
    totals = list(totals)
    drains = list(map(operator.sub, totals,
                      itertools.chain((last_sample,), totals)))
    return drains, totals[-1]
