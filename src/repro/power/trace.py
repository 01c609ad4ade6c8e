"""Power/energy traces and the Figure-6 sampling profile.

The paper motivates cycle-accurate energy profiling with power-analysis
attacks (§1) and illustrates in Figure 6 how the layer-2 power
interface samples energy: a sample taken at t1 contains the address
phases finished so far; a sample at t2 additionally contains completed
data phases — phases in flight are *not* included.  This module turns
those ideas into data structures the experiments and the SPA/DPA
tooling consume.
"""

from __future__ import annotations

import dataclasses
import typing

from .interfaces import PowerInterface
from .units import average_power_mw, supply_current_ma


class PowerTrace:
    """A per-cycle energy trace (layer 1 / gate level)."""

    def __init__(self, cycle_period_ps: int,
                 energies_pj: typing.Optional[typing.List[float]] = None
                 ) -> None:
        if cycle_period_ps <= 0:
            raise ValueError("cycle period must be positive")
        self.cycle_period_ps = cycle_period_ps
        self.energies_pj: typing.List[float] = list(energies_pj or [])

    def append(self, energy_pj: float) -> None:
        self.energies_pj.append(energy_pj)

    def __len__(self) -> int:
        return len(self.energies_pj)

    @property
    def total_energy_pj(self) -> float:
        return sum(self.energies_pj)

    def average_power_mw(self) -> float:
        """Average power over the whole trace (mW)."""
        if not self.energies_pj:
            return 0.0
        return average_power_mw(self.total_energy_pj,
                                len(self) * self.cycle_period_ps)

    def peak_cycle_power_mw(self) -> float:
        """Power of the most energetic single cycle (mW)."""
        if not self.energies_pj:
            return 0.0
        return average_power_mw(max(self.energies_pj),
                                self.cycle_period_ps)

    def peak_supply_current_ma(self, vdd: float = 1.8) -> float:
        """Peak cycle supply current — the contact-less budget check."""
        if not self.energies_pj:
            return 0.0
        return supply_current_ma(max(self.energies_pj),
                                 self.cycle_period_ps, vdd)

    def windowed_average_mw(self, window: int) -> typing.List[float]:
        """Sliding-window average power (mW), stride 1."""
        if window <= 0:
            raise ValueError("window must be positive")
        if window > len(self):
            return []
        result = []
        running = sum(self.energies_pj[:window])
        result.append(average_power_mw(running,
                                       window * self.cycle_period_ps))
        for i in range(window, len(self)):
            running += self.energies_pj[i] - self.energies_pj[i - window]
            result.append(average_power_mw(running,
                                           window * self.cycle_period_ps))
        return result

    def check_current_limit(self, limit_ma: float, window: int,
                            vdd: float = 1.8) -> typing.List[int]:
        """Cycle indices where windowed supply current exceeds the limit.

        Smart card standards cap supply current (the paper cites GSM's
        10 mA at 5 V); this reports violations of such a budget.
        """
        violations = []
        for index, milliwatts in enumerate(self.windowed_average_mw(window)):
            if milliwatts / vdd > limit_ma:
                violations.append(index)
        return violations


@dataclasses.dataclass(frozen=True)
class EnergySample:
    """One invocation of ``energy_since_last_call`` (Figure 6)."""

    cycle: int
    energy_pj: float


class SamplingProfiler:
    """Polls a :class:`PowerInterface` at caller-chosen instants.

    Reproduces the paper's Figure-6 observation: between two sample
    points the layer-2 interface accumulates *finished phases only*, so
    the sampled profile is not cycle-accurate — a data phase still in
    flight at the sample instant lands in the next sample.
    """

    def __init__(self, power_model: PowerInterface) -> None:
        self.power_model = power_model
        self.samples: typing.List[EnergySample] = []

    def sample(self, cycle: int) -> EnergySample:
        """Take a sample now; returns and records it."""
        sample = EnergySample(
            cycle, self.power_model.energy_since_last_call_pj())
        self.samples.append(sample)
        return sample

    @property
    def total_energy_pj(self) -> float:
        return sum(sample.energy_pj for sample in self.samples)
