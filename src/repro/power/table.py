"""The power characterisation table.

The paper's flow (§3.3, "Power Characterization"): run stimulus through
the gate-level model, let the Diesel estimator report energy per wire,
then "abstract all different transitions and use the average energy per
transition for each signal".  The resulting table — signal name to
average pJ per bit transition, plus a per-cycle clock/sequential
baseline and the layer-2 inter-transaction averages — is the only
information the transaction-level energy models receive.
"""

from __future__ import annotations

import dataclasses
import json
import typing

from repro.ec import SIGNALS_BY_NAME


@dataclasses.dataclass
class CharacterizationTable:
    """Average-energy-per-transition coefficients for the TLM models.

    Attributes
    ----------
    energy_per_transition_pj:
        Signal name -> average energy (pJ) of one bit transition on one
        wire of that signal.
    clock_energy_per_cycle_pj:
        Energy charged every cycle for the clock tree and sequential
        elements of the bus subsystem (toggles regardless of traffic).
    inter_txn_address_hamming:
        Layer-2 estimate of address-bus bits toggling between two
        consecutive address phases (layer 2 cannot see the previous
        transaction, §3.3 "Layer 2 Energy Model").
    inter_txn_data_hamming:
        Layer-2 estimate of data-bus bits toggling between the last
        beat of one data phase and the first of the next.
    source:
        Free-form provenance string (characterisation workload name).
    """

    energy_per_transition_pj: typing.Dict[str, float]
    clock_energy_per_cycle_pj: float = 0.0
    inter_txn_address_hamming: float = 0.0
    inter_txn_data_hamming: float = 0.0
    #: layer-2 control model: average transitions per *address phase*
    #: for each address-group control signal.  Layer 2 considers each
    #: phase in isolation, so it can only apply such per-phase
    #: averages; on workloads whose phases are more back-to-back than
    #: the characterisation stimulus these averages over-count.
    address_phase_toggles: typing.Dict[str, float] = dataclasses.field(
        default_factory=dict)
    #: layer-2 control model: average transitions per *data beat* for
    #: the data-valid strobes.
    data_beat_toggles: typing.Dict[str, float] = dataclasses.field(
        default_factory=dict)
    source: str = "unspecified"

    #: structural worst case used when a signal was not characterised:
    #: one assert/deassert pair per phase or beat
    DEFAULT_PHASE_TOGGLES = 2.0

    def __post_init__(self) -> None:
        for name, value in self.energy_per_transition_pj.items():
            if name not in SIGNALS_BY_NAME:
                raise KeyError(f"unknown EC signal in table: {name!r}")
            if value < 0:
                raise ValueError(f"negative coefficient for {name!r}")
        if self.clock_energy_per_cycle_pj < 0:
            raise ValueError("negative clock energy")
        # the LUT memo lives outside the dataclass fields so asdict /
        # to_json round-trips and equality stay coefficient-only
        self._lut_cache: typing.Optional[tuple] = None

    # -- transition-energy LUTs ----------------------------------------------

    def transition_luts(self) -> tuple:
        """Per-signal transition-energy LUTs, EC_SIGNALS index order.

        ``luts[i][t]`` is ``t * coefficient(signal_i)`` — the identical
        float product the per-cycle accounting historically computed,
        precomputed once per signal for every possible transition count
        (0 .. signal width).  Memoized, so every model built on one
        table shares them; a model compiles them once, at construction
        (a recalibrated table is a new table: :meth:`scaled`).
        """
        cache = self._lut_cache
        if cache is None:
            from repro.ec import EC_SIGNALS
            cache = tuple(
                tuple(t * self.coefficient(spec.name)
                      for t in range(spec.width + 1))
                for spec in EC_SIGNALS)
            self._lut_cache = cache
        return cache

    def coefficient(self, signal_name: str) -> float:
        """pJ per bit transition of *signal_name* (0.0 if not listed)."""
        return self.energy_per_transition_pj.get(signal_name, 0.0)

    def phase_toggles(self, signal_name: str) -> float:
        """Average transitions of a control signal per address phase."""
        return self.address_phase_toggles.get(
            signal_name, self.DEFAULT_PHASE_TOGGLES)

    def beat_toggles(self, signal_name: str) -> float:
        """Average transitions of a strobe signal per data beat."""
        return self.data_beat_toggles.get(
            signal_name, self.DEFAULT_PHASE_TOGGLES)

    # -- persistence ---------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CharacterizationTable":
        payload = json.loads(text)
        return cls(**payload)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())

    @classmethod
    def load(cls, path) -> "CharacterizationTable":
        with open(path, encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    # -- composition ----------------------------------------------------------

    def scaled(self, factor: float) -> "CharacterizationTable":
        """A copy with all energies scaled (voltage/process scaling)."""
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        return CharacterizationTable(
            {k: v * factor for k, v in self.energy_per_transition_pj.items()},
            clock_energy_per_cycle_pj=self.clock_energy_per_cycle_pj * factor,
            inter_txn_address_hamming=self.inter_txn_address_hamming,
            inter_txn_data_hamming=self.inter_txn_data_hamming,
            address_phase_toggles=dict(self.address_phase_toggles),
            data_beat_toggles=dict(self.data_beat_toggles),
            source=f"{self.source} (scaled x{factor})",
        )


def default_table() -> CharacterizationTable:
    """A hand-written fallback table with plausible magnitudes.

    Used by examples and tests that do not run the full gate-level
    characterisation flow.  Long top-level bus wires (address, data)
    cost more per transition than short control wires — the relation
    the real layout database showed the paper's authors.
    """
    coefficients = {
        # address & control group
        "EB_A": 0.55, "EB_AValid": 0.30, "EB_Instr": 0.25,
        "EB_Write": 0.25, "EB_Burst": 0.25, "EB_BFirst": 0.22,
        "EB_BLast": 0.22, "EB_BE": 0.28, "EB_ARdy": 0.30,
        # read group
        "EB_RData": 0.60, "EB_RdVal": 0.30, "EB_RBErr": 0.20,
        # write group
        "EB_WData": 0.60, "EB_WDRdy": 0.30, "EB_WBErr": 0.20,
    }
    return CharacterizationTable(
        coefficients,
        clock_energy_per_cycle_pj=1.1,
        inter_txn_address_hamming=5.0,
        inter_txn_data_hamming=10.0,
        source="default (hand-written fallback)",
    )
