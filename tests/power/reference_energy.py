"""Naive energy oracles the compiled power models are tested against.

Layer 1: :class:`ReferenceLayer1` replays the per-cycle signal values a
:class:`~repro.power.SignalStateRecorder` captured, walking all fifteen
EC signals in index order with :func:`~repro.ec.hamming_distance` and
live ``table.coefficient()`` lookups — per cycle the clock baseline
first, one ``transitions * coefficient`` product and one add per
signal, one :meth:`EnergyAccumulator.add` per cycle.  The packed engine
must reproduce this walk float for float.

Layer 2: :class:`ReferenceLayer2Model` books each finished phase from
live coefficient lookups instead of the compiled per-phase constants
and transition-energy LUTs.

Governor: :func:`estimate_transaction_energy_pj` prices a transaction
before it runs from live lookups; the
:class:`~repro.power.EnergyGovernor`'s projection through layer 2's
compiled constants must match it float for float.
"""

from repro.ec import EC_SIGNALS, SignalGroup, TransactionKind
from repro.ec.signals import hamming_distance
from repro.power import EnergyAccumulator, Layer2PowerModel

#: interface reset state, EC_SIGNALS order: controls low, EB_ARdy high
RESET_VALUES = tuple(int(spec.name == "EB_ARdy") for spec in EC_SIGNALS)

#: address-phase control lines, in accounting order
ADDR_CONTROLS = ("EB_AValid", "EB_BFirst", "EB_BLast", "EB_ARdy",
                 "EB_Instr", "EB_Write", "EB_Burst", "EB_BE")

#: (data bus, valid strobe, error strobe) per data-phase direction
READ_CHANNEL = ("EB_RData", "EB_RdVal", "EB_RBErr")
WRITE_CHANNEL = ("EB_WData", "EB_WDRdy", "EB_WBErr")


class ReferenceLayer1:
    """The naive per-cycle, per-signal layer-1 walk (no LUTs, no
    batching).  :meth:`replay` may be called repeatedly; each call
    continues from the last replayed cycle with the table's current
    coefficients."""

    def __init__(self, table):
        self.table = table
        self.energies = []
        self.transition_counts = {spec.name: 0 for spec in EC_SIGNALS}
        self.group_energy_pj = {group: 0.0 for group in SignalGroup}
        self._acc = EnergyAccumulator()
        self._previous = RESET_VALUES

    @property
    def total_energy_pj(self):
        return self._acc.total

    def replay(self, snapshots):
        """Account per-cycle value tuples (EC_SIGNALS order), as
        :attr:`SignalStateRecorder.snapshots` holds them."""
        table = self.table
        clock_energy = table.clock_energy_per_cycle_pj
        for values in snapshots:
            energy = clock_energy
            self.group_energy_pj[SignalGroup.CLOCK] += clock_energy
            for spec, old, new in zip(EC_SIGNALS, self._previous, values):
                transitions = hamming_distance(old, new, spec.width)
                self.transition_counts[spec.name] += transitions
                signal_energy = transitions * table.coefficient(spec.name)
                energy += signal_energy
                self.group_energy_pj[spec.group] += signal_energy
            self._acc.add(energy)
            self.energies.append(energy)
            self._previous = values


class ReferenceLayer2Model(Layer2PowerModel):
    """Layer-2 model booking every phase through live table lookups."""

    def address_phase_finished(self, transaction):
        table = self.table
        coeff = table.coefficient
        energy = table.inter_txn_address_hamming * coeff("EB_A")
        for name in ADDR_CONTROLS:
            energy += table.phase_toggles(name) * coeff(name)
        self.address_phases += 1
        self.group_energy_pj[SignalGroup.ADDRESS] += energy
        self._acc.add(energy)

    def data_phase_finished(self, transaction):
        table = self.table
        coeff = table.coefficient
        is_write = transaction.kind is TransactionKind.DATA_WRITE
        bus_name, valid_name, err_name = (
            WRITE_CHANNEL if is_write else READ_CHANNEL)
        data = transaction.data or []
        energy = table.inter_txn_data_hamming * coeff(bus_name)
        for beat in range(1, transaction.beats_done):
            energy += (data[beat - 1] ^ data[beat]).bit_count() \
                * coeff(bus_name)
        energy += (table.beat_toggles(valid_name)
                   * transaction.burst_length * coeff(valid_name))
        if transaction.error:
            energy += 2.0 * coeff(err_name)
        self.data_phases += 1
        group = SignalGroup.WRITE if is_write else SignalGroup.READ
        self.group_energy_pj[group] += energy
        self._acc.add(energy)


def estimate_transaction_energy_pj(table, transaction):
    """Projected energy of one bus transaction, before it runs.

    The address phase at the characterised inter-transaction average,
    the data phase with exact beat-to-beat Hamming where the payload is
    known (writes) and the characterised average where it is not
    (reads), plus the clock baseline for the transaction's minimum
    occupancy of one address cycle plus one cycle per beat.
    """
    coeff = table.coefficient
    energy = table.inter_txn_address_hamming * coeff("EB_A")
    for name in ADDR_CONTROLS:
        energy += table.phase_toggles(name) * coeff(name)
    if transaction.kind is TransactionKind.DATA_WRITE:
        bus_name, valid_name = "EB_WData", "EB_WDRdy"
    else:
        bus_name, valid_name = "EB_RData", "EB_RdVal"
    energy += table.inter_txn_data_hamming * coeff(bus_name)
    data = transaction.data if (
        transaction.kind is TransactionKind.DATA_WRITE) else None
    for beat in range(1, transaction.burst_length):
        if data is not None:
            energy += (data[beat - 1] ^ data[beat]).bit_count() \
                * coeff(bus_name)
        else:
            energy += table.inter_txn_data_hamming * coeff(bus_name)
    energy += (table.beat_toggles(valid_name)
               * transaction.burst_length * coeff(valid_name))
    energy += ((1 + transaction.burst_length)
               * table.clock_energy_per_cycle_pj)
    return energy
