"""Transition-energy LUT memoization.

The packed-word engine precomputes, per EC signal, a table mapping
"bits toggled" to energy.  Correctness depends on two properties:

* the LUT entry is the *identical* float product the per-signal walk
  computed (``transitions * coefficient``), so replacing the walk by a
  lookup cannot move a single bit of any result, and
* a model prices with the table it was built on: it compiles that
  table's LUTs once, at construction.  A recalibrated table is a new
  table (``calibrate()`` returns a copy), so its LUTs and the models
  built on it are its own.
"""

from repro.ec import (EC_SIGNALS, SlaveResponse, TransactionKind,
                      data_write)
from repro.power import (Layer1PowerModel, Layer2PowerModel,
                         SignalStateRecorder, default_table)
from repro.power.calibration import default_technology_table

from tests.power.reference_energy import (ReferenceLayer1,
                                          ReferenceLayer2Model)


class _Txn:
    """The attribute subset ``Layer1PowerModel.commit_cycle`` reads."""

    def __init__(self, txn_id, address, enables=0xF,
                 kind=TransactionKind.DATA_READ, burst_length=1):
        self.txn_id = txn_id
        self.address = address
        self._enables = enables
        self.kind = kind
        self.burst_length = burst_length


def _drive(model, cycles):
    """A fixed activity pattern with address + read-data transitions."""
    for index in range(cycles):
        if index % 3 == 0:
            model.commit_cycle(index, _Txn(index, 0x5A5A0 ^ (index << 4)),
                               True, SlaveResponse.ok(0xDEAD0000 | index),
                               0, None)
        else:
            model.commit_cycle(index, None, False, None, 0, None)


class TestLutMemoization:

    def test_luts_are_memoized(self):
        table = default_table()
        assert table.transition_luts() is table.transition_luts()

    def test_lut_entries_are_the_walks_float_products(self):
        table = default_table()
        luts = table.transition_luts()
        assert len(luts) == len(EC_SIGNALS)
        for lut, spec in zip(luts, EC_SIGNALS):
            assert len(lut) == spec.width + 1
            coefficient = table.coefficient(spec.name)
            for transitions in range(spec.width + 1):
                assert lut[transitions] == transitions * coefficient

    def test_json_round_trip_ignores_memo_state(self):
        table = default_table()
        table.transition_luts()
        clone = type(table).from_json(table.to_json())
        assert clone.energy_per_transition_pj == \
            table.energy_per_transition_pj


class TestCalibrationFreshness:

    def test_calibrated_luts_are_its_own_coefficients(self):
        table = default_table()
        table.transition_luts()  # warm the memo on the source table
        calibrated = default_technology_table().calibrate(
            table, node_nm=180.0, vdd=2.5)
        luts = calibrated.transition_luts()
        for lut, spec in zip(luts, EC_SIGNALS):
            assert lut[1] == calibrated.coefficient(spec.name)
        assert calibrated.coefficient("EB_A") != table.coefficient("EB_A")


class TestModelsPriceTheirOwnTable:
    """A model built on a calibrated table prices with its coefficients,
    not with the memo of the table it was calibrated from."""

    def _tables(self):
        table = default_table()
        table.transition_luts()  # warm the memo on the source table
        calibrated = default_technology_table().calibrate(
            table, node_nm=130.0, vdd=1.8)
        return table, calibrated

    def test_layer1_model_on_a_calibrated_table(self):
        table, calibrated = self._tables()
        totals = []
        for priced in (table, calibrated):
            recorder = SignalStateRecorder()
            compiled = Layer1PowerModel(priced, recorder=recorder)
            oracle = ReferenceLayer1(priced)
            _drive(compiled, 30)
            oracle.replay(recorder.snapshots)
            assert compiled.total_energy_pj == oracle.total_energy_pj
            assert compiled.group_energy_pj == oracle.group_energy_pj
            totals.append(compiled.total_energy_pj)
        assert totals[0] != totals[1]

    def test_layer2_model_on_a_calibrated_table(self):
        table, calibrated = self._tables()
        script = [data_write(0x100, [0x0F0F0F0F, 0xF0F0F0F0])]
        totals = []
        for priced in (table, calibrated):
            compiled = Layer2PowerModel(priced)
            oracle = ReferenceLayer2Model(priced)
            for model in (compiled, oracle):
                for transaction in script:
                    model.address_phase_finished(transaction)
                    model.data_phase_finished(transaction)
            assert compiled.total_energy_pj == oracle.total_energy_pj
            totals.append(compiled.total_energy_pj)
        assert totals[0] != totals[1]
