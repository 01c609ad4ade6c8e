"""Accuracy robustness across workload classes.

One characterisation table, six workload classes.  The shape that
validates the paper's hierarchy: layer 1's energy error stays inside a
narrow negative band everywhere; layer 2's error swings class to
class; layer-2 timing error appears only under dynamic wait states.
"""

import pytest

from repro.experiments.robustness import run_robustness


@pytest.fixture(scope="module")
def robustness():
    return run_robustness()


def test_layer1_energy_underestimates_in_a_tight_band(robustness):
    l1_energy = [row.layer1_energy_error for row in robustness.rows]
    assert all(error < 0 for error in l1_energy)
    assert max(l1_energy) - min(l1_energy) < 10.0


def test_layer2_energy_error_spreads_widely(robustness):
    l2_energy = [row.layer2_energy_error for row in robustness.rows]
    assert max(l2_energy) - min(l2_energy) > 20.0


def test_layer1_timing_is_always_exact(robustness):
    assert all(row.layer1_timing_error == 0.0 for row in robustness.rows)


def test_layer2_timing_errs_only_under_dynamic_wait_states(robustness):
    assert robustness.row("eeprom_contention").layer2_timing_error != 0.0
    assert robustness.row("sparse").layer2_timing_error == 0.0
