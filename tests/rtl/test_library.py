"""Unit and property tests for the synthesis library blocks."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.rtl.library import (magnitude_ge, magnitude_lt, or_tree,
                               range_decoder)
from repro.rtl.netlist import Netlist


def make_value_inputs(netlist, width):
    return [netlist.input(f"b{i}") for i in range(width)]


def drive(netlist, width, value):
    return netlist.step({f"b{i}": (value >> i) & 1 for i in range(width)})


class TestMagnitude:
    @pytest.mark.parametrize("threshold", [0, 1, 5, 8, 15, 16])
    def test_ge_exhaustive_4bit(self, threshold):
        netlist = Netlist()
        bits = make_value_inputs(netlist, 4)
        out = magnitude_ge(netlist, bits, threshold)
        netlist.set_output("ge", out)
        for value in range(16):
            assert drive(netlist, 4, value)["ge"] == int(
                value >= threshold), (value, threshold)

    @pytest.mark.parametrize("threshold", [0, 3, 7, 15, 16])
    def test_lt_exhaustive_4bit(self, threshold):
        netlist = Netlist()
        bits = make_value_inputs(netlist, 4)
        out = magnitude_lt(netlist, bits, threshold)
        netlist.set_output("lt", out)
        for value in range(16):
            assert drive(netlist, 4, value)["lt"] == int(value < threshold)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=255),
           st.integers(min_value=0, max_value=256))
    def test_ge_property_8bit(self, value, threshold):
        netlist = Netlist()
        bits = make_value_inputs(netlist, 8)
        out = magnitude_ge(netlist, bits, threshold)
        netlist.set_output("ge", out)
        assert drive(netlist, 8, value)["ge"] == int(value >= threshold)


class TestRangeDecoder:
    def test_window_detection(self):
        netlist = Netlist()
        bits = make_value_inputs(netlist, 6)
        out = range_decoder(netlist, bits, base=8, end=24)
        netlist.set_output("sel", out)
        for value in range(64):
            assert drive(netlist, 6, value)["sel"] == int(8 <= value < 24)

    def test_bad_window_rejected(self):
        netlist = Netlist()
        bits = make_value_inputs(netlist, 4)
        with pytest.raises(ValueError):
            range_decoder(netlist, bits, base=8, end=8)

    def test_base_zero_window(self):
        netlist = Netlist()
        bits = make_value_inputs(netlist, 4)
        out = range_decoder(netlist, bits, base=0, end=4)
        netlist.set_output("sel", out)
        for value in range(16):
            assert drive(netlist, 4, value)["sel"] == int(value < 4)


class TestTrees:
    def test_or_tree(self):
        netlist = Netlist()
        bits = make_value_inputs(netlist, 5)
        netlist.set_output("any", or_tree(netlist, bits))
        assert drive(netlist, 5, 0)["any"] == 0
        assert drive(netlist, 5, 0b00100)["any"] == 1

    def test_empty_tree_rejected(self):
        netlist = Netlist()
        with pytest.raises(ValueError):
            or_tree(netlist, [])
