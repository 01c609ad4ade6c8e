"""Unit tests for gate primitives, netlist evaluation and glitch
accounting."""

import pytest

from repro.rtl.gates import Gate, GateKind
from repro.rtl.netlist import Netlist, NetlistError


class TestGatePrimitives:
    @pytest.mark.parametrize("kind,inputs,expected", [
        (GateKind.NOT, (0,), 1), (GateKind.NOT, (1,), 0),
        (GateKind.AND, (1, 1), 1), (GateKind.AND, (1, 0), 0),
        (GateKind.OR, (0, 0), 0), (GateKind.OR, (1, 0), 1),
        (GateKind.NAND, (1, 1), 0), (GateKind.NOR, (0, 0), 1),
        (GateKind.XOR, (1, 0), 1), (GateKind.XOR, (1, 1), 0),
        (GateKind.XNOR, (1, 1), 1),
    ])
    def test_truth_tables(self, kind, inputs, expected):
        netlist = Netlist()
        nets = [netlist.input(f"i{i}") for i in range(len(inputs))]
        out = netlist.gate(kind, nets)
        netlist.set_output("out", out)
        values = {f"i{i}": v for i, v in enumerate(inputs)}
        assert netlist.step(values)["out"] == expected

    def test_mux2(self):
        netlist = Netlist()
        sel = netlist.input("sel")
        a = netlist.input("a")
        b = netlist.input("b")
        out = netlist.mux2(sel, a, b)
        netlist.set_output("out", out)
        assert netlist.step({"sel": 0, "a": 1, "b": 0})["out"] == 1
        assert netlist.step({"sel": 1, "a": 1, "b": 0})["out"] == 0

    def test_gate_arity_checked(self):
        with pytest.raises(ValueError):
            Gate(GateKind.NOT, (1, 2), 3)
        with pytest.raises(ValueError):
            Gate(GateKind.AND, (1,), 2)

    def test_bad_input_value_rejected(self):
        netlist = Netlist()
        netlist.input("a")
        with pytest.raises(NetlistError):
            netlist.step({"a": 2})

    def test_unknown_input_rejected(self):
        netlist = Netlist()
        with pytest.raises(NetlistError):
            netlist.step({"nope": 1})


class TestInitialization:
    def test_not_gate_settles_before_first_step(self):
        netlist = Netlist()
        a = netlist.input("a")
        out = netlist.not_gate(a)
        netlist.set_output("out", out)
        # input stays 0: output must already be 1 with no transition
        assert netlist.step({"a": 0})["out"] == 1
        assert netlist.nets[out].transitions == 0

    def test_initialization_counts_no_activity(self):
        netlist = Netlist()
        a = netlist.input("a")
        inv = netlist.not_gate(a)
        netlist.and_gate(inv, a)
        netlist.initialize()
        assert netlist.total_transitions() == 0


class TestActivityAccounting:
    def test_transition_counting(self):
        netlist = Netlist()
        a = netlist.input("a")
        out = netlist.not_gate(a)
        netlist.set_output("out", out)
        netlist.step({"a": 1})
        netlist.step({"a": 0})
        netlist.step({"a": 0})  # no change
        assert netlist.nets[a].transitions == 2
        assert netlist.nets[out].transitions == 2
        assert netlist.nets[out].rise_count == 1
        assert netlist.nets[out].fall_count == 1

    def test_glitch_on_unbalanced_xor(self):
        """a XOR (NOT a) glitches when a toggles: the inverter path is
        one gate slower, so the XOR output momentarily drops."""
        netlist = Netlist()
        a = netlist.input("a")
        inv = netlist.not_gate(a)
        out = netlist.xor_gate(a, inv)
        netlist.set_output("out", out)
        netlist.step({"a": 0})  # settle; out = 1
        before = netlist.nets[out].transitions
        netlist.step({"a": 1})  # out dips to 0 then returns to 1
        assert netlist.nets[out].glitches >= 1
        assert netlist.nets[out].transitions - before == 2
        assert netlist.output_value("out") == 1  # steady state correct

    def test_no_glitch_on_single_path(self):
        netlist = Netlist()
        a = netlist.input("a")
        out = netlist.not_gate(a)
        netlist.set_output("out", out)
        netlist.step({"a": 1})
        assert netlist.total_glitches() == 0

    def test_fanout_increases_capacitance(self):
        netlist = Netlist()
        a = netlist.input("a")
        base_cap = netlist.nets[a].cap_ff
        netlist.not_gate(a)
        netlist.not_gate(a)
        assert netlist.nets[a].cap_ff > base_cap


class TestFlops:
    def test_flop_latches_on_step(self):
        netlist = Netlist()
        d = netlist.input("d")
        q = netlist.flop(d)
        netlist.set_output("q", q)
        assert netlist.step({"d": 1})["q"] == 0  # old D latched (0)
        assert netlist.step({"d": 1})["q"] == 1  # new D visible now
        assert netlist.step({"d": 0})["q"] == 1
        assert netlist.step({"d": 0})["q"] == 0

    def test_flop_feeds_combinational(self):
        netlist = Netlist()
        d = netlist.input("d")
        q = netlist.flop(d)
        out = netlist.not_gate(q)
        netlist.set_output("nq", out)
        netlist.step({"d": 1})
        assert netlist.step({"d": 1})["nq"] == 0


class TestStructure:
    def test_duplicate_input_rejected(self):
        netlist = Netlist()
        netlist.input("a")
        with pytest.raises(NetlistError):
            netlist.input("a")

    def test_repr_mentions_size(self):
        netlist = Netlist("dec")
        a = netlist.input("a")
        netlist.not_gate(a)
        assert "gates=1" in repr(netlist)


class TestNetReferences:
    def test_gate_input_naming_no_net_rejected(self):
        netlist = Netlist("dec")
        a = netlist.input("a")
        with pytest.raises(NetlistError, match="input 5 names no net"):
            netlist.gate(GateKind.AND, [a, 5])
        assert len(netlist.nets) == 1 and not netlist.gates

    def test_gate_cannot_feed_its_own_output(self):
        netlist = Netlist()
        a = netlist.input("a")
        with pytest.raises(NetlistError, match="names no net"):
            netlist.and_gate(a, a + 1)

    def test_negative_index_and_bad_flop_data_rejected(self):
        netlist = Netlist()
        netlist.input("a")
        with pytest.raises(NetlistError, match="-1"):
            netlist.not_gate(-1)
        with pytest.raises(NetlistError, match="flop data 3"):
            netlist.flop(3)
