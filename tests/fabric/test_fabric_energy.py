"""Per-link energy attribution: every picojoule lands in a named
bucket and the buckets telescope *exactly* into the composite probe."""

import pytest

from repro.ec import data_read, data_write
from repro.experiments.common import characterization
from repro.fabric import Topology, build_fabric
from repro.kernel import Clock, Simulator
from repro.power import Layer1PowerModel, Layer2PowerModel
from repro.rtl import RtlBus
from repro.soc import RAM_BASE, UART_BASE, SmartCardPlatform
from repro.tlm import PipelinedMaster, run_script
from repro.tlm.master import normalise_script

TABLE = characterization().table


def _script():
    return [data_write(RAM_BASE, [0x11, 0x22, 0x33, 0x44]),
            data_read(RAM_BASE, burst_length=4),
            data_write(UART_BASE, [0x41]),
            data_read(UART_BASE + 4),
            data_read(UART_BASE)]


def _timed_platform(layer, **kwargs):
    return SmartCardPlatform(bus_layer=layer, table=TABLE, **kwargs)


def _run(platform, script, max_cycles=5_000):
    master = PipelinedMaster(platform.simulator, platform.clock,
                             platform.cpu_interface, script, name="cpu")
    run_script(platform.simulator, master, max_cycles, platform.clock)
    platform.run_cycles(200)  # drain posted writes and UART shifts
    assert master.done and not master.errors
    return master


class TestTimedTelescoping:
    @pytest.mark.parametrize("layer", [1, 2])
    def test_two_segment_books_balance(self, layer):
        platform = _timed_platform(layer, topology="two_segment")
        _run(platform, _script())
        report = platform.energy_report()
        assert report.probe_total_pj > 0.0
        assert report.balanced
        assert report.imbalance_pj == 0.0

    @pytest.mark.parametrize("layer", [1, 2])
    def test_buckets_name_every_link(self, layer):
        platform = _timed_platform(layer, topology="two_segment",
                                   with_dma=True)
        _run(platform, _script())
        report = platform.energy_report()
        names = set(report.buckets)
        assert {"bus:cpu", "bus:periph", "bridge:bridge",
                "arbiter:cpu_arbiter"} <= names
        assert any(name.startswith("ledger:") for name in names)
        # the peripheral segment and the bridge both saw the UART
        # traffic, so their buckets are funded
        assert report.buckets["bus:periph"] > 0.0
        assert report.buckets["bridge:bridge"] > 0.0
        assert report.balanced

    def test_bucket_sum_is_bitwise_not_approximate(self):
        platform = _timed_platform(1, topology="two_segment",
                                   with_dma=True)
        _run(platform, _script())
        report = platform.energy_report()
        # the invariant is exact float equality — the composite probe
        # adds the same ledgers in the same left-to-right order
        assert report.probe_total_pj == report.bucket_sum_pj


class TestFlatIdentity:
    @pytest.mark.parametrize("layer", [1, 2])
    def test_explicit_flat_matches_the_default(self, layer):
        results = []
        for topology in (None, Topology.flat()):
            model_cls = Layer1PowerModel if layer == 1 else Layer2PowerModel
            platform = SmartCardPlatform(bus_layer=layer,
                                         power_model=model_cls(TABLE),
                                         topology=topology)
            master = _run(platform, _script())
            report = platform.energy_report()
            results.append((platform.bus.cycle, len(master.completed),
                            report.probe_total_pj, report.balanced))
        assert results[0] == results[1]


class TestLayer3Telescoping:
    def _fabric(self, topology):
        platform = SmartCardPlatform(bus_layer=1)  # slave farm only
        return platform, build_fabric(topology, platform.slaves,
                                      bus_layer=3)

    def test_bridged_untimed_books_balance(self):
        platform, fabric = self._fabric(Topology.two_segment())
        for _, transaction in normalise_script(_script()):
            state = fabric.root_bus.issue(transaction)
            assert state.finished and not transaction.error
        report = fabric.energy_report(platform.energy_ledgers())
        assert report.balanced
        # layer 3 prices no wires, but the bridge still books its
        # forwarded messages and the peripherals their accesses
        assert fabric.bridge("bridge").messages_forwarded > 0
        assert report.buckets["bridge:bridge"] > 0.0
        assert report.probe_total_pj > 0.0

    def test_layer3_rejects_arbitrated_segments(self):
        platform, _ = self._fabric(Topology.two_segment())
        with pytest.raises(ValueError):
            build_fabric(Topology.two_segment(arbiter="priority_rr"),
                         platform.slaves, bus_layer=3)


class TestBuilderValidation:
    def test_missing_slaves_rejected(self):
        with pytest.raises(ValueError) as excinfo:
            build_fabric(Topology.two_segment(), {}, bus_layer=3)
        assert "uart" in str(excinfo.value)

    def test_timed_layers_need_simulator_and_clock(self):
        with pytest.raises(ValueError):
            build_fabric(Topology.flat(), {}, bus_layer=1)

    def _gate_level(self, topology):
        platform = SmartCardPlatform(bus_layer=1)  # slave farm only
        simulator = Simulator("gate")
        clock = Clock(simulator, "clk", period=100)
        return build_fabric(topology, platform.slaves,
                            bus_layer="gate-level", simulator=simulator,
                            clock=clock, table=TABLE)

    def test_gate_level_builds_the_flat_card(self):
        fabric = self._gate_level(Topology.flat())
        assert isinstance(fabric.root_bus, RtlBus)
        # the activity log is priced after the run, not per link
        assert fabric.root.power_model is None
        assert fabric.root.layer_bus.power_model is not None

    def test_gate_level_refuses_a_routed_card(self):
        with pytest.raises(ValueError, match="gate level"):
            self._gate_level(Topology.two_segment())

    def test_master_port_needs_an_arbiter(self):
        platform = _timed_platform(1, topology="two_segment")
        with pytest.raises(ValueError):
            platform.fabric.master_port("periph", "extra")
