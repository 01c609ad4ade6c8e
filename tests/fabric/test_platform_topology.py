"""The assembled card on a routed topology, and multi-master
contention with per-port energy attribution (DMA vs CPU)."""

import pytest

from repro.ec import data_read, data_write
from repro.experiments.common import characterization
from repro.soc import DMA_BASE, RAM_BASE, UART_BASE, SmartCardPlatform
from repro.soc.dma import CTRL, CTRL_BURST, CTRL_START, DST, LEN, SRC
from repro.tlm import PipelinedMaster, run_script
from repro.tlm.arbiter import GRANT_COST_PJ, WAIT_COST_PJ

TABLE = characterization().table


def _platform(layer, **kwargs):
    return SmartCardPlatform(bus_layer=layer, table=TABLE, **kwargs)


def _run(platform, script, max_cycles=8_000):
    master = PipelinedMaster(platform.simulator, platform.clock,
                             platform.cpu_interface, script, name="cpu")
    run_script(platform.simulator, master, max_cycles, platform.clock)
    return master


def _drain(platform, limit=3_000):
    assert platform.drain(limit), "fabric did not drain"


class TestTwoSegmentCard:
    def test_uart_reachable_through_bridge(self):
        platform = _platform(1, topology="two_segment")
        master = _run(platform, [data_write(UART_BASE, [0x5A]),
                                 data_read(UART_BASE + 4)])
        _drain(platform)
        assert master.done and not master.errors
        bridge = platform.fabric.bridge("bridge")
        assert bridge.forwarded_reads >= 1
        assert bridge.event_counts["posted_write"] >= 1

    def test_memory_traffic_stays_on_the_cpu_segment(self):
        platform = _platform(1, topology="two_segment")
        master = _run(platform, [data_write(RAM_BASE, [1, 2, 3, 4]),
                                 data_read(RAM_BASE, burst_length=4)])
        _drain(platform)
        assert master.completed[-1].data == [1, 2, 3, 4]
        bridge = platform.fabric.bridge("bridge")
        assert bridge.forwarded_reads == 0
        assert bridge.forwarded_writes == 0

    def test_cold_boot_rebuilds_the_routed_card(self):
        platform = SmartCardPlatform(bus_layer=1, topology="two_segment")
        platform.eeprom.load(0, [0xCAFE])
        rebooted = platform.cold_boot()
        assert not rebooted.topology.is_flat
        assert rebooted.eeprom.peek(0) == 0xCAFE
        master = _run(rebooted, [data_read(UART_BASE + 4)])
        _drain(rebooted)
        assert master.done and not master.errors


def _contention_script(words):
    """Stage a DMA source buffer, start a burst move, then hammer the
    same RAM slave with CPU reads while the move is in flight."""
    src, dst = RAM_BASE + 0x600, RAM_BASE + 0x700
    payload = list(range(1, words + 1))
    script = [data_write(src + 16 * i, payload[4 * i:4 * i + 4])
              for i in range(0, words // 4)]
    for offset, value in ((SRC, src), (DST, dst), (LEN, words),
                          (CTRL, CTRL_START | CTRL_BURST)):
        script.append(data_write(DMA_BASE + 4 * offset, [value]))
    script += [data_read(RAM_BASE + 4 * i) for i in range(16)]
    return script, src, dst


class TestMultiMasterContention:
    """Satellite: DMA and CPU hammer the same RAM slave; every grant
    and wait cycle lands in a per-port ledger and the arbiter bucket
    telescopes into the platform probe total."""

    @pytest.mark.parametrize("layer", [1, 2])
    def test_contended_books_telescope(self, layer):
        words = 8
        platform = _platform(layer, with_dma=True)
        script, src, dst = _contention_script(words)
        master = _run(platform, script)
        _drain(platform)
        assert master.done and not master.errors
        assert platform.dma.words_moved == words
        assert [platform.ram.peek(dst - RAM_BASE + 4 * i)
                for i in range(words)] == list(range(1, words + 1))

        arbiter = platform.fabric.root.arbiter
        ports = {port.name: port for port in arbiter.ports}
        assert ports["cpu"].grants == len(script)
        assert ports["dma"].grants > 0
        # the streams overlapped: somebody had to wait for the grant
        assert sum(port.wait_cycles for port in arbiter.ports) > 0

        # per-port ledgers decompose into grant/wait counts and sum
        # bitwise into the arbiter bucket
        for port in arbiter.ports:
            expected = (port.grants * GRANT_COST_PJ
                        + port.wait_cycles * WAIT_COST_PJ)
            assert port.energy_pj == pytest.approx(expected)
        total = 0.0
        for port in arbiter.ports:
            total += port.energy_pj
        assert arbiter.energy_pj == total

        report = platform.energy_report()
        assert report.balanced
        assert report.buckets["arbiter:bus_arbiter"] == arbiter.energy_pj

    @pytest.mark.parametrize("layer", [1, 2])
    def test_contention_across_the_bridge(self, layer):
        # same duel on the routed card: the CPU's UART traffic crosses
        # the bridge while the DMA occupies the root segment
        platform = _platform(layer, topology="two_segment", with_dma=True)
        script, _, _ = _contention_script(8)
        script += [data_write(UART_BASE, [0x77]),
                   data_read(UART_BASE + 4)]
        master = _run(platform, script)
        _drain(platform)
        assert master.done and not master.errors
        bridge = platform.fabric.bridge("bridge")
        assert bridge.forwarded_reads + bridge.forwarded_writes > 0
        report = platform.energy_report()
        assert report.balanced
        assert report.buckets["bridge:bridge"] > 0.0
