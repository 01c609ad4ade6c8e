"""The synthesised address decoder: the compiled step against the
event-driven oracle, the per-layout template cache, and its input
range."""

import random

import pytest

from repro.ec import ADDRESS_BITS, DecodeError
from repro.rtl import build_address_decoder
from repro.rtl.decoder import _synthesise
from repro.soc.layers import build_bus
from repro.soc.smartcard import (EEPROM_BASE, RAM_BASE, ROM_BASE,
                                 fresh_memory_map)
from repro.tlm import PipelinedMaster, run_script
from repro.workloads import Window, generate_script
from repro.workloads.generator import PROGRAM_MIX

from tests.rtl.reference_netlist import ReferenceNetlist, net_state


def behavioural(memory_map, address):
    try:
        return memory_map.decode(address)
    except DecodeError:
        return None


def seeded_addresses(memory_map, count, seed=2004):
    """In-window, boundary and wide addresses; a third repeat the
    previous one, so quiet cycles occur."""
    rng = random.Random(seed)
    regions = memory_map.regions
    addresses = [0]
    while len(addresses) < count:
        roll = rng.random()
        if roll < 0.33:
            address = addresses[-1]
        elif roll < 0.75:
            region = rng.choice(regions)
            address = rng.randrange(region.base, region.end)
        elif roll < 0.9:
            region = rng.choice(regions)
            address = rng.choice((region.base, region.end - 1, region.end))
        else:
            address = rng.randrange(1 << ADDRESS_BITS)
        addresses.append(address)
    return addresses


class TestDecoderAgainstOracle:
    def test_every_net_matches_the_event_driven_oracle(self):
        memory_map = fresh_memory_map()
        decoder = build_address_decoder(memory_map)
        reference = ReferenceNetlist(decoder.netlist)
        addresses = seeded_addresses(memory_map, 2000)
        repeats = sum(a == b for a, b in zip(addresses, addresses[1:]))
        assert repeats > 500
        for cycle, address in enumerate(addresses):
            region = decoder.evaluate(address)
            outputs = reference.step(
                {f"a{i}": (address >> i) & 1 for i in range(ADDRESS_BITS)})
            oracle = None if outputs["miss"] else next(
                decoder.select_names[name] for name in decoder.select_names
                if outputs[name])
            assert region is oracle is behavioural(memory_map, address), \
                hex(address)
            if cycle % 250 == 0:
                assert net_state(decoder.netlist.nets) == \
                    net_state(reference.nets), cycle
        assert net_state(decoder.netlist.nets) == net_state(reference.nets)
        assert decoder.netlist.total_glitches() > 0
        assert decoder.netlist.cycles_run == len(addresses)


class TestAddressRange:
    def test_wide_address_rejected_like_the_behavioural_decode(self):
        memory_map = fresh_memory_map()
        decoder = build_address_decoder(memory_map)
        wide = 0x10_0030_0000  # RAM_BASE plus a bit above the 36 inputs
        assert wide & ((1 << ADDRESS_BITS) - 1) == RAM_BASE
        with pytest.raises(DecodeError):
            memory_map.decode(wide)
        with pytest.raises(ValueError, match="36-bit"):
            decoder.evaluate(wide)
        with pytest.raises(ValueError):
            decoder.evaluate(-4)
        assert decoder.netlist.cycles_run == 0

    def test_top_address_still_decodes(self):
        decoder = build_address_decoder(fresh_memory_map())
        assert decoder.evaluate((1 << ADDRESS_BITS) - 1) is None


def gate_level_bus(memory_map):
    layer_bus = build_bus("gate-level", None, None, memory_map)
    return layer_bus.simulator, layer_bus.clock, layer_bus.bus


def structure(netlist):
    return ([(net.name, net.cap_ff, net.value) for net in netlist.nets],
            netlist.gates, netlist.flops, netlist.input_nets,
            netlist.output_nets)


def assert_fresh(netlist, uncached):
    assert netlist.cycles_run == 0
    assert all(state[1:] == (0, 0, 0, 0)
               for state in net_state(netlist.nets))
    assert structure(netlist) == structure(uncached)


class TestTemplateIsolation:
    def test_buses_on_one_layout_start_fresh_and_stay_apart(self):
        first_map, second_map = fresh_memory_map(), fresh_memory_map()
        simulator, clock, first = gate_level_bus(first_map)
        _, _, second = gate_level_bus(second_map)
        layout = tuple((region.name, region.base, region.end)
                       for region in first_map.regions)
        uncached = _synthesise.__wrapped__(layout, ADDRESS_BITS)
        assert_fresh(first.decoder.netlist, uncached)
        assert_fresh(second.decoder.netlist, uncached)
        assert first.decoder.netlist is not second.decoder.netlist
        # a long run on the first bus
        windows = [Window(RAM_BASE, 0x1000), Window(EEPROM_BASE, 0x1000),
                   Window(ROM_BASE, 0x1000, executable=True,
                          writable=False)]
        script = generate_script(random.Random(7), 60, windows,
                                 PROGRAM_MIX)
        master = PipelinedMaster(simulator, clock, first, script)
        run_script(simulator, master, 100_000, clock)
        assert len(master.completed) == 60
        assert first.decoder.netlist.total_transitions() > 0
        assert first.decoder.netlist.total_glitches() > 0
        # no counters leaked to the idle bus, nor to a bus built later
        assert_fresh(second.decoder.netlist, uncached)
        _, _, third = gate_level_bus(fresh_memory_map())
        assert_fresh(third.decoder.netlist, uncached)

    def test_selects_map_to_the_buses_own_regions(self):
        buses = [gate_level_bus(fresh_memory_map())[2] for _ in range(2)]
        regions = [bus.decoder.evaluate(RAM_BASE) for bus in buses]
        for bus, region in zip(buses, regions):
            assert region is bus.memory_map.decode(RAM_BASE)
        assert regions[0] is not regions[1]
