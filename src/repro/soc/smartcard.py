"""The Figure-1 smart card platform, assembled.

One call builds the whole target architecture around any of the bus
models: ROM, FLASH, EEPROM and scratchpad RAM behind the EC bus, plus
the memory-mapped UART, the two 16-bit timers, the TRNG and the
interrupt controller.  A platform tick process advances the
peripherals once per clock cycle.

*bus_layer* names the rung of the model hierarchy the bus models
(``"layer1"``, ``"layer2"``, ``"gate-level"`` or ``"layer3"``; see
:mod:`repro.soc.layers`).  Pass ``table=`` to price the card: every
segment bus then gets a fresh energy model, rebuilt on each
:meth:`SmartCardPlatform.cold_boot`.  A ``"layer3"`` card is untimed
and unpriced: scripts complete on its bus through
:class:`~repro.tlm.MessageRun`, its clock never runs, and only the
bridge and peripheral ledgers book energy.  It has no arbiter, so no
DMA.

Every card is a :class:`~repro.fabric.Topology` built by
:func:`~repro.fabric.build_fabric`.  The default is the flat
single-segment card; pass ``topology=`` (a topology or a preset name)
to split it into bridged segments — e.g. ``"two_segment"`` keeps the
memories on the CPU bus and moves the peripherals behind a bridge.
Gate level models the flat card only.

:meth:`SmartCardPlatform.attach_power` puts the card on a DPM-managed
supply: the one recipe for the supply, power domain, governor, power
state machines and controller.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.ec import MemoryMap
from repro.fabric import Topology, build_fabric
from repro.kernel import STEADY_FOREVER, Clock, Module, Simulator
from repro.kernel import time as ktime
from repro.power import (CardPowerModel, DpmController, DpmGovernor,
                         PowerDomain, PowerStateMachine, PowerSupply)

from .cpu import MipsCore
from .dma import DmaController
from .layers import layer_name
from .interrupt import (InterruptController, LINE_TIMER0, LINE_TIMER1,
                        LINE_UART)
from .memory import Eeprom, Flash, Rom, ScratchpadRam
from .rng import TrueRandomNumberGenerator
from .timer import TimerUnit
from .uart import Uart

#: Figure-1 memory map of the modelled platform.
ROM_BASE = 0x0000_0000       # 256 kB program memory
FLASH_BASE = 0x0010_0000     # 64 kB program memory
EEPROM_BASE = 0x0020_0000    # 32 kB data & program memory
RAM_BASE = 0x0030_0000       # scratchpad RAM
UART_BASE = 0x0040_0000
TIMER_BASE = 0x0040_1000
RNG_BASE = 0x0040_2000
INTC_BASE = 0x0040_3000
DMA_BASE = 0x0040_4000

#: 10 MHz system clock (contact-mode smart card operating point)
DEFAULT_CLOCK_HZ = 10e6


def _figure1_slaves() -> typing.Dict[str, typing.Any]:
    """Fresh Figure-1 slaves by topology name, in the flat topology's
    order: the four memories, the UART, the timers, the TRNG and the
    interrupt controller, with the UART and timer interrupts wired to
    the controller."""
    intc = InterruptController(INTC_BASE)
    uart = Uart(UART_BASE, irq_callback=lambda: intc.raise_irq(LINE_UART))
    timers = TimerUnit(
        TIMER_BASE,
        irq_callback=lambda t: intc.raise_irq(
            LINE_TIMER0 if t == 0 else LINE_TIMER1))
    rng = TrueRandomNumberGenerator(RNG_BASE)
    return {"rom": Rom(ROM_BASE), "flash": Flash(FLASH_BASE),
            "eeprom": Eeprom(EEPROM_BASE), "ram": ScratchpadRam(RAM_BASE),
            "uart": uart, "timers": timers, "trng": rng, "intc": intc}


def fresh_memory_map() -> MemoryMap:
    """The flat card's Figure-1 memory map over fresh slaves, built
    without a platform: no simulator, and its dynamic slaves unbound
    until :func:`~repro.soc.layers.build_bus` binds them."""
    memory_map = MemoryMap()
    for name, slave in _figure1_slaves().items():
        memory_map.add_slave(slave, name)
    return memory_map


@dataclasses.dataclass(frozen=True)
class PowerStack:
    """What :meth:`SmartCardPlatform.attach_power` built."""

    #: bus + peripheral + PSM energy, the stream the supply drains
    composite: CardPowerModel
    supply: PowerSupply
    governor: DpmGovernor
    #: the power state machines, by peripheral name
    psms: typing.Dict[str, PowerStateMachine]


class SmartCardPlatform(Module):
    """Simulator + clock + memories + peripherals + one bus fabric."""

    def __init__(self, bus_layer: typing.Union[int, str] = 1,
                 power_model=None,
                 with_cpu: bool = False,
                 topology: typing.Union[Topology, str, None] = None,
                 with_dma: bool = False,
                 table=None,
                 ) -> None:
        layer = layer_name(bus_layer)
        simulator = Simulator("smartcard")
        super().__init__(simulator, "platform")
        # construction recipe, so cold_boot() can rebuild the card
        self._config = dict(
            bus_layer=bus_layer, power_model=power_model,
            with_cpu=with_cpu, topology=topology, with_dma=with_dma,
            table=table)
        self.clock = Clock(
            simulator, "clk",
            period=ktime.period_from_frequency_hz(DEFAULT_CLOCK_HZ))
        #: every slave the card provides, by topology name
        self.slaves = _figure1_slaves()
        (self.rom, self.flash, self.eeprom, self.ram, self.uart,
         self.timers, self.rng, self.intc) = self.slaves.values()
        self.dma: typing.Optional[DmaController] = None
        topology = Topology.coerce(topology)
        if with_dma:
            self.dma = DmaController(DMA_BASE)
            # the DMA contends with the CPU on the root segment; give
            # the segment an arbiter if the topology declares none
            if topology.segment(topology.root).arbiter is None:
                topology = topology.with_arbiter(topology.root,
                                                 "priority_rr")
            topology = topology.with_slave(topology.root, "dma")
        self.topology = topology
        if self.dma is not None:
            self.slaves["dma"] = self.dma
        self.fabric = build_fabric(
            topology, self.slaves, bus_layer=layer, simulator=simulator,
            clock=self.clock, table=table, power_model=power_model)
        root_segment = self.fabric.root
        self.bus = root_segment.bus
        self.memory_map = root_segment.memory_map
        #: the root bus as a rung of the model hierarchy: its energy
        #: model and final-energy rule
        self.layer_bus = root_segment.layer_bus
        #: where CPU-side masters issue: the root arbiter (via a port)
        #: when the root segment is arbitrated, the root bus otherwise
        self.cpu_interface = (
            root_segment.arbiter.port("cpu", priority=0)
            if root_segment.arbiter is not None else self.bus)
        if self.dma is not None:
            self.dma.attach_port(
                self.fabric.master_port(topology.root, "dma", priority=1))
        self.cpu: typing.Optional[MipsCore] = None
        if with_cpu:
            self.cpu = MipsCore(simulator, self.clock, self.cpu_interface,
                                reset_pc=ROM_BASE)
            # the interrupt controller drives the core's interrupt
            # line; programs opt in with `ei` and set the vector via
            # cpu.interrupt_vector (default ROM_BASE + 0x180)
            self.cpu.bind_interrupt_source(self.intc.active,
                                           vector=ROM_BASE + 0x180)
        self._tick_process = self.method(
            self._tick_peripherals, name="peripheral_tick",
            sensitive=[self.clock.posedge_event], dont_initialize=True,
            steady=self._span_peripherals)

    def _tick_peripherals(self) -> None:
        process = self._tick_process
        if process.steady_armed:
            # the hint counts this tick too: read it before ticking
            process.steady_until = (process.run_count
                                    + self._steady_ticks() - 1)
        self.uart.tick()
        self.timers.tick()
        self.rng.tick()
        if self.dma is not None:
            self.dma.tick()

    def _steady_ticks(self) -> int:
        """Peripheral ticks, this one included, before one does
        something another process can see: a UART byte leaving, a
        timer expiring, a TRNG harvest or the EEPROM programming
        window completing (both flip a PSM's ``busy()``).  0 with a
        DMA."""
        if self.dma is not None:
            return 0
        steady = STEADY_FOREVER
        for peripheral in (self.uart, self.timers, self.rng):
            ticks = peripheral.steady_ticks()
            # None: its tick does nothing
            if ticks is not None and ticks < steady:
                steady = ticks
        programming = self.eeprom.busy_cycles_left()
        if programming and programming < steady:
            steady = programming
        return steady

    def _span_peripherals(self, cycles: int) -> None:
        """*cycles* steady peripheral ticks, each peripheral's ledger
        marked where it started (see :mod:`repro.power.interfaces`)."""
        span = self.simulator.steady_spans
        for peripheral in (self.uart, self.timers, self.rng):
            energy = peripheral.energy_pj
            peripheral.span_start = (span, energy, peripheral.span(cycles))

    # -- conveniences --------------------------------------------------------

    def load_rom(self, words: typing.Sequence[int],
                 offset: int = 0) -> None:
        """Back-door load of a program image into ROM."""
        self.rom.load(offset, words)

    def load_assembly(self, source: str) -> None:
        """Assemble *source* at the reset address and load it into ROM."""
        from .assembler import assemble
        self.load_rom(assemble(source, origin=ROM_BASE))

    def run_cycles(self, cycles: int) -> None:
        """Advance the platform by *cycles* clock cycles."""
        self.simulator.run(cycles * self.clock.period)

    def drain(self, limit: int) -> bool:
        """Run until the DMA, every segment bus and every posted bridge
        queue is quiet — energy books are only comparable on a
        quiescent fabric.  False when the fabric has not settled after
        *limit* cycles."""
        for _ in range(limit):
            quiet = ((self.dma is None or not self.dma.busy)
                     and self.fabric.posted_writes_pending == 0
                     and all(not segment.bus.busy
                             for segment in self.fabric.segments.values()))
            if quiet:
                return True
            self.run_cycles(1)
        return False

    def cold_boot(self) -> "SmartCardPlatform":
        """Re-field the card: a fresh platform with this card's
        non-volatile state.

        Builds a brand-new platform (fresh :class:`Simulator`, fresh
        bus, fresh peripherals — everything volatile is gone, exactly
        as after a tear) from the same construction recipe, then
        carries over the stored words of the persistent memories: ROM,
        FLASH and — the one that matters for anti-tearing — the
        EEPROM, byte for byte, including any partially-applied journal
        frame.

        A card priced through ``table=`` boots with fresh energy models
        (and, at gate level, a fresh activity log), so every boot is
        priced separately.  A card built with an explicit
        ``power_model=`` cannot boot again (the model is stateful and
        stays bound to the dead platform's bus): ``ValueError``.
        Boot-time journal recovery is the firmware's first job on the
        new platform — see
        :class:`~repro.soc.journal.TransactionJournal`.
        """
        if self._config["power_model"] is not None:
            raise ValueError("cold_boot needs a card priced through "
                             "table=, not an explicit power_model=")
        platform = SmartCardPlatform(**self._config)
        for name in ("rom", "flash", "eeprom"):
            poke = platform.slaves[name].poke
            for offset, word in self.slaves[name].snapshot().items():
                poke(offset, word)
        return platform

    @property
    def peripheral_energy_pj(self) -> float:
        """Summed peripheral-ledger energy (the future-work extension)."""
        total = (self.uart.energy_pj + self.timers.energy_pj
                 + self.rng.energy_pj + self.intc.energy_pj)
        if self.dma is not None:
            total += self.dma.energy_pj
        return total

    # -- dynamic power management -------------------------------------------

    def energy_ledgers(self) -> typing.List[typing.Any]:
        """The platform's ``energy_pj`` ledgers, for a
        :class:`~repro.power.CardPowerModel` composite."""
        ledgers = [self.uart, self.timers, self.rng, self.intc]
        if self.dma is not None:
            ledgers.append(self.dma)
        return ledgers

    def energy_report(self):
        """Per-link + per-peripheral energy buckets telescoped into one
        probe total (see :meth:`repro.fabric.BusFabric.energy_report`)."""
        return self.fabric.energy_report(self.energy_ledgers())

    def attach_dpm(self, governor: DpmGovernor
                   ) -> typing.Dict[str, PowerStateMachine]:
        """Give every DPM-capable peripheral a power state machine and
        register it with *governor*.

        Returns the created PSMs by peripheral name.  The timers are
        registered *critical*: a running timer is busy by definition
        (gating it would lose time), and stage-2 degradation must not
        force it to sleep.
        """
        specs = (
            ("uart", self.uart, lambda: self.uart.busy, False),
            ("timers", self.timers, lambda: self.timers.busy, True),
            ("trng", self.rng, lambda: self.rng.busy, False),
            ("eeprom", self.eeprom, lambda: self.eeprom.busy, False),
        )
        psms: typing.Dict[str, PowerStateMachine] = {}
        for name, peripheral, busy, critical in specs:
            psm = PowerStateMachine(name=name)
            peripheral.attach_power_state_machine(psm)
            # each busy() flips only with bus traffic, the host's wire
            # or a window the peripheral tick counts (_steady_ticks)
            governor.register(psm, busy, critical=critical)
            psms[name] = psm
        return psms

    def attach_power(self, policy,
                     supply: typing.Optional[
                         typing.Mapping[str, float]] = None,
                     halt_on_power_loss: bool = False,
                     **governor_options) -> PowerStack:
        """Put the card on a DPM-managed supply — the one recipe for
        the power stack.

        Builds, in this order: the fabric composite over
        :meth:`energy_ledgers`; a :class:`~repro.power.PowerSupply`
        draining it (*supply* holds its keyword arguments); the
        :class:`~repro.power.PowerDomain` stepping it each cycle; a
        :class:`~repro.power.DpmGovernor` applying *policy* over the
        card's own ``table`` (*governor_options*: watermarks,
        ``emergency_checkpoint``); :meth:`attach_dpm`, each PSM booked
        into the composite; and the
        :class:`~repro.power.DpmController`, last, so the governor
        sees the charge the domain just settled for the cycle.
        """
        composite = self.fabric.composite(self.energy_ledgers())
        power_supply = PowerSupply(composite, **(supply or {}))
        PowerDomain(self.simulator, self.clock, self.bus, power_supply,
                    halt_on_power_loss=halt_on_power_loss)
        governor = DpmGovernor(power_supply, self._config["table"],
                               policy=policy, **governor_options)
        psms = self.attach_dpm(governor)
        for psm in psms.values():
            composite.add_ledger(psm)
        DpmController(self.simulator, self.clock, governor)
        return PowerStack(composite, power_supply, governor, psms)
