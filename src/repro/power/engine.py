"""Packed-word transition-energy engine for the layer-1 hot path.

The per-cycle energy accounting of :class:`~repro.power.Layer1PowerModel`
is, arithmetically, fifteen XOR + popcount + multiply-accumulate steps.
Substrate-level power emulation (Coburn et al., PAPERS.md) shows this
work can ride on the execution substrate's native word operations: pack
every reconstructed EC interface signal into one fixed lane of a
single machine word per cycle, diff whole words, and look the per-lane
energy up in tables precomputed from the characterisation coefficients.

This module defines the canonical lane layout and the
:class:`PackedEngine` that accounts batches of cycle words: one XOR per
cycle, per-group lane masks to skip silent groups, ``int.bit_count()``
per toggled lane and transition-energy LUTs instead of multiplies.

Byte-identity contract: the engine performs *the same float operations
in the same order* as the naive per-signal scan — per cycle the clock
baseline first, then ascending EC_SIGNALS index order, one
``transitions * coefficient`` product and one add per signal, one
accumulator commit per cycle.  LUT entry ``lut[t]`` is precomputed as
``t * coefficient`` — the identical operation on the identical
operands — so substituting the lookup for the multiply cannot change a
single bit.  The naive scan lives on as the test oracle
(``tests/power/reference_energy.py``).

An engine compiles the LUTs of the table it is built on once, at
construction, and prices with them for its whole life: a recalibrated
table is a new table (``calibrate()`` and ``scaled()`` return copies),
so it gets a new model and a new engine.
"""

from __future__ import annotations

import typing

from repro.ec import EC_SIGNALS, SignalGroup

from .table import CharacterizationTable


# ----------------------------------------------------------------------
# canonical lane layout: one lane per EC signal in a 128-bit word
# ----------------------------------------------------------------------

#: lane bit offsets, byte-aligned for the multi-bit buses: EB_A bytes
#: 0-4, control bits packed into bytes 5-6, EB_RData bytes 8-11,
#: EB_WData bytes 12-15
LANE_SHIFTS: typing.Dict[str, int] = {
    "EB_A": 0,
    "EB_AValid": 40, "EB_Instr": 41, "EB_Write": 42, "EB_Burst": 43,
    "EB_BFirst": 44, "EB_BLast": 45, "EB_ARdy": 46,
    "EB_BE": 48,
    "EB_RdVal": 52, "EB_RBErr": 53, "EB_WDRdy": 54, "EB_WBErr": 55,
    "EB_RData": 64,
    "EB_WData": 96,
}

#: bits per packed cycle word
WORD_BITS = 128

#: (name, shift, width, field mask in place) per signal, EC index order
LANES: typing.Tuple[typing.Tuple[str, int, int, int], ...] = tuple(
    (spec.name, LANE_SHIFTS[spec.name], spec.width,
     spec.mask() << LANE_SHIFTS[spec.name])
    for spec in EC_SIGNALS)

#: reset state of the interface: controls low, EB_ARdy high
RESET_WORD = 1 << LANE_SHIFTS["EB_ARdy"]

#: per-group toggle masks (skip a whole group when none of its lanes
#: toggled this cycle); lane indices are contiguous per group, so the
#: skip cannot reorder the ascending-index accounting walk
GROUP_TOGGLE_MASK: typing.Dict[SignalGroup, int] = {
    group: 0 for group in SignalGroup}
for _spec, (_name, _shift, _width, _mask) in zip(EC_SIGNALS, LANES):
    GROUP_TOGGLE_MASK[_spec.group] |= _mask

#: group accumulator slots, in SignalGroup declaration order (the
#: order ``Layer1PowerModel.group_energy_pj`` has always iterated)
GROUP_ORDER: typing.Tuple[SignalGroup, ...] = tuple(SignalGroup)
GROUP_INDEX: typing.Dict[SignalGroup, int] = {
    group: i for i, group in enumerate(GROUP_ORDER)}


def _check_layout() -> None:
    occupied = 0
    for name, shift, width, mask in LANES:
        if shift + width > WORD_BITS:
            raise AssertionError(f"lane {name} exceeds the packed word")
        if occupied & mask:
            raise AssertionError(f"lane {name} overlaps another lane")
        occupied |= mask


_check_layout()


def unpack_word(word: int) -> typing.Tuple[int, ...]:
    """Per-signal values of a packed word, in EC_SIGNALS index order."""
    return tuple((word >> shift) & (mask >> shift)
                 for _name, shift, _width, mask in LANES)


class PackedEngine:
    """Books batches of packed cycle words: XOR, ``bit_count``, LUTs.

    ``PackedEngine(table)`` compiles *table*'s LUTs once.
    ``flush(model, words)`` books every cycle in *words* against the
    model's books: the attribute set
    :class:`~repro.power.Layer1PowerModel` exposes — ``_counts`` (per
    EC index), ``_gvals`` (per GROUP_ORDER slot), ``_acc``,
    ``_prev_word`` and ``_last_cycle_energy``.

    The flush loop is hand-unrolled over the fifteen lanes — wide buses
    popcount their field, single-bit control lanes add a precomputed
    one-transition energy — with one group-mask test skipping whole
    silent signal groups.  Float accumulators are localised for the
    duration of the flush and written back once; every addition still
    happens in the naive scan's order, so the result is bit-identical.
    """

    def __init__(self, table: CharacterizationTable) -> None:
        luts = table.transition_luts()
        self._clock_e = table.clock_energy_per_cycle_pj
        self._a_lut = luts[0]
        self._be_lut = luts[7]
        self._rdata_lut = luts[9]
        self._wdata_lut = luts[12]
        #: one-transition energies of the single-bit control lanes
        self._bit_costs = tuple(lut[1] for lut in luts)

    def flush(self, model, words: typing.Sequence[int]) -> None:
        if not words:
            return
        clock_e = self._clock_e
        a_lut = self._a_lut
        be_lut = self._be_lut
        rd_lut = self._rdata_lut
        wd_lut = self._wdata_lut
        (_, c_avalid, c_instr, c_write, c_burst, c_bfirst, c_blast, _,
         c_ardy, _, c_rdval, c_rberr, _, c_wdrdy, c_wberr
         ) = self._bit_costs
        counts = model._counts
        gvals = model._gvals
        acc = model._acc
        g_addr = gvals[_GI_ADDR]
        g_read = gvals[_GI_READ]
        g_write = gvals[_GI_WRITE]
        g_clock = gvals[_GI_CLOCK]
        total = acc._total
        prev = model._prev_word
        energy = model._last_cycle_energy
        for word in words:
            toggled = prev ^ word
            prev = word
            energy = clock_e
            g_clock += clock_e
            if toggled:
                if toggled & _ADDR_GROUP:
                    field = toggled & _A_FIELD
                    if field:
                        n = field.bit_count()
                        counts[0] += n
                        se = a_lut[n]
                        energy += se
                        g_addr += se
                    if toggled & _AVALID_BIT:
                        counts[1] += 1
                        energy += c_avalid
                        g_addr += c_avalid
                    if toggled & _INSTR_BIT:
                        counts[2] += 1
                        energy += c_instr
                        g_addr += c_instr
                    if toggled & _WRITE_BIT:
                        counts[3] += 1
                        energy += c_write
                        g_addr += c_write
                    if toggled & _BURST_BIT:
                        counts[4] += 1
                        energy += c_burst
                        g_addr += c_burst
                    if toggled & _BFIRST_BIT:
                        counts[5] += 1
                        energy += c_bfirst
                        g_addr += c_bfirst
                    if toggled & _BLAST_BIT:
                        counts[6] += 1
                        energy += c_blast
                        g_addr += c_blast
                    field = (toggled >> _BE_SHIFT) & 0xF
                    if field:
                        n = field.bit_count()
                        counts[7] += n
                        se = be_lut[n]
                        energy += se
                        g_addr += se
                    if toggled & _ARDY_BIT:
                        counts[8] += 1
                        energy += c_ardy
                        g_addr += c_ardy
                if toggled & _READ_GROUP:
                    field = (toggled >> _RDATA_SHIFT) & 0xFFFFFFFF
                    if field:
                        n = field.bit_count()
                        counts[9] += n
                        se = rd_lut[n]
                        energy += se
                        g_read += se
                    if toggled & _RDVAL_BIT:
                        counts[10] += 1
                        energy += c_rdval
                        g_read += c_rdval
                    if toggled & _RBERR_BIT:
                        counts[11] += 1
                        energy += c_rberr
                        g_read += c_rberr
                if toggled & _WRITE_GROUP:
                    field = toggled >> _WDATA_SHIFT
                    if field:
                        n = field.bit_count()
                        counts[12] += n
                        se = wd_lut[n]
                        energy += se
                        g_write += se
                    if toggled & _WDRDY_BIT:
                        counts[13] += 1
                        energy += c_wdrdy
                        g_write += c_wdrdy
                    if toggled & _WBERR_BIT:
                        counts[14] += 1
                        energy += c_wberr
                        g_write += c_wberr
            total += energy
        acc._total = total
        gvals[_GI_ADDR] = g_addr
        gvals[_GI_READ] = g_read
        gvals[_GI_WRITE] = g_write
        gvals[_GI_CLOCK] = g_clock
        model._prev_word = prev
        model._last_cycle_energy = energy


# module-level lane constants for the hand-unrolled packed flush
_ADDR_GROUP = GROUP_TOGGLE_MASK[SignalGroup.ADDRESS]
_READ_GROUP = GROUP_TOGGLE_MASK[SignalGroup.READ]
_WRITE_GROUP = GROUP_TOGGLE_MASK[SignalGroup.WRITE]
_A_FIELD = LANES[0][3]
_AVALID_BIT = LANES[1][3]
_INSTR_BIT = LANES[2][3]
_WRITE_BIT = LANES[3][3]
_BURST_BIT = LANES[4][3]
_BFIRST_BIT = LANES[5][3]
_BLAST_BIT = LANES[6][3]
_BE_SHIFT = LANES[7][1]
_ARDY_BIT = LANES[8][3]
_RDATA_SHIFT = LANES[9][1]
_RDVAL_BIT = LANES[10][3]
_RBERR_BIT = LANES[11][3]
_WDATA_SHIFT = LANES[12][1]
_WDRDY_BIT = LANES[13][3]
_WBERR_BIT = LANES[14][3]
_GI_ADDR = GROUP_INDEX[SignalGroup.ADDRESS]
_GI_READ = GROUP_INDEX[SignalGroup.READ]
_GI_WRITE = GROUP_INDEX[SignalGroup.WRITE]
_GI_CLOCK = GROUP_INDEX[SignalGroup.CLOCK]
