"""Synthesis helpers: multi-bit building blocks over gate primitives.

The bus controller's address decoder is "synthesised" from these
blocks: per-region range comparators (a >= base AND a < end) feeding
one select line per slave plus a miss line.  The comparator trees are
where address-bus glitches turn into internal switching activity the
transaction-level models never see.
"""

from __future__ import annotations

import typing

from .netlist import Netlist


def magnitude_ge(netlist: Netlist, bits: typing.Sequence[int],
                 threshold: int) -> int:
    """Output high when the unsigned input value is >= *threshold*.

    Classic ripple comparison from MSB down: at each bit position with
    a 1 in the threshold the input must also be 1 (or a higher bit
    already decided); positions with a 0 give a "decided greater" path.
    """
    if threshold <= 0:
        # always true: OR of a bit with its inverse
        first = bits[0]
        return netlist.or_gate(first, netlist.not_gate(first))
    if threshold >= (1 << len(bits)):
        first = bits[0]
        return netlist.and_gate(first, netlist.not_gate(first))
    # gt: input already strictly greater; eq: equal so far (MSB down)
    gt: typing.Optional[int] = None
    eq: typing.Optional[int] = None
    for position in range(len(bits) - 1, -1, -1):
        bit = bits[position]
        threshold_bit = (threshold >> position) & 1
        if threshold_bit:
            # bit must be 1 to stay equal; cannot become greater here
            new_gt = gt
            new_eq = bit if eq is None else netlist.and_gate(eq, bit)
        else:
            # bit of 1 while threshold has 0 -> strictly greater
            greater_here = bit if eq is None else netlist.and_gate(eq, bit)
            new_gt = greater_here if gt is None \
                else netlist.or_gate(gt, greater_here)
            new_eq = netlist.not_gate(bit) if eq is None \
                else netlist.and_gate(eq, netlist.not_gate(bit))
        gt, eq = new_gt, new_eq
    if gt is None:
        return eq
    return netlist.or_gate(gt, eq)


def magnitude_lt(netlist: Netlist, bits: typing.Sequence[int],
                 threshold: int) -> int:
    """Output high when the unsigned input value is < *threshold*."""
    return netlist.not_gate(magnitude_ge(netlist, bits, threshold))


def range_decoder(netlist: Netlist, bits: typing.Sequence[int],
                  base: int, end: int) -> int:
    """Output high when base <= value < end (one slave window)."""
    if not 0 <= base < end:
        raise ValueError(f"bad window [{base:#x}, {end:#x})")
    ge = magnitude_ge(netlist, bits, base)
    lt = magnitude_lt(netlist, bits, end)
    return netlist.and_gate(ge, lt)


def or_tree(netlist: Netlist, terms: typing.Sequence[int]) -> int:
    """Balanced OR tree."""
    terms = list(terms)
    if not terms:
        raise ValueError("empty OR tree")
    while len(terms) > 1:
        next_level = []
        for i in range(0, len(terms) - 1, 2):
            next_level.append(netlist.or_gate(terms[i], terms[i + 1]))
        if len(terms) % 2:
            next_level.append(terms[-1])
        terms = next_level
    return terms[0]
