"""Technology calibration: pricing the card at other process points.

The characterisation table is extracted at one technology point (the
paper's 0.25 um smart card process at nominal supply).  Substrate-level
power emulation work (Coburn et al., PAPERS.md) shows the same
behavioural model can be re-priced for other implementation targets by
scaling the per-event coefficients; this module provides that scaling
as a small calibrated grid — process node x supply voltage -> energy
scale factor relative to the reference point — with bilinear
interpolation between grid points.

The grid entries follow first-order CMOS scaling (switched capacitance
proportional to feature size, energy proportional to C * Vdd^2) with
small per-node deviations standing in for the extraction noise a real
re-characterisation would show — which is exactly why the table
interpolates measured-style entries instead of evaluating the closed
formula.

:meth:`TechnologyTable.calibrate` feeds the factor straight into
:meth:`~repro.power.CharacterizationTable.scaled`, so every energy
model (layer 1, layer 2, the governor's a-priori estimates) prices the
new technology point without any other change.
"""

from __future__ import annotations

import dataclasses
import typing

from .table import CharacterizationTable


@dataclasses.dataclass(frozen=True)
class TechnologyPoint:
    """One calibrated grid entry."""

    node_nm: float
    vdd: float
    scale: float

    def __post_init__(self) -> None:
        if self.node_nm <= 0 or self.vdd <= 0 or self.scale <= 0:
            raise ValueError("node_nm, vdd and scale must be positive")


class TechnologyTable:
    """Energy scale factors over a (process node, Vdd) grid.

    The grid must be rectangular: every listed node paired with every
    listed voltage.  Lookups bilinearly interpolate inside the grid
    (linear in node, linear in Vdd^2 — the physical axis of switching
    energy) and clamp outside it.
    """

    def __init__(self, points: typing.Sequence[TechnologyPoint],
                 reference_node_nm: float,
                 reference_vdd: float) -> None:
        if not points:
            raise ValueError("technology table needs at least one point")
        self.nodes = sorted({p.node_nm for p in points})
        self.vdds = sorted({p.vdd for p in points})
        self._grid: typing.Dict[typing.Tuple[float, float], float] = {
            (p.node_nm, p.vdd): p.scale for p in points}
        missing = [(n, v) for n in self.nodes for v in self.vdds
                   if (n, v) not in self._grid]
        if missing:
            raise ValueError(
                f"technology grid is not rectangular; missing {missing}")
        self.reference_node_nm = reference_node_nm
        self.reference_vdd = reference_vdd

    @staticmethod
    def _bracket(axis: typing.Sequence[float], value: float
                 ) -> typing.Tuple[float, float, float]:
        """Neighbours of *value* on *axis* plus the blend weight,
        clamped to the axis ends."""
        if value <= axis[0]:
            return axis[0], axis[0], 0.0
        if value >= axis[-1]:
            return axis[-1], axis[-1], 0.0
        for low, high in zip(axis, axis[1:]):
            if low <= value <= high:
                weight = (value - low) / (high - low)
                return low, high, weight
        raise AssertionError("unreachable: axis is sorted")

    def scale_factor(self, node_nm: float, vdd: float) -> float:
        """Interpolated energy scale factor at (*node_nm*, *vdd*)."""
        if node_nm <= 0 or vdd <= 0:
            raise ValueError("node_nm and vdd must be positive")
        n_lo, n_hi, n_w = self._bracket(self.nodes, node_nm)
        # interpolate on the Vdd^2 axis: energy is linear in V^2, so
        # the blend between calibrated voltages follows the physics
        squared = [v * v for v in self.vdds]
        v_lo2, v_hi2, v_w = self._bracket(squared, vdd * vdd)
        v_lo = self.vdds[squared.index(v_lo2)]
        v_hi = self.vdds[squared.index(v_hi2)]

        def node_blend(voltage: float) -> float:
            low = self._grid[(n_lo, voltage)]
            high = self._grid[(n_hi, voltage)]
            return low + (high - low) * n_w

        at_lo = node_blend(v_lo)
        at_hi = node_blend(v_hi)
        return at_lo + (at_hi - at_lo) * v_w

    def calibrate(self, table: CharacterizationTable, node_nm: float,
                  vdd: float) -> CharacterizationTable:
        """A characterisation table re-priced at (*node_nm*, *vdd*)."""
        factor = self.scale_factor(node_nm, vdd)
        calibrated = table.scaled(factor)
        calibrated.source = (f"{table.source} @ {node_nm:g} nm / "
                             f"{vdd:g} V (x{factor:.3f})")
        return calibrated

    def corners(self) -> typing.List[TechnologyPoint]:
        """All calibrated grid points, ordered by (node, vdd)."""
        return [TechnologyPoint(n, v, self._grid[(n, v)])
                for n in self.nodes for v in self.vdds]


def default_technology_table() -> TechnologyTable:
    """Calibration grid around the paper's 250 nm / 3.3 V reference.

    Scale values are first-order CMOS scaling (node/250 * (vdd/3.3)^2)
    nudged by a few percent per node, standing in for the residuals a
    real per-node re-characterisation produces (wire capacitance does
    not shrink as fast as gate capacitance at the small nodes).
    """

    def ideal(node: float, vdd: float) -> float:
        return (node / 250.0) * (vdd / 3.3) ** 2

    deviations = {350.0: 0.97, 250.0: 1.00, 180.0: 1.04, 130.0: 1.09}
    points = [
        TechnologyPoint(node, vdd, round(ideal(node, vdd) * dev, 4))
        for node, dev in deviations.items()
        for vdd in (1.8, 3.3, 5.0)
    ]
    return TechnologyTable(points, reference_node_nm=250.0,
                           reference_vdd=3.3)
