"""Routable multi-bus fabric: topologies, bridges and per-link energy.

The paper's hierarchical layers model *one* bus at three abstraction
levels; this package generalises the platform to *several* buses joined
by bridges, at every one of those levels.  A :class:`Topology`
describes the fabric declaratively, :func:`build_fabric` instantiates
it (per-segment decoders, buses, arbiters and :class:`BusBridge`
windows), and the resulting :class:`BusFabric` telescopes every
per-link energy bucket — segment wires, bridge logic, arbitration —
into one probe total that must balance exactly.
"""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "bridge": ("BusBridge",),
    "builder": ("BusFabric", "FabricEnergyReport", "FabricSegment",
                "build_fabric"),
    "topology": ("ARBITER_POLICIES", "CPU_SLAVES", "FLAT_SLAVES",
                 "PERIPHERAL_SLAVES", "BridgeSpec", "SegmentSpec", "Topology"),
})
