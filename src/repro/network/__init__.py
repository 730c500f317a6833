"""On-chip interconnect substrate.

The Sharing Architecture relies on three dedicated 2-D switched networks
(paper Section 5.1): a Scalar Operand Network for operand request/reply
traffic, a load/store sorting network, and a global-rename network.  All
three share the latency model of the Raw/Tilera on-chip networks the paper
adopts (Section 3.4): two cycles between nearest-neighbour Slices plus one
cycle for each additional hop, which the production core
(:mod:`repro.core.batched`) charges as unloaded latency.  This package
holds the mesh those networks (and the cloud fabric) are laid out on.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "Mesh2D": ".topology",
    "Coord": ".topology",
    # submodules
    "topology": ".topology",
})
