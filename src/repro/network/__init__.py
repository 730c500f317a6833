"""On-chip interconnect substrate.

The Sharing Architecture relies on three dedicated 2-D switched networks
(paper Section 5.1): a Scalar Operand Network for operand request/reply
traffic, a load/store sorting network, and a global-rename network.  All
three share the latency model of the Raw/Tilera on-chip networks the paper
adopts (Section 3.4): two cycles between nearest-neighbour Slices plus one
cycle for each additional hop.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "Mesh2D": ".topology",
    "Coord": ".topology",
    "Message": ".messages",
    "MessageKind": ".messages",
    "OperandRequest": ".messages",
    "OperandReply": ".messages",
    "WakeupSignal": ".messages",
    "RenameBroadcast": ".messages",
    "MemSortMessage": ".messages",
    "CacheRequest": ".messages",
    "CacheReply": ".messages",
    "SwitchedNetwork": ".switched",
    "NetworkStats": ".switched",
    # submodules
    "messages": ".messages",
    "switched": ".switched",
    "topology": ".topology",
})
