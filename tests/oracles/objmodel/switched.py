"""Switched network timing model.

Latency model (paper Section 3.4): "We model a two-cycle communication
cost between nearest neighbor Slices and an additional cycle for each
additional network hop, the same latency as on a Tilera processor."

So for a Manhattan distance of ``h`` hops the one-way latency is
``insertion_delay + per_hop * h`` with ``insertion_delay = 1`` and
``per_hop = 1`` (giving 2 cycles at h=1).  Local delivery (src == dst)
is free: the value stays in the Slice's own bypass network.

An optional contention model serialises flits per link: each link carries
one flit per cycle and messages queue for the earliest free slot along
their dimension-order route.  The paper found a single operand network
sufficient (a second one buys ~1%, Section 5.1); the contention model lets
the ablation benchmark reproduce that experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.network.topology import Mesh2D
from repro.obs.tracer import NULL_TRACER
from tests.oracles.objmodel.messages import Message


@dataclass
class NetworkStats:
    """Aggregate traffic statistics for one network."""

    messages: int = 0
    total_hops: int = 0
    total_latency: int = 0
    contention_cycles: int = 0

    def record(self, hops: int, latency: int, queued: int) -> None:
        self.messages += 1
        self.total_hops += hops
        self.total_latency += latency
        self.contention_cycles += queued

    @property
    def mean_latency(self) -> float:
        return self.total_latency / self.messages if self.messages else 0.0

    @property
    def mean_hops(self) -> float:
        return self.total_hops / self.messages if self.messages else 0.0


class SwitchedNetwork:
    """One of the dedicated 2-D switched interconnects."""

    def __init__(
        self,
        mesh: Mesh2D,
        name: str = "network",
        insertion_delay: int = 1,
        per_hop: int = 1,
        model_contention: bool = False,
        channels: int = 1,
    ):
        if insertion_delay < 0 or per_hop < 0:
            raise ValueError("delays must be non-negative")
        if channels < 1:
            raise ValueError("need at least one channel")
        self.mesh = mesh
        self.name = name
        self.insertion_delay = insertion_delay
        self.per_hop = per_hop
        self.model_contention = model_contention
        self.channels = channels
        self.stats = NetworkStats()
        self._tracer = NULL_TRACER
        # link -> next cycle at which each channel of the link is free
        self._link_free: Dict[Tuple[int, int], list] = {}

    def attach_obs(self, scope, tracer=NULL_TRACER) -> None:
        """Attach traffic gauges and (optionally) an event tracer.

        With a live tracer every :meth:`send` emits one complete span
        (``cat="network"``, ``ts`` = injection cycle, ``dur`` = transit
        latency) so SON traffic shows up as lanes in Perfetto.
        """
        self._tracer = tracer
        scope.gauge("messages", lambda: self.stats.messages)
        scope.gauge("total_hops", lambda: self.stats.total_hops)
        scope.gauge("mean_latency", lambda: self.stats.mean_latency)
        scope.gauge("mean_hops", lambda: self.stats.mean_hops)
        scope.gauge("contention_cycles",
                    lambda: self.stats.contention_cycles)
        scope.info("insertion_delay", self.insertion_delay)
        scope.info("per_hop", self.per_hop)
        scope.info("channels", self.channels)

    def latency(self, src: int, dst: int) -> int:
        """Unloaded one-way latency from ``src`` to ``dst``."""
        if src == dst:
            return 0
        hops = self.mesh.distance(src, dst)
        return self.insertion_delay + self.per_hop * hops

    def send(self, message: Message, now: Optional[int] = None) -> int:
        """Inject ``message``; returns its arrival cycle at the destination."""
        start = message.sent_cycle if now is None else now
        src, dst = message.src, message.dst
        if src == dst:
            self.stats.record(hops=0, latency=0, queued=0)
            return start
        hops = self.mesh.distance(src, dst)
        unloaded = self.insertion_delay + self.per_hop * hops
        if not self.model_contention:
            self.stats.record(hops=hops, latency=unloaded, queued=0)
            self._tracer.complete(
                f"{self.name}.msg", ts=start, dur=unloaded, cat="network",
                tid=src, args={"dst": dst, "hops": hops},
            )
            return start + unloaded
        arrival, queued = self._send_contended(src, dst, start)
        self.stats.record(hops=hops, latency=arrival - start, queued=queued)
        self._tracer.complete(
            f"{self.name}.msg", ts=start, dur=arrival - start, cat="network",
            tid=src, args={"dst": dst, "hops": hops, "queued": queued},
        )
        return arrival

    def _send_contended(self, src: int, dst: int, start: int) -> Tuple[int, int]:
        """Walk the route claiming one flit slot per link per cycle."""
        t = start + self.insertion_delay
        queued = 0
        for link in self.mesh.route(src, dst):
            free = self._link_free.setdefault(link, [0] * self.channels)
            # Pick the channel that frees up earliest.
            best = min(range(self.channels), key=lambda ch: free[ch])
            depart = max(t, free[best])
            queued += depart - t
            free[best] = depart + 1
            t = depart + self.per_hop
        return t, queued

    def reset_stats(self) -> None:
        self.stats = NetworkStats()
        self._link_free.clear()
