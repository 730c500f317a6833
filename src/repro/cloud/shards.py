"""Coupled sharding: N per-shard services, one global price vector.

A single :class:`~repro.cloud.service.AllocationService` serializes
every event through one tatonnement loop.  To span 1M+ events per run,
the stream is split across N per-shard services - each with its own
fabric, roster, and event stream - that trade against a *shared global
price vector*: every ``sync_every`` events per shard, the group
averages the shards' price vectors and broadcasts the mean back, so
local price discovery keeps tracking global supply/demand (the same
periodic-averaging discipline distributed price-adjustment systems
use; prices re-converge from the broadcast point via the existing
warm-started steps).

The group is deterministic: shards run in a fixed round-robin order
over fixed-size chunks, and the averaging is a plain mean over the
shard order, so a coupled run is exactly reproducible.  It is not
checkpointable: only a single stream writes checkpoints.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.cloud.service import TALLIES, AllocationService


class CoupledShards:
    """N allocation services coupled through periodic price averaging.

    ``sync_every`` is the per-shard event interval between global
    price synchronizations.  :meth:`sync` is the whole coupling
    mechanism: average the shards' slice/bank prices, broadcast the
    mean back through each service's price-epoch machinery (so every
    admission-cost cache invalidates exactly as if the shard's own
    tatonnement had moved prices there).

    With ``obs`` (the one its services were built with), the
    ``cloud.service.<tally>`` gauges read the sum over the group's
    services rather than the last-built one's.
    """

    def __init__(self, services: Sequence[AllocationService],
                 sync_every: int = 500, obs=None):
        if not services:
            raise ValueError("need at least one shard service")
        if sync_every < 1:
            raise ValueError("sync_every must be >= 1")
        self.services: List[AllocationService] = list(services)
        self.sync_every = int(sync_every)
        self.n_syncs = 0

        from repro.obs import OBS_OFF

        scope = (obs or OBS_OFF).scope("cloud.shards")
        scope.gauge("price_syncs", lambda: self.n_syncs)
        scope.gauge("shards", lambda: len(self.services))
        scope.gauge("active_tenants", lambda: sum(
            len(s._roster) for s in self.services))
        services = (obs or OBS_OFF).scope("cloud.service")
        for name in TALLIES:
            services.gauge(name, lambda name=name: sum(
                s.tally(name) for s in self.services))

    # ------------------------------------------------------------------
    # coupling
    # ------------------------------------------------------------------

    def prices(self) -> tuple:
        """The global price vector: the mean over shards."""
        n = len(self.services)
        return (sum(s.slice_price for s in self.services) / n,
                sum(s.bank_price for s in self.services) / n)

    def sync(self) -> tuple:
        """Average the shard price vectors and broadcast the mean.

        Returns the broadcast ``(slice_price, bank_price)``.  Prices
        move through ``_set_prices``, which bumps each shard's price
        epoch only when its vector actually changes - a quiescent,
        already-agreed group syncs for free.
        """
        slice_price, bank_price = self.prices()
        for service in self.services:
            service._set_prices(slice_price, bank_price)
        self.n_syncs += 1
        return slice_price, bank_price

    def verify_invariants(self) -> None:
        """Audit every shard (see service ``verify_invariants``)."""
        for service in self.services:
            service.verify_invariants()
