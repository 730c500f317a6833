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
shard order, so a coupled run is exactly reproducible and
checkpointable (:meth:`CoupledShards.snapshot` /
:meth:`CoupledShards.restore` round-trip every shard's full service
state - including its tensor arena layout - plus the sync counter).
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.cloud.service import AllocationService


class CoupledShards:
    """N allocation services coupled through periodic price averaging.

    ``sync_every`` is the per-shard event interval between global
    price synchronizations.  :meth:`sync` is the whole coupling
    mechanism: average the shards' slice/bank prices, broadcast the
    mean back through each service's price-epoch machinery (so every
    admission-cost cache invalidates exactly as if the shard's own
    tatonnement had moved prices there).
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
        self._c_syncs = scope.counter("price_syncs")
        scope.gauge("shards", lambda: len(self.services))
        scope.gauge("active_tenants", lambda: sum(
            len(s._roster) for s in self.services))

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
        self._c_syncs.inc()
        return slice_price, bank_price

    # ------------------------------------------------------------------
    # checkpoint / restore
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-stable group state: every shard's full service
        snapshot (arena layout included) plus the sync counter."""
        return {
            "version": 1,
            "sync_every": self.sync_every,
            "n_syncs": self.n_syncs,
            "shards": [s.snapshot() for s in self.services],
        }

    def restore(self, state: Dict[str, Any]) -> None:
        """Reset this group to a :meth:`snapshot` - bit-exact resume.

        The snapshot must be version 1, and the group must have been
        built with the same shard count, ``sync_every`` and shard
        shapes.  Anything else - including a shard snapshot the
        :meth:`~repro.cloud.service.AllocationService.restore` guard
        rejects - raises :class:`ValueError` before any shard changes.
        """
        version = state.get("version")
        if version != 1:
            raise ValueError(
                f"unsupported coupled snapshot version {version!r}; "
                "restore accepts version 1")
        shards = state["shards"]
        if len(shards) != len(self.services):
            raise ValueError(
                f"snapshot has {len(shards)} shards, group has "
                f"{len(self.services)}")
        if int(state["sync_every"]) != self.sync_every:
            raise ValueError(
                f"snapshot sync_every={state['sync_every']} does not "
                f"match group sync_every={self.sync_every}")
        for service, shard_state in zip(self.services, shards):
            service._check_snapshot(shard_state)
        for service, shard_state in zip(self.services, shards):
            service.restore(shard_state)
        self.n_syncs = int(state["n_syncs"])

    def verify_invariants(self) -> None:
        """Audit every shard (see service ``verify_invariants``)."""
        for service in self.services:
            service.verify_invariants()

    def summary_totals(self) -> Dict[str, float]:
        """Cross-shard aggregate of the result-bearing tallies."""
        summaries = [s.summary() for s in self.services]
        slice_price, bank_price = self.prices()
        n = len(summaries)
        return {
            "admitted": float(sum(s.admitted for s in summaries)),
            "rejected_price": float(sum(s.rejected_price
                                        for s in summaries)),
            "rejected_capacity": float(sum(s.rejected_capacity
                                           for s in summaries)),
            "departures": float(sum(s.departures for s in summaries)),
            "resizes": float(sum(s.resizes for s in summaries)),
            "reprice_rounds": float(sum(s.reprice_rounds
                                        for s in summaries)),
            "compactions": float(sum(s.compactions for s in summaries)),
            "active_tenants": float(sum(s.active_tenants
                                        for s in summaries)),
            "slice_price": slice_price,
            "bank_price": bank_price,
            "final_fragmentation": (sum(s.fragmentation
                                        for s in summaries) / n),
            "dead_letters": float(sum(s.dead_letters
                                      for s in summaries)),
            "degraded_steps": float(sum(s.degraded_steps
                                        for s in summaries)),
            "readmitted": float(sum(s.readmitted for s in summaries)),
            "price_syncs": float(self.n_syncs),
        }
