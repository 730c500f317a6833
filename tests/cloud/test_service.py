"""The streaming allocation service: events, admission, placement."""

import pytest

from repro.cloud.fabric import Fabric, TileKind
from repro.cloud.service import (
    AllocationService,
    Event,
    StreamSummary,
    TenantRequest,
)
from repro.economics.utility import UTILITY1, UTILITY2, UTILITY3


def tenant(name, benchmark="gcc", utility=UTILITY2, budget=24.0):
    return TenantRequest(name=name, benchmark=benchmark,
                         utility=utility, budget=budget)


def economics_service(**kwargs):
    kwargs.setdefault("slice_supply", 64.0)
    kwargs.setdefault("bank_supply", 64.0)
    return AllocationService(**kwargs)


class TestConstruction:
    def test_needs_fabric_or_supplies(self):
        with pytest.raises(ValueError):
            AllocationService()

    def test_supplies_default_from_fabric(self):
        fabric = Fabric(16, 8)
        service = AllocationService(fabric=fabric)
        assert service.slice_supply == fabric.num_slices
        assert service.bank_supply == fabric.num_banks

    def test_only_the_numpy_backend(self):
        economics_service(backend="numpy")
        with pytest.raises(ValueError, match="economics backend") as info:
            economics_service(backend="python")
        assert "\n" not in str(info.value)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            economics_service(admission_floor=-0.1)
        with pytest.raises(ValueError):
            economics_service(max_vcores=0)
        with pytest.raises(ValueError):
            AllocationService(slice_supply=-1.0, bank_supply=1.0)


class TestEvents:
    def test_event_validation(self):
        with pytest.raises(ValueError):
            Event(kind="arrive")
        with pytest.raises(ValueError):
            Event(kind="submit")
        with pytest.raises(ValueError):
            Event(kind="depart")
        with pytest.raises(ValueError):
            Event(kind="resize")

    def test_apply_dispatches(self):
        service = economics_service()
        result = service.apply(Event(kind="submit", tenant=tenant("a")))
        assert result.admitted
        service.apply(Event(kind="resize", tenant_id="a", budget=30.0))
        assert service.tenant("a").budget == 30.0
        service.apply(Event(kind="depart", tenant_id="a"))
        assert service.active_tenants == []


class TestSubmit:
    def test_admits_and_tracks(self):
        service = economics_service()
        result = service.submit(tenant("a"))
        assert result.admitted and result.reason == "admitted"
        assert result.vcores >= 1
        assert result.utility > 0
        assert result.marginal_utility == pytest.approx(
            result.utility / 24.0)
        assert service.active_tenants == ["a"]

    def test_duplicate_name_raises(self):
        service = economics_service()
        service.submit(tenant("a"))
        with pytest.raises(ValueError):
            service.submit(tenant("a"))

    def test_admission_floor_rejects(self):
        service = economics_service(admission_floor=1e9)
        result = service.submit(tenant("a"))
        assert not result.admitted
        assert result.reason == "rejected_price"
        assert service.active_tenants == []

    def test_capacity_rejection_on_full_fabric(self):
        service = AllocationService(fabric=Fabric(4, 1))
        results = [service.submit(tenant(f"t{i}")) for i in range(8)]
        assert any(r.reason == "rejected_capacity" for r in results)
        # A rejected tenant holds no tiles and is not in the market.
        rejected = next(r for r in results
                        if r.reason == "rejected_capacity")
        assert service.fabric.owned_by(rejected.tenant) == []
        assert rejected.tenant not in service.active_tenants


class TestDepart:
    def test_depart_releases_tiles(self):
        fabric = Fabric(16, 8)
        service = AllocationService(fabric=fabric)
        service.submit(tenant("a"))
        assert fabric.owned_by("a")
        service.depart("a")
        assert fabric.owned_by("a") == []
        assert fabric.free_count(TileKind.SLICE) == fabric.num_slices

    def test_depart_unknown_raises(self):
        service = economics_service()
        with pytest.raises(KeyError):
            service.depart("ghost")

    def test_submit_depart_restores_empty_market(self):
        service = economics_service()
        service.submit(tenant("a"))
        service.depart("a")
        assert service.active_tenants == []
        summary = service.summary()
        assert summary.admitted == 1
        assert summary.departures == 1


class TestResize:
    def test_resize_keeps_configuration(self):
        service = economics_service()
        before = service.submit(tenant("a", budget=24.0))
        after = service.resize("a", 48.0)
        # Optimal (cache, slices) is budget-independent; only the
        # replication factor may move.
        assert after.cache_kb == before.cache_kb
        assert after.slices == before.slices
        assert after.vcores >= before.vcores
        assert service.tenant("a").budget == 48.0

    def test_resize_unknown_raises(self):
        service = economics_service()
        with pytest.raises(KeyError):
            service.resize("ghost", 10.0)
        with pytest.raises(ValueError):
            service.submit(tenant("a"))
            service.resize("a", -1.0)

    def test_unabsorbable_resize_restores_placement(self):
        fabric = Fabric(32, 2)
        service = AllocationService(fabric=fabric, max_vcores=8)
        first = service.submit(tenant("a", budget=24.0))
        assert first.admitted
        # Fill the rest of the fabric so growth has nowhere to go.
        filler = 0
        while True:
            result = service.submit(tenant(f"f{filler}", budget=24.0))
            filler += 1
            if not result.admitted:
                break
        before_nodes = fabric.owned_by("a")
        result = service.resize("a", 2000.0)
        if not result.admitted:
            assert result.reason == "rejected_capacity"
            assert fabric.owned_by("a") == before_nodes
            # The budget change was rejected wholesale.
            assert service.tenant("a").budget == 24.0


class TestStep:
    def test_empty_market_step_is_identity(self):
        service = economics_service(initial_slice_price=3.3,
                                    initial_bank_price=1.7)
        result = service.step()
        assert result.rounds == 0 and result.converged
        assert service.prices() == (3.3, 1.7)

    def test_step_moves_prices_under_overdemand(self):
        service = economics_service(slice_supply=4.0, bank_supply=4.0)
        for i in range(6):
            service.submit(tenant(f"t{i}", budget=50.0))
        p0 = service.prices()
        result = service.step()
        assert result.rounds >= 1
        assert service.prices() != p0

    def test_quiescent_market_reprices_in_one_round(self):
        service = economics_service(slice_supply=512.0,
                                    bank_supply=512.0)
        for i, u in enumerate((UTILITY1, UTILITY2, UTILITY3)):
            service.submit(tenant(f"t{i}", utility=u))
        service.step()
        prices = service.prices()
        again = service.step()
        # Warm start at a fixed point: one round, zero movement.
        assert again.rounds == 1 and again.converged
        assert service.prices() == prices


class TestRunAndSummary:
    def test_run_stream(self):
        """Events applied with ``process`` and a ``step`` every second
        event land in the summary's tallies."""
        service = economics_service()
        events = [
            Event(kind="submit", tenant=tenant("a")),
            Event(kind="submit", tenant=tenant("b", benchmark="mcf")),
            Event(kind="resize", tenant_id="a", budget=30.0),
            Event(kind="depart", tenant_id="b"),
        ]
        for index, event in enumerate(events):
            service.process(event, index)
            if (index + 1) % 2 == 0:
                service.step()
        summary = service.summary()
        assert isinstance(summary, StreamSummary)
        assert summary.admitted == 2
        assert summary.resizes == 1
        assert summary.departures == 1
        assert summary.active_tenants == 1
        assert summary.reprice_rounds >= 1
        # Stream-level figures belong to the driving loop.
        assert (summary.events, summary.wall_s) == (0, 0.0)

    def test_run_without_repricing_keeps_prices(self):
        from repro.experiments.datacenter_stream import drive_stream

        service = economics_service()
        p0 = service.prices()
        stats, _, _ = drive_stream(service, 40, seed=1, reprice_every=0)
        assert stats["admitted"] > 0
        assert stats["reprice_rounds"] == 0
        assert service.prices() == p0


class TestCompaction:
    def test_compaction_preserves_tenant_holdings(self):
        fabric = Fabric(16, 4)
        # threshold 0.0: every departure that leaves any fragmentation
        # compacts, exercising the lift-and-repack path aggressively.
        service = AllocationService(fabric=fabric,
                                    compaction_threshold=0.0)
        admitted = []
        for i in range(10):
            if service.submit(tenant(f"t{i}")).admitted:
                admitted.append(f"t{i}")
        holdings = {
            name: {
                kind: sum(1 for n in fabric.owned_by(name)
                          if fabric.kind(n) is kind)
                for kind in TileKind
            }
            for name in admitted
        }
        for name in admitted[::2]:
            service.depart(name)
            for survivor in service.active_tenants:
                counts = {
                    kind: sum(1 for n in fabric.owned_by(survivor)
                              if fabric.kind(n) is kind)
                    for kind in TileKind
                }
                # Compaction moves tiles but never changes what a
                # surviving tenant holds.
                assert counts == holdings[survivor]
        # Free-count bookkeeping survived all the lift-and-repack.
        occupied = sum(len(fabric.owned_by(n))
                       for n in service.active_tenants)
        free = (fabric.free_count(TileKind.SLICE)
                + fabric.free_count(TileKind.BANK))
        assert occupied + free == fabric.mesh.num_nodes

    def test_compaction_counter_in_summary(self):
        service = economics_service()
        assert service.summary().compactions == 0


class TestObsCounters:
    def test_service_counters_register(self):
        from repro.obs import Observability

        obs = Observability()
        service = economics_service(obs=obs, admission_floor=1e9)
        service.submit(tenant("a"))  # rejected by the floor
        snapshot = obs.snapshot()
        assert snapshot["cloud.service.rejected_price"]["value"] == 1

    def test_counts_equal_the_summary_after_restore(self):
        """Each event is counted once, in the tallies ``summary()`` and
        ``snapshot()`` read; the obs gauges read them too, so a
        restored service's counts include the events before the
        snapshot."""
        from repro.cloud.resilience import FaultInjector, FaultPlan
        from repro.cloud.service import TALLIES
        from repro.experiments.datacenter_stream import (
            build_service,
            drive_stream,
        )
        from repro.obs import Observability

        def chaos(seed):
            return FaultInjector(FaultPlan.seeded(
                300, 0.05, seed, kinds=("malformed", "unknown")),
                seed=seed)

        first = build_service(degrade_on_divergence=True)
        active = []
        _, _, serial = drive_stream(first, 300, seed=5, active=active,
                                    strict=False, injector=chaos(1))
        obs = Observability()
        second = build_service(obs=obs, degrade_on_divergence=True)
        second.restore(first.snapshot())
        after, _, _ = drive_stream(second, 300, seed=6, serial0=serial,
                                   active=active, strict=False,
                                   injector=chaos(2))
        snapshot = obs.snapshot()
        counts = {name[len("cloud.service."):]: snap["value"]
                  for name, snap in snapshot.items()
                  if name.startswith("cloud.service.")
                  and snap["type"] == "gauge"}
        summary = second.summary()
        for name in TALLIES:
            assert counts[name] == second.tally(name), name
        for name in ("admitted", "rejected_price", "rejected_capacity",
                     "departures", "resizes", "reprice_rounds",
                     "compactions", "degraded_steps", "readmitted"):
            assert counts[name] == getattr(summary, name), name
        assert counts["active_tenants"] == summary.active_tenants
        dead = {name[len("dead_letter."):]: value
                for name, value in counts.items()
                if name.startswith("dead_letter.")}
        assert dead == second.dead_letter_counts
        assert sum(dead.values()) == summary.dead_letters > 0
        # The counts run from the first event, not from the restore.
        assert counts["admitted"] > after["admitted"] > 0

    def test_coupled_group_counts_sum_its_services(self):
        from repro.cloud.service import TALLIES
        from repro.experiments.datacenter_stream import (
            build_coupled_group,
            drive_coupled_stream,
        )
        from repro.obs import Observability

        obs = Observability()
        group = build_coupled_group(2, sync_every=50, obs=obs)
        drive_coupled_stream(group, 200, seed=3, reprice_every=10)
        snapshot = obs.snapshot()
        for name in TALLIES:
            assert snapshot[f"cloud.service.{name}"]["value"] == sum(
                service.tally(name) for service in group.services), name
        assert snapshot["cloud.shards.price_syncs"]["value"] \
            == group.n_syncs > 0
