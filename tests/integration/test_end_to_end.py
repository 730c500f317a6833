"""End-to-end flows across the whole stack."""

import pytest

from repro import (
    MARKET2,
    UTILITY1,
    UTILITY2,
    UTILITY3,
    AnalyticModel,
    Market,
    UtilityOptimizer,
    all_benchmarks,
    simulate,
)
from repro.cloud import AllocationService, Fabric, Hypervisor, TenantRequest
from repro.cloud.vm import VCoreSpec, VMSpec
from repro.trace.generator import make_workload


class TestCustomerJourney:
    """A customer is admitted at the spot price, placed, and simulated."""

    def test_full_flow(self):
        service = AllocationService(fabric=Fabric(width=16, height=8))
        # 1. The customer's choice at the quoted spot prices.
        choice = UtilityOptimizer(budget=24.0).best(
            "gcc", UTILITY2, service.spot_market())

        # 2. The service admits that shape and places it on the fabric.
        result = service.submit(TenantRequest("a", "gcc", UTILITY2, 24.0))
        assert result.admitted
        assert (result.cache_kb, result.slices) == (choice.cache_kb,
                                                    choice.slices)
        assert service.fabric.owned_by("a")

        # 3. The placed configuration actually runs on the simulator.
        warmup, trace = make_workload("gcc", 1200, seed=9)
        sim = simulate(trace, num_slices=result.slices,
                       l2_cache_kb=result.cache_kb,
                       warmup_addresses=warmup)
        assert sim.stats.committed == 1200

    def test_reconfiguration_journey(self):
        """Slice prices spike; the customer re-optimises and the
        hypervisor resizes the VCore at the paper's costs."""
        service = AllocationService(fabric=Fabric(width=16, height=8))
        result = service.submit(TenantRequest("a", "gcc", UTILITY3, 24.0))
        assert result.admitted
        hv = Hypervisor(Fabric(width=16, height=8))
        vm = hv.place(VMSpec.uniform(1, slices_per_vcore=result.slices,
                                     cache_kb_per_vcore=result.cache_kb))
        assert vm is not None
        spike = Market(name="spike", slice_price=16.0, bank_price=1.0)
        new = UtilityOptimizer(budget=24.0).best("gcc", UTILITY3, spike)
        assert new.slices <= result.slices
        cost = hv.resize_vcore(
            vm.vm_id, 0,
            VCoreSpec(num_slices=new.slices, l2_cache_kb=new.cache_kb),
        )
        assert cost.cycles in (0, 500, 10_000)


class TestProviderEconomics:
    def test_sharing_revenue_with_mixed_customers(self):
        service = AllocationService(fabric=Fabric(width=24, height=8))
        results = []
        revenue = 0.0
        for bench in all_benchmarks()[:6]:
            for utility in (UTILITY1, UTILITY3):
                market = service.spot_market()
                result = service.submit(TenantRequest(
                    f"{bench}-{utility.name}", bench, utility, 24.0))
                results.append(result)
                if result.admitted:
                    revenue += result.vcores * market.cost(
                        result.cache_kb, result.slices)
                service.step()
        admitted = [r for r in results if r.admitted]
        assert service.active_tenants == [r.tenant for r in admitted]
        assert revenue > 0
        # Without an admission floor only a full fabric turns anyone away.
        assert {r.reason for r in results} <= {"admitted",
                                               "rejected_capacity"}
        assert service.fabric.utilization() > 0.5
        # Different customers received different shapes.
        assert len({(r.cache_kb, r.slices) for r in admitted}) >= 2


class TestModelConsistency:
    def test_optimizer_uses_model_performance(self):
        model = AnalyticModel()
        optimizer = UtilityOptimizer(model=model)
        choice = optimizer.best("omnetpp", UTILITY3, MARKET2)
        assert choice.performance == pytest.approx(
            model.performance("omnetpp", choice.cache_kb, choice.slices)
        )
