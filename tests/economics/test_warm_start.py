"""Warm-started tatonnement: fixed-point stability and round savings.

The streaming service reprices from the previous price vector
(``min_rounds=1``) instead of from scratch (``min_rounds=2`` with
arbitrary initial prices).  These tests pin the two contracts the
redesign rests on:

* **exactness** - at a fixed point a warm step converges in one round
  with zero price movement, so submit+depart of the same tenant
  returns the market to its pre-submit prices, and the allocations a
  warm restart produces are bit-equal to the cold-start clearing's;
* **economy** - warm steps over a seeded stream never spend more
  rounds than cold-clearing the same roster from scratch.
"""

import random

import pytest

from repro.cloud.service import AllocationService, TenantRequest
from repro.economics.utility import STANDARD_UTILITIES
from repro.trace.profiles import PROFILES

SLICE_SUPPLY = 48.0
BANK_SUPPLY = 48.0


def make_service(**kwargs):
    kwargs.setdefault("slice_supply", SLICE_SUPPLY)
    kwargs.setdefault("bank_supply", BANK_SUPPLY)
    return AllocationService(**kwargs)


def population(count, seed=3):
    rng = random.Random(seed)
    benchmarks = sorted(PROFILES)
    return [
        TenantRequest(
            name=f"t{i}",
            benchmark=benchmarks[rng.randrange(len(benchmarks))],
            utility=STANDARD_UTILITIES[
                rng.randrange(len(STANDARD_UTILITIES))],
            budget=rng.uniform(12.0, 48.0),
        )
        for i in range(count)
    ]


class TestFixedPointExactness:
    def test_submit_depart_returns_to_fixed_point(self):
        service = make_service()
        for request in population(8):
            service.register(request)
        service.clear_batch()
        before = service.prices()
        extra = TenantRequest(name="extra", benchmark="gcc",
                              utility=STANDARD_UTILITIES[1], budget=30.0)
        service.submit(extra)
        service.depart("extra")
        result = service.step()
        assert result.converged
        assert service.prices()[0] == pytest.approx(before[0], rel=1e-9)
        assert service.prices()[1] == pytest.approx(before[1], rel=1e-9)

    def test_step_at_fixed_point_is_one_round_zero_movement(self):
        service = make_service()
        for request in population(8):
            service.register(request)
        batch = service.clear_batch()
        if not batch.converged:
            pytest.skip("population did not clear")
        result = service.step()
        assert result.rounds == 1
        assert result.converged
        # Exact equality, not approx: a converged warm round never
        # touches the prices at all.
        assert (result.slice_price, result.bank_price) == (
            batch.slice_price, batch.bank_price)

    def test_warm_restart_allocations_bit_equal_cold(self):
        service = make_service()
        for request in population(10, seed=5):
            service.register(request)
        cold = service.clear_batch()
        warm = service._tatonnement(cold.slice_price, cold.bank_price,
                                    min_rounds=1)
        assert warm["rounds"] == 1
        assert warm["slice_price"] == cold.slice_price
        assert warm["bank_price"] == cold.bank_price
        assert len(warm["allocations"]) == len(cold.allocations)
        for a, b in zip(warm["allocations"], cold.allocations):
            assert a.bidder == b.bidder
            assert a.cache_kb == b.cache_kb
            assert a.slices == b.slices
            assert a.vcores == b.vcores
            assert a.utility == b.utility


class TestWarmRoundEconomy:
    def test_warm_rounds_never_exceed_cold(self):
        """Stream checkpoint: repricing warm from the previous fixed
        point costs no more rounds than cold-clearing the roster."""
        rng = random.Random(17)
        service = make_service()
        requests = population(12, seed=17)
        for request in requests[:6]:
            service.register(request)
        service.clear_batch()
        warm_total = 0
        cold_total = 0
        roster = list(requests[:6])
        for request in requests[6:]:
            # Mutate the market: one arrival, sometimes one departure.
            service.submit(request)
            roster.append(request)
            if len(roster) > 6 and rng.random() < 0.5:
                victim = roster.pop(rng.randrange(len(roster)))
                service.depart(victim.name)
            warm = service.step()
            warm_total += warm.rounds
            cold = make_service()
            for standing in roster:
                cold.register(standing)
            cold_total += cold.clear_batch().rounds
        assert warm_total <= cold_total
