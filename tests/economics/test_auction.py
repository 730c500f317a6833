"""Tests for the spot-market auction."""

import math
import random
from dataclasses import replace

import pytest

from repro.economics.auction import Allocation, Bidder, SpotMarket
from repro.economics.utility import UTILITY1, UTILITY2, UTILITY3
from repro.obs import Observability
from repro.trace import all_benchmarks, get_profile
from tests.oracles import economics as oracle


def _mixed_bidders(n=16, seed=3):
    rng = random.Random(seed)
    return [
        Bidder(
            name=f"c{i}",
            benchmark=rng.choice(all_benchmarks()),
            utility=rng.choice([UTILITY1, UTILITY2, UTILITY3]),
            budget=rng.choice([12.0, 24.0, 48.0]),
        )
        for i in range(n)
    ]


class TestAllocation:
    def test_resource_demands(self):
        alloc = Allocation(bidder="c0", cache_kb=256, slices=3, vcores=2.0,
                           utility=1.0)
        assert alloc.slices_demanded == 6.0
        assert alloc.banks_demanded == 8.0


class TestClearing:
    def test_mixed_population_clears(self):
        market = SpotMarket(slice_supply=60, bank_supply=120)
        result = market.clear(_mixed_bidders())
        assert result.converged
        assert result.slice_demand <= result.slice_supply * 1.1
        assert result.bank_demand <= result.bank_supply * 1.1
        assert result.total_welfare > 0
        assert result.provider_revenue > 0

    def test_scarcity_raises_prices(self):
        bidders = _mixed_bidders()
        loose = SpotMarket(slice_supply=500, bank_supply=1000).clear(bidders)
        tight = SpotMarket(slice_supply=20, bank_supply=40).clear(bidders)
        assert tight.slice_price > loose.slice_price
        assert tight.bank_price > loose.bank_price

    def test_abundance_drives_prices_to_floor(self):
        market = SpotMarket(slice_supply=10_000, bank_supply=10_000)
        result = market.clear(_mixed_bidders(n=2))
        assert result.converged
        assert result.slice_price <= 0.2
        assert result.bank_price <= 0.2

    def test_identical_bidders_may_not_clear(self):
        """Lumpy demand: identical bidders under scarcity can cycle; the
        market reports this honestly rather than fabricating a price."""
        market = SpotMarket(slice_supply=10, bank_supply=10, max_rounds=40)
        result = market.clear(
            [Bidder(f"c{i}", "gcc", UTILITY2, 48.0) for i in range(8)]
        )
        # Either it found a rationing point or it reports non-convergence;
        # in both cases prices moved up from their initial values.
        assert result.slice_price > 2.0 or result.bank_price > 1.0

    def test_allocations_cover_every_bidder(self):
        bidders = _mixed_bidders(n=6)
        result = SpotMarket(slice_supply=60, bank_supply=120).clear(bidders)
        assert {a.bidder for a in result.allocations} == {
            b.name for b in bidders
        }

    def test_welfare_beats_forced_uniform_bundle(self):
        """Market allocation dominates forcing one bundle on everyone at
        the same prices - the paper's efficiency argument."""
        from repro.economics.market import Market
        from repro.economics.optimizer import UtilityOptimizer
        bidders = _mixed_bidders(n=10)
        result = SpotMarket(slice_supply=80, bank_supply=160).clear(bidders)
        market = Market(name="clearing",
                        slice_price=result.slice_price,
                        bank_price=result.bank_price)
        forced = 0.0
        for bidder in bidders:
            optimizer = UtilityOptimizer(budget=bidder.budget)
            forced += optimizer.utility_at(
                bidder.benchmark, bidder.utility, market, 256.0, 2
            )
        assert result.total_welfare >= forced

    def test_validation(self):
        with pytest.raises(ValueError):
            SpotMarket(slice_supply=0, bank_supply=10)
        with pytest.raises(ValueError):
            SpotMarket(slice_supply=1, bank_supply=1).clear([])
        with pytest.raises(ValueError):
            Bidder("x", "gcc", UTILITY1, budget=0)
        for budget in (float("nan"), float("inf")):
            with pytest.raises(ValueError,
                               match="^budget must be a positive, finite "
                                     "number, got "):
                Bidder("x", "gcc", UTILITY1, budget=budget)


def _cache_blind_bidders(n, seed):
    """Mixed bidders whose profiles never miss in L1 (``l1_mpki=0``):
    the L2 cannot change their performance, so every optimum buys 0
    banks.  (The market kernel reads profile fields, not an overridden
    ``AnalyticModel.performance``, so the profile is the knob.)"""
    return [replace(b, benchmark=replace(get_profile(b.benchmark),
                                         l1_mpki=0.0))
            for b in _mixed_bidders(n=n, seed=seed)]


def _clear(impl, slice_supply, bank_supply, bidders, **kwargs):
    """Clear on the production kernel (``numpy``) or on the scalar
    oracle loops (``python``)."""
    if impl == "numpy":
        return SpotMarket(slice_supply, bank_supply,
                          **kwargs).clear(bidders)
    return oracle.clear(bidders, slice_supply, bank_supply, **kwargs)


#: ``numpy`` runs the production kernel, ``python`` the scalar oracle.
IMPLS = ("python", "numpy")


class TestEdgeCases:
    """Convergence corner cases: zero-demand goods, exhausted budgets,
    and the seeded oscillation that only damping keeps bounded."""

    def test_zero_demand_good_price_decays(self):
        """Nobody wants banks: the auction must still clear on the
        slice market while the bank price falls, not divide by zero or
        chase phantom demand."""
        market = SpotMarket(60, 80)
        result = market.clear(_cache_blind_bidders(n=10, seed=0))
        assert result.converged
        assert result.bank_demand == 0.0
        assert result.bank_price < 1.0  # decayed from its initial value
        assert all(a.cache_kb == 0 for a in result.allocations)

    def test_zero_demand_good_reaches_floor(self):
        """Started near the floor, a good nobody demands is pinned
        there instead of drifting negative."""
        market = SpotMarket(60, 80)
        result = market.clear(_cache_blind_bidders(n=10, seed=0),
                              initial_bank_price=0.011)
        assert result.converged
        assert result.bank_price >= 0.01  # never below the floor
        assert result.bank_price <= 0.011

    @pytest.mark.parametrize("impl", IMPLS)
    def test_budget_exhausted_bidders_converge(self, impl):
        """Near-zero budgets mean near-zero demand on both goods; the
        stability rule accepts the settled prices instead of spinning
        for the full round cap."""
        bidders = [Bidder(f"t{i}", "bzip", UTILITY1, 1e-6)
                   for i in range(4)]
        result = _clear(impl, 100, 200, bidders)
        assert result.converged
        assert not result.rationed
        assert result.rounds < 60  # the default round cap
        assert result.slice_price <= 2.0
        assert result.bank_price <= 1.0
        assert len(result.allocations) == len(bidders)
        assert all(0 < a.vcores < 1e-3 for a in result.allocations)

    @pytest.mark.parametrize("impl", IMPLS)
    def test_mixed_rich_and_exhausted_bidders(self, impl):
        """Budget-exhausted bidders ride along without distorting the
        clearing driven by the funded population."""
        bidders = _mixed_bidders(n=8) + [
            Bidder(f"poor{i}", "gcc", UTILITY2, 1e-6) for i in range(4)
        ]
        result = _clear(impl, 60, 120, bidders)
        assert result.converged
        assert {a.bidder for a in result.allocations} == {
            b.name for b in bidders
        }
        rich_only = _clear(impl, 60, 120, _mixed_bidders(n=8))
        assert result.slice_price == pytest.approx(rich_only.slice_price,
                                                   rel=1e-6)
        assert result.bank_price == pytest.approx(rich_only.bank_price,
                                                  rel=1e-6)

    @pytest.mark.parametrize("impl", IMPLS)
    def test_seeded_oscillation_terminates_under_damping(self, impl):
        """The canonical non-existence case: identical bidders, scarce
        supply.  Demand flips between two grid bundles forever; damping
        must keep prices bounded and the loop must stop at the round
        cap with an honest ``converged=False``."""
        result = _clear(
            impl, 10, 10,
            [Bidder(f"c{i}", "gcc", UTILITY2, 48.0) for i in range(8)],
            max_rounds=60)
        assert result.rounds == 60
        assert not result.converged
        # Damping bound: each round multiplies a price by at most
        # exp(k * 2) with k <= 0.3, and the oscillation alternates sign,
        # so prices stay within a sane envelope rather than diverging.
        assert 0.01 <= result.slice_price < 1e3
        assert 0.01 <= result.bank_price < 1e3
        assert math.isfinite(result.total_welfare)

    def test_obs_counts_rounds_and_bids(self):
        obs = Observability()
        market = SpotMarket(60, 120, obs=obs)
        bidders = _mixed_bidders(n=6)
        result = market.clear(bidders)
        snap = obs.snapshot()
        assert (snap["economics.auction.rounds"]["value"]
                == result.rounds)
        assert (snap["economics.auction.bid_evaluations"]["value"]
                == result.rounds * len(bidders))
        assert snap["economics.auction.clear_s"]["total_s"] > 0
