"""Kernel/oracle equivalence suite.

Production runs every economics search on the numpy market kernel; the
scalar loops in ``tests/oracles/economics.py`` are its reference:

* tab4/tab6 optimal *configurations* must be bit-identical - both
  search the grid in (cache outer, slice inner) order and keep the
  first strict maximum, so the winners agree exactly;
* fig14/fig15/fig16 utility *values* agree within the documented fp
  tolerance (DESIGN.md "Vectorized market kernel"): the kernel mirrors
  the scalar arithmetic op for op, so differences are a few ulps;
* the auction must take the same rounds to the same prices.

``REPRO_EQUIV_SEED`` varies the randomized populations; CI runs this
module under two seeds.
"""

import os
import random

import pytest

from repro.economics.auction import Bidder, SpotMarket
from repro.economics.comparison import MarketEfficiencyComparison
from repro.economics.efficiency import efficiency_table
from repro.economics.market import STANDARD_MARKETS, MARKET2
from repro.economics.optimizer import UtilityOptimizer
from repro.economics.utility import STANDARD_UTILITIES
from repro.trace.profiles import PROFILES
from tests.oracles import economics as oracle

#: fp tolerance for utility values between kernel and oracle (see
#: DESIGN.md): both use the same op order, so agreement is ulp-level;
#: 1e-9 leaves five orders of magnitude of headroom over observed 1e-15.
VALUE_RTOL = 1e-9

SEED = int(os.environ.get("REPRO_EQUIV_SEED", "0"))
BENCHES = sorted(PROFILES)


class TestTable6:
    def test_configs_bit_identical(self):
        t_py = oracle.table6(BENCHES, STANDARD_UTILITIES, STANDARD_MARKETS)
        t_np = UtilityOptimizer().table6(
            BENCHES, STANDARD_UTILITIES, STANDARD_MARKETS
        )
        assert t_py.keys() == t_np.keys()
        for key in t_py:
            a, b = t_py[key], t_np[key]
            assert (a.cache_kb, a.slices) == (b.cache_kb, b.slices), key
            assert b.utility == pytest.approx(a.utility, rel=VALUE_RTOL)
            assert b.vcores == pytest.approx(a.vcores, rel=VALUE_RTOL)


class TestTable4:
    def test_configs_bit_identical(self):
        t_py = oracle.efficiency_table(BENCHES)
        t_np = efficiency_table(BENCHES)
        for metric in t_py:
            for bench in t_py[metric]:
                a, b = t_py[metric][bench], t_np[metric][bench]
                assert (a.cache_kb, a.slices) == (b.cache_kb, b.slices)
                assert b.score == pytest.approx(a.score, rel=VALUE_RTOL)


class TestFig14:
    def test_surfaces_within_tolerance(self):
        optimizer = UtilityOptimizer()
        for bench, utility in (("gcc", STANDARD_UTILITIES[0]),
                               ("bzip", STANDARD_UTILITIES[1])):
            s_py = oracle.utility_surface(bench, utility, MARKET2)
            s_np = optimizer.utility_surface(bench, utility, MARKET2)
            assert s_py.keys() == s_np.keys()
            for cfg, want in s_py.items():
                assert s_np[cfg] == pytest.approx(want, rel=VALUE_RTOL)
            assert (max(s_py, key=s_py.get)
                    == max(s_np, key=s_np.get))


class TestFig15Fig16:
    @pytest.fixture(scope="class")
    def comparisons(self):
        rng = random.Random(SEED)
        benches = rng.sample(BENCHES, k=10)
        return (
            oracle.Comparison(benches),
            MarketEfficiencyComparison(benches),
        )

    def test_reference_configs_identical(self, comparisons):
        c_py, c_np = comparisons
        assert c_py.best_static_config() == c_np.best_static_config()
        for u in c_py.utilities:
            assert (c_py.best_config_for_utility(u)
                    == c_np.best_config_for_utility(u))

    def test_pair_gains_within_tolerance(self, comparisons):
        c_py, c_np = comparisons
        for method in ("gains_vs_static", "gains_vs_heterogeneous"):
            g_py = getattr(c_py, method)()
            g_np = getattr(c_np, method)()
            assert len(g_py) == len(g_np)
            for a, b in zip(g_py, g_np):
                assert (a.customer_a, a.customer_b) == (b.customer_a,
                                                        b.customer_b)
                assert b.gain == pytest.approx(a.gain, rel=VALUE_RTOL)

    def test_summaries_within_tolerance(self, comparisons):
        c_py, c_np = comparisons
        for method in ("summary_vs_static", "summary_vs_heterogeneous"):
            s_py = getattr(c_py, method)()
            s_np = getattr(c_np, method)()
            assert s_py["pairs"] == s_np["pairs"]
            for k in ("min", "median", "mean", "max"):
                assert s_np[k] == pytest.approx(s_py[k], rel=VALUE_RTOL)


class TestAuction:
    def test_same_rounds_same_prices(self):
        rng = random.Random(SEED + 100)
        bidders = [
            Bidder(name=f"b{i}", benchmark=rng.choice(BENCHES),
                   utility=rng.choice(STANDARD_UTILITIES),
                   budget=rng.choice([12.0, 24.0, 48.0]))
            for i in range(12)
        ]
        r_py = oracle.clear(bidders, 80, 160)
        r_np = SpotMarket(80, 160).clear(bidders)
        assert r_py.rounds == r_np.rounds
        assert r_py.converged == r_np.converged
        assert r_py.rationed == r_np.rationed
        assert r_np.slice_price == pytest.approx(r_py.slice_price,
                                                 rel=VALUE_RTOL)
        assert r_np.bank_price == pytest.approx(r_py.bank_price,
                                                rel=VALUE_RTOL)
        for a, b in zip(r_py.allocations, r_np.allocations):
            assert (a.bidder, a.cache_kb, a.slices) == (
                b.bidder, b.cache_kb, b.slices)
            assert b.vcores == pytest.approx(a.vcores, rel=VALUE_RTOL)
            assert b.utility == pytest.approx(a.utility, rel=VALUE_RTOL)
