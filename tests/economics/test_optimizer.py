"""Tests for the utility optimiser (Table 6 machinery)."""

import pytest

from repro.economics.market import MARKET1, MARKET2, MARKET3
from repro.economics.optimizer import UtilityOptimizer
from repro.economics.utility import STANDARD_UTILITIES, UTILITY1, UTILITY3


@pytest.fixture(scope="module")
def optimizer():
    return UtilityOptimizer()


class TestBestChoice:
    def test_best_is_grid_maximum(self, optimizer):
        choice = optimizer.best("gcc", UTILITY3, MARKET2)
        for cache_kb in optimizer.cache_grid:
            for slices in optimizer.slice_grid:
                value = optimizer.utility_at("gcc", UTILITY3, MARKET2,
                                             cache_kb, slices)
                assert value <= choice.utility + 1e-12

    def test_choice_metadata(self, optimizer):
        choice = optimizer.best("bzip", UTILITY1, MARKET1)
        assert choice.benchmark == "bzip"
        assert choice.utility_name == "Utility1"
        assert choice.market_name == "Market1"
        assert choice.vcores > 0

    def test_throughput_customers_buy_smaller_cores(self, optimizer):
        """Utility1 favours replication; Utility3 favours big VCores."""
        small = optimizer.best("gcc", UTILITY1, MARKET2)
        big = optimizer.best("gcc", UTILITY3, MARKET2)
        assert small.slices <= big.slices
        assert small.cache_kb <= big.cache_kb
        assert small.vcores >= big.vcores

    def test_paper_section56_bzip_vs_gcc_under_utility2(self, optimizer):
        """Section 5.6: under Utility2 gcc favours more Slices than bzip."""
        from repro.economics.utility import UTILITY2
        gcc = optimizer.best("gcc", UTILITY2, MARKET2)
        bzip = optimizer.best("bzip", UTILITY2, MARKET2)
        assert gcc.slices > bzip.slices

    def test_market_prices_move_optima(self, optimizer):
        """Section 5.7: expensive Slices push customers toward cache."""
        cheap_slices = optimizer.best("gcc", UTILITY3, MARKET3)
        dear_slices = optimizer.best("gcc", UTILITY3, MARKET1)
        assert dear_slices.slices <= cheap_slices.slices


class TestTable6:
    def test_full_table_shape(self, optimizer):
        table = optimizer.table6(["gcc", "bzip"], STANDARD_UTILITIES,
                                 (MARKET1, MARKET2, MARKET3))
        assert len(table) == 2 * 3 * 3
        assert ("Market2", "Utility1", "gcc") in table

    def test_optima_vary_across_benchmarks(self, optimizer):
        """The paper's core observation: no one-size-fits-all config."""
        table = optimizer.table6(
            ["gcc", "bzip", "hmmer", "omnetpp", "libquantum"],
            STANDARD_UTILITIES, (MARKET2,),
        )
        configs = {
            (c.cache_kb, c.slices) for c in table.values()
        }
        assert len(configs) >= 4


class TestUtilitySurface:
    def test_surface_covers_grid(self, optimizer):
        surface = optimizer.utility_surface("gcc", UTILITY1, MARKET2)
        assert len(surface) == (len(optimizer.cache_grid)
                                * len(optimizer.slice_grid))
        assert all(v > 0 for v in surface.values())

    def test_validation(self):
        with pytest.raises(ValueError):
            UtilityOptimizer(budget=0)
        # A nan budget used to return (0 KB, 1 Slice) with nan VCores
        # and utility; inf returned inf.
        for budget in (float("nan"), float("inf"), -1.0):
            with pytest.raises(ValueError,
                               match="^budget must be a positive, finite "
                                     "number, got "):
                UtilityOptimizer(budget=budget)
        # Grids the scalar model rejects fail at construction, with the
        # scalar model's one-line errors.
        with pytest.raises(ValueError,
                           match="^a VCore has at least one Slice$"):
            UtilityOptimizer(slice_grid=(0, 1, 2))
        with pytest.raises(ValueError,
                           match="^cache size cannot be negative$"):
            UtilityOptimizer(cache_grid=(-64.0, 128.0))
