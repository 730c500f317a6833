"""Experiments handed an engine must equal plain runs bit-for-bit -
same floats, same argmax tie-breaks - and a warm cache must serve a
simulation sweep's exact values."""

import pytest

from repro.economics.market import MARKET2
from repro.economics.optimizer import UtilityOptimizer
from repro.economics.utility import UTILITY2
from repro.engine import ResultCache, SweepEngine
from repro.experiments import (
    cache_sensitivity,
    optima,
    scalability,
    utility_surfaces,
)


@pytest.fixture
def cache_root(tmp_path):
    return tmp_path / "cache"


def fresh_engine(cache_root, **kwargs):
    kwargs.setdefault("jobs", 2)
    return SweepEngine(cache=ResultCache(root=cache_root), **kwargs)


class TestBitForBit:
    def test_scalability(self, cache_root):
        serial = scalability.run()
        engine = fresh_engine(cache_root)
        assert scalability.run(engine=engine).series == serial.series

    def test_cache_sensitivity(self, cache_root):
        serial = cache_sensitivity.run()
        engine = fresh_engine(cache_root)
        backed = cache_sensitivity.run(engine=engine)
        assert backed.series == serial.series

    def test_optima_argmax_and_tiebreaks(self, cache_root):
        serial = optima.run()
        engine = fresh_engine(cache_root)
        backed = optima.run(engine=engine)
        assert backed.table == serial.table
        assert backed.diversity == serial.diversity

    def test_utility_surfaces(self, cache_root):
        serial = utility_surfaces.run()
        engine = fresh_engine(cache_root)
        backed = utility_surfaces.run(engine=engine)
        assert backed.surfaces == serial.surfaces
        assert backed.peaks == serial.peaks

    def test_optimizer_best_choice(self, cache_root):
        serial = UtilityOptimizer().best("gcc", UTILITY2, MARKET2)
        engine = fresh_engine(cache_root)
        backed = UtilityOptimizer(obs=engine.obs).best(
            "gcc", UTILITY2, MARKET2
        )
        assert backed == serial


class TestWarmCache:
    def test_second_engine_serves_hits_identically(self, cache_root):
        def sweep(engine):
            return engine.simulation_map(["astar", "hmmer"], (128.0,),
                                         (1, 2), trace_length=200)

        cold = fresh_engine(cache_root)
        first = sweep(cold)
        assert cold.cache.hits == 0

        warm = fresh_engine(cache_root)
        second = sweep(warm)
        assert warm.cache.hits > 0
        assert warm.cache.misses == 0
        assert warm.cache.puts == 0
        assert second.values == first.values
