"""Golden regression tests for the market-economics outputs.

``fixtures/golden_market.json`` pins the seed run's Table 4 and Table 6
optimal configurations, the Figure 14 surface peaks, and the Figure
15/16 gain summaries.  The production kernel (``numpy``) and the scalar
oracle loops of ``tests/oracles/economics.py`` (``python``) are both
checked against the same fixture, so neither can drift: configurations
(grid argmax winners) must match *exactly* - the kernel shares the
oracle's tie-breaking contract - while float values are held to
``REL_TOL`` (the documented fp-tolerance policy; observed
scalar-vs-vector drift is ~1e-15).
Regenerate the fixture deliberately when a model or calibration change
is meant to move these numbers.
"""

import json
from pathlib import Path

import pytest

from repro.economics.comparison import MarketEfficiencyComparison
from repro.economics.efficiency import efficiency_table
from repro.economics.market import STANDARD_MARKETS, MARKET2
from repro.economics.optimizer import UtilityOptimizer
from repro.economics.utility import STANDARD_UTILITIES
from repro.trace.profiles import PROFILES
from tests.oracles import economics as oracle

FIXTURE = Path(__file__).parent / "fixtures" / "golden_market.json"
REL_TOL = 1e-9

#: ``numpy`` runs the production kernel, ``python`` the scalar oracle.
IMPLS = ("numpy", "python")
BENCHES = sorted(PROFILES)


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("impl", IMPLS)
class TestTable4:
    def test_matches_fixture(self, golden, impl):
        table = (efficiency_table(BENCHES) if impl == "numpy"
                 else oracle.efficiency_table(BENCHES))
        want = golden["tab4"]
        assert sorted(str(m) for m in table) == sorted(want)
        for metric, per_bench in table.items():
            for bench, design in per_bench.items():
                pin = want[str(metric)][bench]
                assert design.cache_kb == pin["cache_kb"], (metric, bench)
                assert design.slices == pin["slices"], (metric, bench)
                assert design.score == pytest.approx(pin["score"],
                                                     rel=REL_TOL)


@pytest.mark.parametrize("impl", IMPLS)
class TestTable6:
    def test_matches_fixture(self, golden, impl):
        table = (UtilityOptimizer() if impl == "numpy" else oracle).table6(
            BENCHES, STANDARD_UTILITIES, STANDARD_MARKETS
        )
        want = golden["tab6"]
        assert len(table) == len(want)
        for (mkt, util, bench), choice in table.items():
            pin = want[f"{mkt}|{util}|{bench}"]
            assert choice.cache_kb == pin["cache_kb"], (mkt, util, bench)
            assert choice.slices == pin["slices"], (mkt, util, bench)
            assert choice.utility == pytest.approx(pin["utility"],
                                                   rel=REL_TOL)
            assert choice.vcores == pytest.approx(pin["vcores"],
                                                  rel=REL_TOL)


@pytest.mark.parametrize("impl", IMPLS)
class TestFig14Peaks:
    def test_matches_fixture(self, golden, impl):
        optimizer = UtilityOptimizer() if impl == "numpy" else oracle
        for key, pin in golden["fig14_peaks"].items():
            bench, util_name = key.split("|")
            utility = next(u for u in STANDARD_UTILITIES
                           if u.name == util_name)
            surface = optimizer.utility_surface(bench, utility, MARKET2)
            (cache_kb, slices), peak = max(surface.items(),
                                           key=lambda kv: kv[1])
            assert cache_kb == pin["peak_cache_kb"], key
            assert slices == pin["peak_slices"], key
            assert peak == pytest.approx(pin["peak_value"], rel=REL_TOL)


@pytest.mark.parametrize("impl", IMPLS)
class TestFig15Fig16:
    @pytest.fixture()
    def comparison(self, impl):
        if impl == "numpy":
            return MarketEfficiencyComparison(BENCHES)
        return oracle.Comparison(BENCHES)

    def test_reference_configs_exact(self, golden, comparison):
        assert (list(comparison.best_static_config())
                == golden["fig15_static_config"])
        for u in comparison.utilities:
            assert (list(comparison.best_config_for_utility(u))
                    == golden["fig16_per_utility_configs"][u.name])

    def test_summaries_match_fixture(self, golden, comparison):
        for name, method in (("fig15_summary", "summary_vs_static"),
                             ("fig16_summary",
                              "summary_vs_heterogeneous")):
            got = getattr(comparison, method)()
            pin = golden[name]
            assert got["pairs"] == pin["pairs"]
            for key in ("min", "median", "mean", "max"):
                assert got[key] == pytest.approx(pin[key], rel=REL_TOL)
