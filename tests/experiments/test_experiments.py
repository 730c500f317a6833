"""Tests for the experiment runners (paper artefact regeneration)."""

import pytest

from repro.experiments import (
    area_decomposition,
    cache_sensitivity,
    datacenter_mix,
    energy_delay,
    hetero_comparison,
    markets,
    optima,
    phases,
    scalability,
    static_comparison,
    taxonomy,
    utility_surfaces,
)
from repro.experiments.base import Experiment, ExperimentResult
from repro.perfmodel.model import CACHE_GRID_KB, SLICE_GRID, AnalyticModel


class TestProtocol:
    MODULES = (
        area_decomposition, cache_sensitivity, datacenter_mix,
        hetero_comparison, markets, optima, phases, scalability,
        static_comparison, taxonomy, utility_surfaces,
    )

    def test_modules_satisfy_protocol(self):
        for module in self.MODULES:
            assert isinstance(module, Experiment)
            assert isinstance(module.NAME, str)

    def test_result_surface(self):
        result = taxonomy.run()
        assert isinstance(result, ExperimentResult)
        assert result.name == taxonomy.NAME
        assert result.rows
        exported = result.to_dict(include_elapsed=False)
        assert "elapsed" not in exported
        assert result.to_json()  # serialisable


class TestAreaExperiment:
    def test_fig10_fig11_shapes(self):
        result = area_decomposition.run()
        assert abs(sum(result.fig10_without_l2.values()) - 100) < 1e-9
        assert abs(sum(result.fig11_with_l2.values()) - 100) < 1e-9
        overhead = result.sharing_overhead_pct
        assert 7 <= overhead["without_l2"] <= 9
        assert 4 <= overhead["with_l2"] <= 7


class TestScalabilityExperiment:
    def test_fig12_series(self):
        series = scalability.run().series
        assert len(series) == 15
        for values in series.values():
            assert len(values) == len(SLICE_GRID)
            assert values[0] == pytest.approx(1.0)

    def test_paper_band(self):
        """Figure 12's curves span roughly 1x to 5x at 8 Slices."""
        series = scalability.run().series
        finals = [v[-1] for v in series.values()]
        assert max(finals) >= 3.0
        assert min(finals) >= 1.0


class TestCacheSensitivityExperiment:
    def test_fig13_series(self):
        series = cache_sensitivity.run().series
        for values in series.values():
            assert len(values) == len(CACHE_GRID_KB)
            assert values[0] == pytest.approx(1.0)

    def test_omnetpp_most_sensitive(self):
        series = cache_sensitivity.run().series
        assert max(series["omnetpp"]) == max(
            max(v) for v in series.values()
        )


class TestOptimaExperiment:
    def test_tab4_shape_and_diversity(self):
        result = optima.run()
        assert len(result.table) == 3
        diversity = optima.configuration_diversity(result.table)
        assert diversity == result.diversity
        assert all(count >= 2 for count in diversity.values())


class TestUtilitySurfaceExperiment:
    def test_fig14_peaks_differ(self):
        peaks = utility_surfaces.run().peaks
        # Changing the utility function moves the peak (paper 14a vs 14b).
        assert peaks[("gcc", "Utility1")] != peaks[("gcc", "Utility2")]
        # Changing the workload moves the peak (paper 14b vs 14d).
        assert peaks[("gcc", "Utility2")] != peaks[("bzip", "Utility2")]


class TestMarketExperiment:
    def test_tab6_shape(self):
        table = markets.run(benchmarks=["gcc", "bzip", "hmmer"]).table
        assert len(table) == 3 * 3 * 3

    def test_prices_move_allocations(self):
        result = markets.run()
        shifts = markets.market_shift_summary(result.table)
        assert shifts == result.shifts
        assert any(fraction > 0.3 for fraction in shifts.values())


class TestComparisonExperiments:
    def test_fig15_headline(self):
        result = static_comparison.run()
        assert result.summary["pairs"] == 990
        assert result.summary["max"] >= 2.0

    def test_fig16_headline(self):
        result = hetero_comparison.run()
        assert result.summary["max"] >= 1.5
        assert len(result.per_utility_configs) == 3


class TestDatacenterExperiment:
    def test_fig17_mix_diverges(self):
        result = datacenter_mix.run()
        assert len(set(result.optimal_big_fraction.values())) >= 2


class TestPhasesExperiment:
    def test_tab7_gains(self):
        schedules = phases.run().schedules
        gains = [r.gain for r in schedules.values()]
        assert gains == sorted(gains)
        assert gains[-1] > 0.05


class TestScalarPCalls:
    """Grid searches take ``P`` from the tensor kernel: Tab 7 and the
    E*D^n optima make no scalar ``AnalyticModel.performance`` call, and
    Fig 17 makes one per (app, core type)."""

    @pytest.mark.parametrize("experiment, limit", [
        (energy_delay, 0), (phases, 0), (datacenter_mix, 4),
    ], ids=lambda value: getattr(value, "NAME", value))
    def test_scalar_calls(self, experiment, limit, monkeypatch):
        calls = []
        performance = AnalyticModel.performance

        def counting(self, *args, **kwargs):
            calls.append(args)
            return performance(self, *args, **kwargs)

        monkeypatch.setattr(AnalyticModel, "performance", counting)
        experiment.run()
        assert len(calls) <= limit


class TestTaxonomyExperiment:
    def test_tab8_sharing_dominates(self):
        table = taxonomy.run().table
        sharing = table["sharing"]
        assert all(v is True for v in sharing.values())
        assert taxonomy.unique_advantages() == []  # no single unique row...

    def test_sharing_is_only_all_yes_column(self):
        table = taxonomy.run().table
        all_yes = [
            name
            for name, row in table.items()
            if all(v is True for v in row.values())
        ]
        assert all_yes == ["sharing"]
