"""Tests for the heterogeneous datacenter baseline."""

import pytest

from repro.baselines.heterogeneous import (
    BIG_CORE,
    SMALL_CORE,
    CoreType,
    HeterogeneousDatacenter,
)


class TestHeterogeneousDatacenter:
    def test_paper_core_design_points(self):
        """Section 5.9: big = 3 Slices + 256 KB, small = 1 Slice + 0 KB."""
        assert (BIG_CORE.slices, BIG_CORE.cache_kb) == (3, 256.0)
        assert (SMALL_CORE.slices, SMALL_CORE.cache_kb) == (1, 0.0)

    def test_all_small_vs_all_big(self):
        dc = HeterogeneousDatacenter("hmmer", "gobmk")
        all_small = dc.evaluate(big_fraction=0.0, app_a_fraction=1.0)
        all_big = dc.evaluate(big_fraction=1.0, app_a_fraction=1.0)
        # hmmer (cache/slice-insensitive) prefers small cores per area.
        assert all_small.utility_per_area > all_big.utility_per_area

    def test_optimal_mix_moves_with_app_mix(self):
        """Figure 17: no fixed mixture serves every workload mix."""
        dc = HeterogeneousDatacenter("hmmer", "gobmk")
        grid = [i / 10 for i in range(11)]
        optima = {
            frac: dc.optimal_big_fraction(frac, grid)
            for frac in (0.0, 0.5, 1.0)
        }
        assert len(set(optima.values())) >= 2

    def test_assignment_prefers_big_core_for_big_core_lover(self):
        dc = HeterogeneousDatacenter("hmmer", "gobmk")
        point = dc.evaluate(big_fraction=0.5, app_a_fraction=0.5)
        assignments = dict(point.assignment)
        assert assignments.get("gobmk") == "big"

    def test_sweep_shape(self):
        dc = HeterogeneousDatacenter("hmmer", "gobmk", total_cores=10)
        surfaces = dc.sweep([0.0, 0.5, 1.0], [0.0, 1.0])
        assert set(surfaces) == {0.0, 1.0}
        assert len(surfaces[0.0]) == 3

    def test_validation(self):
        dc = HeterogeneousDatacenter("hmmer", "gobmk")
        with pytest.raises(ValueError):
            dc.evaluate(big_fraction=1.5, app_a_fraction=0.5)
        with pytest.raises(ValueError):
            HeterogeneousDatacenter("a", "b", total_cores=0)
