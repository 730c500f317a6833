"""Tests for the vectorized market kernel (repro.economics.tensor)."""

import math

import pytest

np = pytest.importorskip("numpy")

from repro.economics.backend import resolve_backend
from repro.economics.market import MARKET1, MARKET2, MARKET3
from repro.economics.tensor import (
    MarketKernel,
    cost_matrix,
    geometric_mean_vector,
    pair_gain_summary,
    performance_tensor,
    utility_matrix,
    vcores_matrix,
)
from repro.economics.utility import STANDARD_UTILITIES, UTILITY2
from repro.obs import Observability
from repro.perfmodel.model import (
    AnalyticModel,
    CACHE_GRID_KB,
    SLICE_GRID,
)
from repro.trace.profiles import PROFILES, get_profile

BENCHES = sorted(PROFILES)


class TestBackendSelection:
    def test_default_is_numpy_when_available(self):
        assert resolve_backend(None) == "numpy"

    def test_explicit_backends_pass_through(self):
        assert resolve_backend("numpy") == "numpy"

    def test_unknown_backend_rejected(self):
        for name in ("python", "fortran"):
            with pytest.raises(ValueError, match="backend") as info:
                resolve_backend(name)
            assert "\n" not in str(info.value)


class TestPerformanceTensor:
    def test_matches_scalar_model_to_fp_noise(self):
        model = AnalyticModel()
        tensor = performance_tensor(BENCHES, CACHE_GRID_KB, SLICE_GRID,
                                    model=model)
        assert tensor.shape == (len(BENCHES), len(CACHE_GRID_KB),
                                len(SLICE_GRID))
        worst = 0.0
        for bi, bench in enumerate(BENCHES):
            for ci, c in enumerate(CACHE_GRID_KB):
                for si, s in enumerate(SLICE_GRID):
                    want = model.performance(bench, c, s)
                    got = float(tensor[bi, ci, si])
                    worst = max(worst, abs(got - want) / want)
        assert worst < 1e-12

    def test_thread_cap_respected(self):
        # dedup has thread_cap 4: multi-slice perf is capped.
        model = AnalyticModel()
        tensor = performance_tensor(["dedup"], CACHE_GRID_KB, SLICE_GRID,
                                    model=model)[0]
        prof = get_profile("dedup")
        assert prof.thread_cap > 0
        for ci, c in enumerate(CACHE_GRID_KB):
            for si, s in enumerate(SLICE_GRID):
                assert float(tensor[ci, si]) == pytest.approx(
                    model.performance(prof, c, s), rel=1e-12
                )


class TestMarketMatrices:
    @pytest.mark.parametrize("market", [MARKET1, MARKET2, MARKET3])
    def test_cost_matrix_matches_market_cost(self, market):
        cm = cost_matrix(market)
        for ci, c in enumerate(CACHE_GRID_KB):
            for si, s in enumerate(SLICE_GRID):
                assert float(cm[ci, si]) == market.cost(c, s)

    def test_vcores_matrix_is_equation_2(self):
        vm = vcores_matrix(MARKET2, 24.0)
        for ci, c in enumerate(CACHE_GRID_KB):
            for si, s in enumerate(SLICE_GRID):
                assert float(vm[ci, si]) == pytest.approx(
                    MARKET2.vcores_affordable(24.0, c, s), rel=0
                )

    def test_utility_matrix_matches_scalar_value(self):
        perf = performance_tensor(["gcc"], CACHE_GRID_KB, SLICE_GRID)[0]
        vm = vcores_matrix(MARKET2, 24.0)
        um = utility_matrix(perf, vm, UTILITY2)
        for ci in range(len(CACHE_GRID_KB)):
            for si in range(len(SLICE_GRID)):
                want = UTILITY2.value(float(perf[ci, si]),
                                      float(vm[ci, si]))
                assert float(um[ci, si]) == want


class TestMarketKernel:
    def test_best_matches_masked_argmax_contract(self):
        kernel = MarketKernel().for_market(MARKET2)
        grid = kernel.utility_grid("gcc", UTILITY2, 24.0)
        cache_kb, slices, vcores, perf, value = kernel.best(
            "gcc", UTILITY2, 24.0
        )
        assert value == pytest.approx(float(grid.max()), rel=0)
        ci = list(kernel.cache_grid).index(cache_kb)
        si = list(kernel.slice_grid).index(slices)
        assert float(grid[ci, si]) == value

    def test_feasibility_mask_min_vcores(self):
        kernel = MarketKernel().for_market(MARKET2)
        mask = kernel.feasibility_mask(24.0, min_vcores=0.5)
        vm = vcores_matrix(MARKET2, 24.0, kernel.cache_grid,
                           kernel.slice_grid)
        assert (mask == (vm >= 0.5)).all()

    def test_infeasible_budget_raises(self):
        kernel = MarketKernel().for_market(MARKET2)
        with pytest.raises(ValueError, match="feasible"):
            kernel.best("gcc", UTILITY2, 24.0, min_vcores=1e9)

    def test_perf_rows_shared_and_counted(self):
        obs = Observability()
        kernel = MarketKernel(obs=obs)
        kernel.prime(BENCHES)
        for u in STANDARD_UTILITIES:
            for m in (MARKET1, MARKET2, MARKET3):
                kernel.for_market(m).best("gcc", u, 24.0)
        snap = obs.snapshot()
        misses = snap["economics.kernel.perf_rows.misses"]["value"]
        hits = snap["economics.kernel.perf_rows.hits"]["value"]
        assert misses == len(BENCHES)
        assert hits >= 9


class TestPairSummary:
    def test_matches_object_path(self):
        rng = np.random.default_rng(11)
        sharing = rng.uniform(1.0, 5.0, size=20)
        fixed = rng.uniform(0.5, 2.0, size=20)
        summary = pair_gain_summary(sharing, fixed)
        gains = sorted(
            (sharing[i] + sharing[j]) / (fixed[i] + fixed[j])
            for i in range(20)
            for j in range(i + 1, 20)
        )
        assert summary["pairs"] == len(gains) == 190
        assert summary["min"] == pytest.approx(gains[0], rel=1e-12)
        assert summary["median"] == pytest.approx(
            gains[len(gains) // 2], rel=1e-12
        )
        assert summary["mean"] == pytest.approx(
            sum(gains) / len(gains), rel=1e-12
        )
        assert summary["max"] == pytest.approx(gains[-1], rel=1e-12)

    def test_nonpositive_fixed_is_infinite_gain(self):
        summary = pair_gain_summary([1.0, 1.0], [0.0, 0.0])
        assert summary["max"] == math.inf


class TestGeometricMeanVector:
    def test_matches_fsum_reference(self):
        rng = np.random.default_rng(5)
        utils = rng.uniform(0.1, 9.0, size=(7, 13))
        got = geometric_mean_vector(utils)
        for col in range(13):
            want = math.exp(
                math.fsum(math.log(v) for v in utils[:, col]) / 7
            )
            assert float(got[col]) == pytest.approx(want, rel=1e-12)
