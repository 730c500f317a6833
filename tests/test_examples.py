"""Every example runs, and the auto-tuner example's tuner behaves."""

import importlib.util
import pathlib

import pytest

from repro.perfmodel.model import AnalyticModel

EXAMPLES = pathlib.Path(__file__).resolve().parents[1] / "examples"


def load_example(name):
    """Import ``examples/<name>.py`` by path."""
    spec = importlib.util.spec_from_file_location(name,
                                                  EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: The start of one line each example prints.
PRINTS = {
    "autotuned_customer": "model choice :",
    "cloud_market": "market-efficiency gain:",
    "phase_adaptive_vm": "dynamic speedup:",
    "quickstart": "SSim: 3000 instructions",
    "spot_market": "== Slice-starved supply ==",
}


class TestExampleSmoke:
    @pytest.mark.parametrize(
        "name", sorted(path.stem for path in EXAMPLES.glob("*.py")))
    def test_example_runs(self, name, capsys):
        load_example(name).main()
        out = capsys.readouterr().out
        assert any(row.startswith(PRINTS[name])
                   for row in out.splitlines())


AutoTuner = load_example("autotuned_customer").AutoTuner


class TestAutoTuner:
    def test_finds_model_optimum_region(self):
        model = AnalyticModel()
        measure = lambda c, s: model.performance("omnetpp", c, s)
        tuner = AutoTuner(measure, max_evaluations=72)
        result = tuner.tune(start_cache_kb=128, start_slices=2)
        # Hill climbing reaches a configuration close to the global best.
        best = max(
            model.performance("omnetpp", c, s)
            for c in tuner.cache_grid for s in tuner.slice_grid
        )
        assert result.best_score >= 0.8 * best

    def test_trajectory_is_monotone(self):
        model = AnalyticModel()
        tuner = AutoTuner(lambda c, s: model.performance("gcc", c, s))
        result = tuner.tune()
        scores = [score for _, _, score in result.trajectory]
        assert scores == sorted(scores)

    def test_respects_budget(self):
        calls = []
        tuner = AutoTuner(lambda c, s: calls.append(1) or 1.0,
                          max_evaluations=5)
        tuner.tune()
        assert len(calls) <= 5

    def test_off_grid_start_rejected(self):
        tuner = AutoTuner(lambda c, s: 1.0)
        with pytest.raises(ValueError):
            tuner.tune(start_cache_kb=100, start_slices=1)
