"""Tests for the engine-backed experiment runner CLI."""

import json

import pytest

from repro.experiments import runner


class TestSelection:
    def test_names_cover_all_experiments(self):
        assert len(runner.NAMES) == 14
        assert len(set(runner.NAMES)) == 14
        assert "datacenter_scale" in runner.NAMES
        assert "datacenter_stream" in runner.NAMES

    def test_unknown_only_rejected(self, capsys):
        with pytest.raises(SystemExit):
            runner.main(["--only", "nonsense"])


class TestRun:
    def test_only_runs_one_experiment(self, tmp_path, capsys):
        assert runner.main(["--only", "taxonomy"]) == 0
        out = capsys.readouterr().out
        assert "Table 8" in out
        assert "Figure 12" not in out

    def test_json_export_shape(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "out.json"
        runner.main(["--only", "scalability", "--only", "taxonomy",
                     "--json", str(path)])
        capsys.readouterr()
        payload = json.loads(path.read_text())
        assert payload["schema"] == runner.EXPORT_SCHEMA == 2
        names = [r["name"] for r in payload["results"]]
        assert names == ["scalability", "taxonomy"]
        for result in payload["results"]:
            assert "elapsed" not in result  # timing lives in metrics
        metrics = payload["metrics"]
        assert set(metrics) == {"total_wall_s", "experiments"}
        assert [e["name"] for e in metrics["experiments"]] == names
        assert all(set(e) == {"name", "wall_s"}
                   for e in metrics["experiments"])
        # The runner's engine keeps its cache off: nothing on disk.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]

    def test_warm_rerun_identical_results(self, tmp_path, capsys):
        # The runner's artefacts send no unit to the engine, and its
        # engine has no cache; cold/warm cache counts are checked on a
        # simulation sweep in
        # tests/engine/test_regression.py::TestWarmCache.
        argv = ["--only", "scalability"]
        cold_path, warm_path = tmp_path / "cold.json", tmp_path / "warm.json"
        runner.main(argv + ["--json", str(cold_path)])
        runner.main(argv + ["--json", str(warm_path)])
        capsys.readouterr()
        cold = json.loads(cold_path.read_text())
        warm = json.loads(warm_path.read_text())
        assert cold["results"] == warm["results"]
