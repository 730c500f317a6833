"""Smoke tests for the observability CLI flags.

Covers both entry points (``python -m repro`` and the experiments
runner): ``--trace`` must emit loadable Chrome trace_event JSON,
``--metrics-out`` must keep its schema, and obs-disabled runs must be
bit-identical to runs that never heard of observability.
"""

import json

import pytest

from repro.__main__ import main as repro_main
from repro.core.simulator import simulate
from repro.experiments.runner import EXPORT_SCHEMA, main as runner_main
from repro.obs import Observability
from repro.trace.generator import make_workload

SIM_ARGS = ["simulate", "--benchmark", "gcc", "--slices", "2",
            "--cache-kb", "128", "--length", "600"]


def _runner_args(*extra):
    return ["--only", "scalability", *extra]


class TestSimulateFlags:
    def test_trace_writes_valid_chrome_trace(self, tmp_path, capsys):
        out = tmp_path / "sim.trace.json"
        assert repro_main(SIM_ARGS + ["--trace", str(out)]) == 0
        doc = json.load(open(out))
        events = doc["traceEvents"]
        assert events, "trace must not be empty"
        for event in events:
            assert "ph" in event and "name" in event
            if event["ph"] != "M":
                assert "ts" in event
        cats = {e.get("cat") for e in events}
        assert {"core", "cache", "network"} <= cats

    def test_metrics_out_schema(self, tmp_path, capsys):
        out = tmp_path / "sim.metrics.json"
        assert repro_main(SIM_ARGS + ["--metrics-out", str(out)]) == 0
        doc = json.load(open(out))
        assert set(doc) == {"benchmark", "slices", "cache_kb", "stats",
                            "obs"}
        assert doc["benchmark"] == "gcc"
        assert doc["stats"]["committed"] > 0
        assert any(k.startswith("sim.") for k in doc["obs"])

    def test_obs_flag_alone_prints_normal_summary(self, capsys):
        assert repro_main(SIM_ARGS + ["--obs"]) == 0
        assert "ipc" in capsys.readouterr().out

    def test_obs_disabled_run_bit_identical(self):
        warmup, trace = make_workload("gcc", 600, seed=0)
        plain = simulate(trace, num_slices=2, l2_cache_kb=128.0,
                         warmup_addresses=warmup)
        obs = Observability(trace=True)
        traced = simulate(trace, num_slices=2, l2_cache_kb=128.0,
                          warmup_addresses=warmup, obs=obs)
        assert plain.stats.summary() == traced.stats.summary()


class TestRunnerFlags:
    def test_trace_and_metrics_out(self, tmp_path, capsys):
        trace_path = tmp_path / "run.trace.json"
        metrics_path = tmp_path / "run.metrics.json"
        assert runner_main(_runner_args(
            "--trace", str(trace_path),
            "--metrics-out", str(metrics_path))) == 0

        # No artefact sends a unit to the engine; the engine's spans
        # and unit distributions are checked on a traced simulation
        # sweep in tests/engine/test_core.py::TestMetrics::
        # test_run_metrics_attribution.
        doc = json.load(open(trace_path))
        cats = {e.get("cat") for e in doc["traceEvents"]
                if e.get("ph") != "M"}
        assert "runner" in cats

        metrics = json.load(open(metrics_path))
        assert metrics["schema"] == EXPORT_SCHEMA == 2
        inner = metrics["metrics"]
        assert set(inner) == {"total_wall_s", "experiments", "obs"}
        assert all("engine" not in entry for entry in inner["experiments"])

    def test_metrics_out_without_obs_omits_snapshot(self, tmp_path,
                                                    capsys):
        metrics_path = tmp_path / "plain.metrics.json"
        assert runner_main(_runner_args(
            "--metrics-out", str(metrics_path))) == 0
        metrics = json.load(open(metrics_path))
        assert "obs" not in metrics["metrics"]

    def test_obs_disabled_results_identical(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert runner_main(_runner_args("--json", str(a))) == 0
        assert runner_main(_runner_args("--json", str(b), "--obs")) == 0
        results_a = json.load(open(a))["results"]
        results_b = json.load(open(b))["results"]
        assert results_a == results_b


def test_experiments_subcommand_forwards_flags(monkeypatch):
    """``repro experiments`` parses with the runner's own flag set and
    hands the namespace straight to the runner."""
    import repro.__main__ as cli
    from repro.experiments import runner

    captured = {}

    def fake_run(args):
        captured["args"] = args
        return 0

    monkeypatch.setattr(runner, "run_parsed", fake_run)
    flags = ["--obs", "--trace", "t.json", "--metrics-out", "m.json",
             "--only", "taxonomy", "--profile"]
    assert cli.main(["experiments", *flags]) == 0
    forwarded = vars(captured["args"])
    expected = vars(runner.build_parser().parse_args(flags))
    assert {name: forwarded[name] for name in expected} == expected
