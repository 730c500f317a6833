"""Smoke tests for the command-line interface."""

import pytest

from repro.__main__ import build_parser, main


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "gcc" in out and "Utility2" in out and "Market2" in out

    def test_optimize(self, capsys):
        assert main(["optimize", "--benchmark", "gcc",
                     "--utility", "Utility3", "--market", "Market1"]) == 0
        out = capsys.readouterr().out
        assert "VCores" in out and "utility" in out

    def test_simulate(self, capsys):
        assert main(["simulate", "--benchmark", "astar", "--slices", "2",
                     "--cache-kb", "128", "--length", "400"]) == 0
        out = capsys.readouterr().out
        assert "ipc" in out

    def test_single_experiment(self, capsys):
        assert main(["experiment", "tab8"]) == 0
        out = capsys.readouterr().out
        assert "taxonomy" in out.lower()

    def test_unknown_experiment(self, capsys):
        assert main(["experiment", "fig99"]) == 2

    def test_parser_rejects_bad_benchmark(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--benchmark", "doom"])

    @pytest.mark.parametrize("argv", [
        ["experiments", "--backend", "numpy"],
        ["datacenter-stream", "--backend", "numpy"],
    ])
    def test_no_economics_backend_flag(self, argv):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(argv)
        assert info.value.code == 2

    @pytest.mark.parametrize("dest", ["workload_store", "no_store"])
    def test_no_workload_store_flags(self, capsys, dest):
        """Both parsers reject the flags of the deleted workload store
        with a usage error."""
        from repro.experiments import runner

        flag = "--" + dest.replace("_", "-")
        for parse in (lambda: build_parser().parse_args(
                          ["experiments", flag]),
                      lambda: runner.build_parser().parse_args([flag])):
            with pytest.raises(SystemExit) as info:
                parse()
            assert info.value.code == 2
            last = capsys.readouterr().err.strip().splitlines()[-1]
            assert last.endswith("unrecognized arguments: " + flag)

    def test_runner_has_no_backend_flag(self):
        from repro.experiments import runner

        with pytest.raises(SystemExit) as info:
            runner.build_parser().parse_args(["--backend", "numpy"])
        assert info.value.code == 2

    def test_simulate_has_no_backend_flag(self):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(["simulate", "--backend", "batched"])
        assert info.value.code == 2

    @pytest.mark.parametrize("flags", [
        ["--obs"], ["--trace", "t.json"], ["--metrics-out", "m.json"],
    ])
    def test_simulate_sampling_rejects_obs_flags(self, flags, capsys,
                                                 tmp_path, monkeypatch):
        """Sampled runs have no per-cycle instrumentation: asking for it
        is a one-line error, before any simulation or output file."""
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--length", "400", "--sampling",
                     *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert list(tmp_path.iterdir()) == []
