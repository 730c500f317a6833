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

    @pytest.mark.parametrize("argv", [
        ["simulate", "--slices", "0"],
        ["simulate", "--slices", "9"],
        ["simulate", "--length", "0"],
        ["simulate", "--cache-kb", "-64"],
        # 100 KB used to run 2 banks (128 KB) and 20 KB none at all
        ["simulate", "--cache-kb", "100"],
        ["simulate", "--cache-kb", "20"],
        ["simulate", "--cache-kb", "8256"],
        ["optimize", "--budget", "0"],
        ["optimize", "--budget", "-3"],
    ], ids=" ".join)
    def test_out_of_range_value_is_a_usage_error(self, argv, capsys):
        """Each bad value exits 2 at parse time, before any trace is
        generated, with one error line naming the flag."""
        command, flag, _ = argv
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert captured.err.strip().splitlines()[-1].startswith(
            f"repro {command}: error: argument {flag}: ")

    def test_boundary_values_parse(self):
        args = build_parser().parse_args(
            ["simulate", "--slices", "8", "--cache-kb", "0",
             "--length", "1"])
        assert (args.slices, args.cache_kb, args.length) == (8, 0.0, 1)
        args = build_parser().parse_args(
            ["simulate", "--slices", "1", "--cache-kb", "8192"])
        assert (args.slices, args.cache_kb) == (1, 8192.0)
