"""Runner/CLI flags added with sampled simulation: --sampling, --exact,
--profile."""

import pstats

import pytest

from repro.experiments import runner


class TestParser:
    def test_sampling_and_exact_are_exclusive(self):
        parser = runner.build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["--sampling", "--exact"])

    def test_exact_is_the_default(self):
        args = runner.build_parser().parse_args([])
        assert not args.sampling
        assert not args.profile


class TestProfileDumpPath:
    def test_lands_next_to_metrics_out(self, tmp_path):
        out = str(tmp_path / "metrics.json")
        assert runner.profile_dump_path(out) == str(tmp_path
                                                    / "metrics.pstats")

    def test_default_without_metrics_out(self):
        assert runner.profile_dump_path(None) == "runner_profile.pstats"


class TestProfileRun:
    def test_profile_writes_loadable_pstats(self, tmp_path, capsys,
                                            monkeypatch):
        monkeypatch.chdir(tmp_path)
        metrics = tmp_path / "metrics.json"
        assert runner.main(["--only", "taxonomy", "--no-cache",
                            "--cache-dir", str(tmp_path / "cache"),
                            "--metrics-out", str(metrics),
                            "--profile"]) == 0
        out = capsys.readouterr().out
        dump = tmp_path / "metrics.pstats"
        assert dump.exists()
        assert "metrics.pstats" in out
        stats = pstats.Stats(str(dump))  # must parse as a pstats dump
        assert stats.total_calls > 0


class TestCliPassthrough:
    def test_simulate_sampling_reports_ci(self, capsys):
        from repro import __main__ as cli

        assert cli.main(["simulate", "--benchmark", "gcc",
                         "--length", "12000", "--seed", "1",
                         "--slices", "2", "--sampling"]) == 0
        out = capsys.readouterr().out
        assert "ipc_ci" in out
        assert "detail_frac" in out

    def test_simulate_exact_has_no_ci(self, capsys):
        from repro import __main__ as cli

        assert cli.main(["simulate", "--benchmark", "gcc",
                         "--length", "3000", "--exact"]) == 0
        out = capsys.readouterr().out
        assert "ipc_ci" not in out

    def test_experiments_forwards_flags(self, monkeypatch):
        from repro import __main__ as cli

        seen = {}

        def fake_run(args):
            seen["args"] = args
            return 0

        monkeypatch.setattr(runner, "run_parsed", fake_run)
        assert cli.main(["experiments", "--sampling", "--profile"]) == 0
        assert seen["args"].sampling
        assert seen["args"].profile
