"""CLI flags added with sampled simulation: ``simulate --sampling`` /
``--exact``, and the runner's ``--profile``.  ``repro experiments``
runs no simulation sweep, so it takes neither ``--sampling`` nor any
other engine flag."""

import pstats

import pytest

from repro.experiments import runner

#: The engine flags ``repro experiments`` no longer takes: no artefact
#: sends the engine a unit, so none of them changed a result.
REMOVED_ENGINE_FLAGS = (
    ["--jobs", "2"], ["--no-cache"], ["--cache-dir", "c"],
    ["--timeout", "5"], ["--sampling"], ["--exact"],
)


def _parse(*argv):
    from repro import __main__ as cli

    return cli.build_parser().parse_args(list(argv))


class TestParser:
    def test_sampling_and_exact_are_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            _parse("simulate", "--sampling", "--exact")
        assert exit_info.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_exact_is_the_default(self):
        assert not _parse("simulate").sampling
        assert not _parse("experiments").profile

    @pytest.mark.parametrize("flag", REMOVED_ENGINE_FLAGS,
                             ids=[f[0] for f in REMOVED_ENGINE_FLAGS])
    def test_experiments_rejects_engine_flags(self, flag, capsys):
        from repro import __main__ as cli

        with pytest.raises(SystemExit) as exit_info:
            cli.main(["experiments", *flag])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1] == ("repro: error: unrecognized arguments: "
                           + " ".join(flag))
        with pytest.raises(SystemExit) as exit_info:
            runner.main(flag)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1] == ("repro.experiments.runner: error: "
                           "unrecognized arguments: " + " ".join(flag))


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
        assert runner.main(["--only", "taxonomy",
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
        assert cli.main(["experiments", "--only", "taxonomy",
                         "--profile"]) == 0
        assert seen["args"].only == ["taxonomy"]
        assert seen["args"].profile
