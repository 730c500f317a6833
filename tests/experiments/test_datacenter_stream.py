"""The datacenter_stream experiment: seeded streams, shards, CLI."""

import os

import pytest

from repro.experiments import datacenter_stream as ds

#: Stream arguments rejected before any event is driven, as ``run()``
#: keywords and as CLI flags: each would drive a different number of
#: events than asked or silently drop an option.  ``ck.json`` is
#: relative to the test's working directory.
REJECTED = {
    "zero-events": ({"num_events": 0}, ["--events", "0"]),
    "negative-events": ({"num_events": -5}, ["--events", "-5"]),
    "faults-with-couple": ({"fault_rate": 0.2, "couple": 2},
                           ["--faults", "0.2", "--couple", "2"]),
    "checkpoint-without-path": ({"checkpoint_every": 100},
                                ["--checkpoint-every", "100"]),
    "checkpoint-with-couple": (
        {"checkpoint_every": 100, "checkpoint_path": "ck.json",
         "couple": 2},
        ["--checkpoint-every", "100", "--checkpoint-path", "ck.json",
         "--couple", "2"]),
    "checkpoint-with-shards": (
        {"checkpoint_every": 100, "checkpoint_path": "ck.json",
         "shards": 2},
        ["--checkpoint-every", "100", "--checkpoint-path", "ck.json",
         "--shards", "2"]),
    "checkpoint-path-without-every": ({"checkpoint_path": "ck.json"},
                                      ["--checkpoint-path", "ck.json"]),
    "sync-every-without-couple": ({"sync_every": 300},
                                  ["--sync-every", "300"]),
    "chaos-seed-without-faults": ({"chaos_seed": 7},
                                  ["--chaos-seed", "7"]),
    "events-not-multiple-of-shards": (
        {"num_events": 10, "shards": 3},
        ["--events", "10", "--shards", "3"]),
    "fewer-events-than-shards": (
        {"num_events": 2, "shards": 3, "couple": 2},
        ["--events", "2", "--shards", "3", "--couple", "2"]),
}

#: Rejected by ``run()`` only: the CLI always builds an engine for
#: ``--shards > 1``, so these have no command line.
REJECTED_API = {
    "shards-without-engine": {"shards": 2},
}


class TestDriveStream:
    def test_seeded_stream_is_deterministic(self):
        a = ds.drive_stream(ds.build_service(),
                            120, seed=5)[0]
        b = ds.drive_stream(ds.build_service(),
                            120, seed=5)[0]
        timing = {"events_per_s", "wall_s", "latency_p50_ms",
                  "latency_p99_ms"}
        for key, value in a.items():
            if key in timing:
                continue
            assert b[key] == value, key

    def test_event_accounting_balances(self):
        stats, _, _ = ds.drive_stream(ds.build_service(),
                                      150, seed=2)
        handled = (stats["admitted"] + stats["rejected_price"]
                   + stats["rejected_capacity"] + stats["departures"]
                   + stats["resizes"])
        # Every event lands in exactly one bucket, except capacity
        # rejections raised by resizes (counted under both).
        assert handled >= stats["events"]
        assert stats["active_tenants"] == \
            stats["admitted"] - stats["departures"]

    def test_segments_chain_into_one_stream(self):
        service = ds.build_service()
        active = []
        _, _, serial = ds.drive_stream(service, 60, seed=1,
                                       active=active, serial0=0)
        stats, _, serial2 = ds.drive_stream(service, 60, seed=2,
                                            active=active,
                                            serial0=serial)
        assert serial2 > serial > 0
        assert stats["active_tenants"] == len(active)


class TestRun:
    def test_run_aggregates_segments(self):
        result = ds.run(num_events=200, seed=4, segments=2)
        assert result.name == ds.NAME
        assert result.num_events == 200
        assert len(result.rows) == 2
        assert result.events_per_s > 0
        assert 0.0 <= result.rejection_rate <= 1.0
        assert result.latency_p99_ms >= result.latency_p50_ms >= 0.0

    def test_fewer_events_than_segments(self):
        """Every segment drives at least one event, and the run drives
        exactly ``num_events``."""
        result = ds.run(num_events=2, seed=4)
        assert [row["segment"] for row in result.rows] == ["q1", "q2"]
        assert [row["events"] for row in result.rows] == [1.0, 1.0]
        assert result.num_events == 2

    def test_rejection_rate_reflects_floor(self):
        open_door = ds.run(num_events=150, seed=4,
                           segments=1, admission_floor=0.0)
        closed = ds.run(num_events=150, seed=4,
                        segments=1, admission_floor=1e9)
        assert closed.rejection_rate > open_door.rejection_rate
        assert closed.rejection_rate == 1.0

    def test_render_smoke(self, capsys):
        result = ds.run(num_events=100, seed=4, segments=1)
        ds.render(result)
        out = capsys.readouterr().out
        assert "Streaming datacenter service" in out
        assert "rejection rate" in out


class TestShardedRun:
    def test_sharded_run_uses_engine(self, tmp_path):
        pytest.importorskip("numpy")
        from repro.engine import ResultCache, SweepEngine

        engine = SweepEngine(jobs=1,
                             cache=ResultCache(root=str(tmp_path)))
        result = ds.run(num_events=200, seed=4, shards=2,
                        engine=engine, reprice_every=20)
        assert len(result.rows) == 2
        assert {row["segment"] for row in result.rows} == \
            {"shard0", "shard1"}
        assert result.num_events == 200


class TestCli:
    def test_datacenter_stream_subcommand(self, capsys):
        from repro.__main__ import main

        assert main(["datacenter-stream", "--events", "80",
                     "--reprice-every", "20"]) == 0
        out = capsys.readouterr().out
        assert "Streaming datacenter service" in out

    def test_json_export(self, tmp_path, capsys):
        import json

        from repro.__main__ import main

        path = tmp_path / "stream.json"
        assert main(["datacenter-stream", "--events", "60",
                     "--reprice-every", "0",
                     "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["name"] == "datacenter_stream"
        assert payload["rows"]


class TestRejectedArgs:
    @pytest.fixture(autouse=True)
    def _in_tmp(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))

    @pytest.mark.parametrize("case", REJECTED)
    def test_run_raises(self, case):
        from repro.engine import SweepEngine

        kwargs = {"num_events": 400, "reprice_every": 50,
                  **REJECTED[case][0]}
        if kwargs.get("shards", 1) > 1:
            kwargs["engine"] = SweepEngine(jobs=1)
        with pytest.raises(ValueError) as info:
            ds.run(seed=4, **kwargs)
        assert "\n" not in str(info.value)
        assert not os.path.exists("ck.json")

    @pytest.mark.parametrize("case", REJECTED_API)
    def test_run_raises_api_only(self, case):
        with pytest.raises(ValueError) as info:
            ds.run(num_events=200, seed=4, reprice_every=20,
                   **REJECTED_API[case])
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("case", REJECTED)
    def test_cli_exits_2(self, case, capsys):
        from repro.__main__ import main

        assert main(["datacenter-stream", "--events", "400",
                     "--reprice-every", "50", *REJECTED[case][1]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert not os.path.exists("ck.json")


class TestShardOptions:
    """Options a sharded run used to drop: ``--jobs`` without shards is
    rejected, and ``readmit``/``audit_every`` reach every shard of a
    clean (fault-free) sharded run."""

    def test_jobs_without_shards(self, tmp_path, monkeypatch, capsys):
        from repro.__main__ import main

        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValueError, match="jobs needs shards"):
            ds.check_run_args(400, jobs=2)
        assert main(["datacenter-stream", "--events", "400",
                     "--jobs", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1

    @pytest.mark.parametrize("option", [{"readmit": True},
                                        {"audit_every": 5}])
    def test_clean_sharded_run_forwards(self, option, tmp_path,
                                        monkeypatch):
        from repro.engine import ResultCache, SweepEngine

        seen = []
        drive = ds.drive_stream

        def spying(*args, **kwargs):
            seen.append(kwargs)
            return drive(*args, **kwargs)

        monkeypatch.setattr(ds, "drive_stream", spying)
        engine = SweepEngine(jobs=1,
                             cache=ResultCache(root=str(tmp_path)))
        ds.run(num_events=200, seed=4, shards=2, engine=engine,
               reprice_every=20, **option)
        (name, value), = option.items()
        assert len(seen) == 2
        assert all(kwargs[name] == value for kwargs in seen)


class TestCheckpointGeometry:
    def test_resume_into_transposed_rack_raises(self):
        """A 32x64 rack has the 64x32 rack's 1,024 slices and 1,024
        banks, so its supplies match; resuming a checkpoint into it
        must still fail up front instead of re-claiming the same tile
        ids on a different mesh."""
        from repro.cloud.fabric import Fabric
        from repro.cloud.service import AllocationService

        checkpoints = {}
        ds.drive_stream(ds.build_service(), 500, seed=3,
                        checkpoint_every=500,
                        on_checkpoint=checkpoints.setdefault)
        transposed = AllocationService(
            fabric=Fabric(ds.RACK_HEIGHT, ds.RACK_WIDTH),
            admission_floor=ds.ADMISSION_FLOOR,
            max_vcores=ds.MAX_VCORES)
        before = transposed.snapshot()
        with pytest.raises(ValueError, match="fabric_width"):
            ds.resume_stream(transposed, checkpoints[500], 2000)
        assert transposed.snapshot() == before


class TestCoupledRun:
    def test_in_process_coupled_run(self):
        pytest.importorskip("numpy")
        result = ds.run(num_events=600, seed=4, couple=2,
                        sync_every=100, reprice_every=50)
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row["segment"] == "coupled"
        assert row["events"] == 600.0
        assert row["price_syncs"] >= 1
        assert result.params["couple"] == 2
        assert result.params["sync_every"] == 100

    def test_coupled_run_is_deterministic(self):
        pytest.importorskip("numpy")
        skip = {"events_per_s", "wall_s", "latency_p50_ms",
                "latency_p99_ms"}
        rows = [ds.run(num_events=400, seed=9, couple=2,
                       sync_every=100, reprice_every=50).rows[0]
                for _ in range(2)]
        for key, value in rows[0].items():
            if key not in skip:
                assert rows[1][key] == value, key

    def test_engine_shards_of_coupled_groups(self, tmp_path):
        pytest.importorskip("numpy")
        from repro.engine import ResultCache, SweepEngine

        engine = SweepEngine(jobs=1,
                             cache=ResultCache(root=str(tmp_path)))
        result = ds.run(num_events=400, seed=4, shards=2, couple=2,
                        sync_every=100, engine=engine,
                        reprice_every=50)
        assert len(result.rows) == 2
        assert sum(row["price_syncs"] for row in result.rows) >= 2

    def test_cli_couple_flag(self, capsys):
        pytest.importorskip("numpy")
        from repro.__main__ import main

        assert main(["datacenter-stream", "--events", "400",
                     "--couple", "2", "--sync-every", "100",
                     "--reprice-every", "50"]) == 0
        out = capsys.readouterr().out
        assert "global price syncs" in out

    def test_cli_profile_flag(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "stream.pstats"
        assert main(["datacenter-stream", "--events", "60",
                     "--reprice-every", "0",
                     "--profile", str(path)]) == 0
        assert path.exists()
        import pstats

        assert pstats.Stats(str(path)).total_calls > 0


class TestStreamFullAcceptance:
    @pytest.mark.skipif(
        not __import__("os").environ.get("REPRO_STREAM_FULL"),
        reason="set REPRO_STREAM_FULL=1 for the 1M-event sharded "
               "acceptance run")
    def test_1m_event_coupled_sharded_run(self):
        """The ISSUE acceptance run: 1M events across a coupled shard
        group - completes, audits clean, accounts for every event."""
        pytest.importorskip("numpy")
        group = ds.build_coupled_group(4, sync_every=ds.SYNC_EVERY)
        stats, _ = ds.drive_coupled_stream(
            group, 1_000_000, seed=7, reprice_every=250,
            strict=True, readmit=False, audit_every=100_000)
        assert stats["events"] == 1_000_000.0
        group.verify_invariants()
        assert stats["price_syncs"] > 0
        assert stats["dead_letters"] == 0.0
