"""Coupled shard groups: price averaging, determinism, checkpoints."""

import json

import pytest

np = pytest.importorskip("numpy")

from repro.cloud.shards import CoupledShards
from repro.experiments.datacenter_stream import (
    build_coupled_group,
    build_service,
    drive_coupled_stream,
    resume_coupled_stream,
)

TIMING_KEYS = {"events_per_s", "wall_s", "latency_p50_ms",
               "latency_p99_ms"}


def drive_kwargs(**overrides):
    kw = dict(active_target=32, resize_fraction=0.3, reprice_every=25,
              collect_latencies=False, strict=True, readmit=False,
              audit_every=0, checkpoint_every=0, on_checkpoint=None)
    kw.update(overrides)
    return kw


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            CoupledShards([])
        with pytest.raises(ValueError):
            CoupledShards([build_service()], sync_every=0)

    def test_build_shares_one_kernel(self):
        group = build_coupled_group(3, sync_every=100)
        kernels = {id(s.kernel) for s in group.services}
        assert len(kernels) == 1


class TestCoupling:
    def test_sync_broadcasts_mean(self):
        group = build_coupled_group(2, sync_every=100)
        a, b = group.services
        a._set_prices(0.4, 0.8)
        b._set_prices(0.2, 0.4)
        slice_price, bank_price = group.sync()
        assert slice_price == pytest.approx(0.3)
        assert bank_price == pytest.approx(0.6)
        assert a.slice_price == b.slice_price == slice_price
        assert a.bank_price == b.bank_price == bank_price
        assert group.n_syncs == 1

    def test_quiescent_sync_does_not_bump_epochs(self):
        group = build_coupled_group(2, sync_every=100)
        group.sync()
        epochs = [s._price_epoch for s in group.services]
        group.sync()
        assert [s._price_epoch for s in group.services] == epochs


class TestDeterminism:
    def test_same_seed_same_run(self):
        runs = []
        for _ in range(2):
            group = build_coupled_group(2, sync_every=100)
            stats, _ = drive_coupled_stream(group, 1200, seed=5,
                                            **drive_kwargs())
            runs.append((stats, group.snapshot()))
        (s1, snap1), (s2, snap2) = runs
        for key in s1:
            if key not in TIMING_KEYS:
                assert s1[key] == s2[key], key
        assert snap1 == snap2

    def test_events_split_across_shards(self):
        group = build_coupled_group(3, sync_every=50)
        stats, _ = drive_coupled_stream(group, 1000, seed=5,
                                        **drive_kwargs())
        assert stats["events"] == 1000.0
        assert stats["price_syncs"] >= 1


class TestCheckpointRestore:
    def test_snapshot_restore_round_trip(self):
        group = build_coupled_group(2, sync_every=100)
        drive_coupled_stream(group, 800, seed=3, **drive_kwargs())
        snap = json.loads(json.dumps(group.snapshot()))
        twin = build_coupled_group(2, sync_every=100)
        twin.restore(snap)
        assert twin.snapshot() == snap
        twin.verify_invariants()

    def test_restore_rejects_mismatched_group(self):
        group = build_coupled_group(2, sync_every=100)
        snap = group.snapshot()
        with pytest.raises(ValueError):
            build_coupled_group(3, sync_every=100).restore(snap)
        with pytest.raises(ValueError):
            build_coupled_group(2, sync_every=99).restore(snap)

    @pytest.mark.parametrize("version", [None, 2])
    def test_restore_rejects_unsupported_versions(self, version):
        snap = build_coupled_group(2, sync_every=100).snapshot()
        if version is None:
            del snap["version"]
        else:
            snap["version"] = version
        group = build_coupled_group(2, sync_every=100)
        drive_coupled_stream(group, 200, seed=3, **drive_kwargs())
        before = group.snapshot()
        with pytest.raises(ValueError, match=f"version {version!r}"):
            group.restore(snap)
        assert group.snapshot() == before

    def test_bad_shard_rejected_before_any_shard_changes(self):
        source = build_coupled_group(2, sync_every=100)
        drive_coupled_stream(source, 200, seed=5, **drive_kwargs())
        snap = json.loads(json.dumps(source.snapshot()))
        snap["shards"][1]["version"] = 1
        group = build_coupled_group(2, sync_every=100)
        drive_coupled_stream(group, 200, seed=3, **drive_kwargs())
        before = group.snapshot()
        with pytest.raises(ValueError, match="version 1"):
            group.restore(snap)
        assert group.snapshot() == before

    def test_resume_bit_equal_to_uninterrupted(self):
        full = build_coupled_group(2, sync_every=100)
        full_stats, _ = drive_coupled_stream(full, 2000, seed=7,
                                             **drive_kwargs())

        captured = []
        crash = build_coupled_group(2, sync_every=100)
        drive_coupled_stream(
            crash, 2000, seed=7,
            **drive_kwargs(
                checkpoint_every=1000,
                on_checkpoint=lambda done, cp: captured.append(cp)))
        assert captured

        checkpoint = json.loads(json.dumps(captured[0]))
        resumed = build_coupled_group(2, sync_every=100)
        stats, _ = resume_coupled_stream(resumed, checkpoint, 2000,
                                         **drive_kwargs())
        assert resumed.prices() == full.prices()
        assert (resumed.snapshot()["shards"]
                == full.snapshot()["shards"])
        for key in ("active_tenants", "slice_price", "bank_price",
                    "final_fragmentation"):
            assert stats[key] == full_stats[key], key


class TestSummary:
    def test_summary_totals_aggregates(self):
        group = build_coupled_group(2, sync_every=100)
        stats, _ = drive_coupled_stream(group, 600, seed=9,
                                        **drive_kwargs())
        totals = group.summary_totals()
        assert totals["admitted"] == stats["admitted"]
        assert totals["price_syncs"] == group.n_syncs
        assert totals["active_tenants"] == stats["active_tenants"]
