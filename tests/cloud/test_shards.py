"""Coupled shard groups: price averaging and determinism."""

import pytest

np = pytest.importorskip("numpy")

from repro.cloud.shards import CoupledShards
from repro.experiments.datacenter_stream import (
    build_coupled_group,
    build_service,
    drive_coupled_stream,
)

TIMING_KEYS = {"events_per_s", "wall_s", "latency_p50_ms",
               "latency_p99_ms"}


def drive_kwargs(**overrides):
    kw = dict(active_target=32, resize_fraction=0.3, reprice_every=25,
              collect_latencies=False, strict=True, readmit=False,
              audit_every=0)
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
            runs.append((stats, [s.snapshot() for s in group.services],
                         group.n_syncs))
        (s1, snaps1, syncs1), (s2, snaps2, syncs2) = runs
        for key in s1:
            if key not in TIMING_KEYS:
                assert s1[key] == s2[key], key
        assert snaps1 == snaps2
        assert syncs1 == syncs2

    def test_events_split_across_shards(self):
        group = build_coupled_group(3, sync_every=50)
        stats, _ = drive_coupled_stream(group, 1000, seed=5,
                                        **drive_kwargs())
        assert stats["events"] == 1000.0
        assert stats["price_syncs"] >= 1
