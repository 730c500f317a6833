"""Tests for the datacenter-scale allocation experiment."""

import hashlib
import json

import pytest

from repro.cloud import fabric as fabric_module
from repro.cloud.fabric import Fabric
from repro.cloud.hypervisor import Hypervisor
from repro.economics.market import MARKET2
from repro.experiments import datacenter_scale
from repro.obs import Observability


class TestSynthesize:
    def test_deterministic_under_seed(self):
        a = datacenter_scale._synthesize(100, seed=5)
        b = datacenter_scale._synthesize(100, seed=5)
        assert a == b
        c = datacenter_scale._synthesize(100, seed=6)
        assert a != c

    def test_budgets_within_span(self):
        lo, hi = datacenter_scale.BUDGET_SPAN
        for t in datacenter_scale._synthesize(200, seed=1):
            assert lo <= t.budget <= hi


class TestRun:
    @pytest.fixture(scope="class")
    def result(self):
        return datacenter_scale.run(num_tenants=200, seed=11)

    def test_every_tenant_accounted_for(self, result):
        assert result.num_tenants == 200
        for row in result.rows:
            assert row["tenants"] == 200
            assert row["placed"] + row["rejected"] == 200
            assert row["racks"] >= 1
            assert 0.0 <= row["mean_utilization"] <= 1.0
            assert row["total_welfare"] > 0

    def test_one_row_per_market(self, result):
        assert [row["market"] for row in result.rows] == [
            "Market1", "Market2", "Market3"
        ]

    def test_phase_timers_present(self, result):
        assert set(result.phase_seconds) == {
            "optimize", "synthesize", "allocate"
        }
        assert all(v >= 0 for v in result.phase_seconds.values())

    def test_backend_stamped(self, result):
        assert result.backend == "numpy"
        assert result.params["backend"] == result.backend

    def test_deterministic_across_runs(self, result):
        again = datacenter_scale.run(num_tenants=200, seed=11)
        assert again.rows == result.rows

    def test_obs_phase_instrumentation(self):
        obs = Observability()
        result = datacenter_scale.run(num_tenants=50, seed=3,
                                      markets=[MARKET2], obs=obs)
        snap = obs.snapshot()
        prefix = "experiments.datacenter_scale"
        placed = snap[f"{prefix}.tenants_placed"]["value"]
        rejected = snap[f"{prefix}.tenants_rejected"]["value"]
        assert placed == result.rows[0]["placed"]
        assert placed + rejected == 50
        for timer in ("optimize_s", "synthesize_s", "allocate_s"):
            assert f"{prefix}.{timer}" in snap

    def test_render_prints_summary(self, result, capsys):
        datacenter_scale.render(result)
        out = capsys.readouterr().out
        assert "200 tenants" in out
        assert "Market3" in out
        assert "phases:" in out


class TestPlacement:
    #: sha256 of every ``Hypervisor.place`` result (``None`` for a full
    #: rack) of ``run(num_tenants=300, seed=7)``, recorded before the
    #: bank orders moved to numpy.  The benchmark digests see only
    #: per-market totals, not which tiles each VCore got.
    PLACEMENTS_SHA256 = (
        "478bf3f12ef1ffdd1088ca471039951888b7f3de3d2f9b45c31e029f68722ca0"
    )

    def test_placements_pinned(self, monkeypatch):
        placements = []
        place = Hypervisor.place

        def recording(self, spec):
            instance = place(self, spec)
            placements.append(None if instance is None
                              else instance.placements)
            return instance

        monkeypatch.setattr(Hypervisor, "place", recording)
        datacenter_scale.run(num_tenants=300, seed=7)
        text = json.dumps(placements, separators=(",", ":"))
        assert (hashlib.sha256(text.encode()).hexdigest()
                == self.PLACEMENTS_SHA256)

    def test_one_bank_order_per_anchor_per_run(self, monkeypatch):
        """A run's racks share one order per anchor; a second run in the
        same process starts cold and builds them again."""
        builds = []
        anchors = set()
        build = fabric_module._BankOrders.__missing__
        find = Fabric.find_nearest_banks

        def counting(self, anchor):
            builds.append(anchor)
            return build(self, anchor)

        def recording(self, anchor, count):
            banks = find(self, anchor, count)
            if banks:
                anchors.add(anchor)
            return banks

        monkeypatch.setattr(fabric_module._BankOrders, "__missing__",
                            counting)
        monkeypatch.setattr(Fabric, "find_nearest_banks", recording)
        datacenter_scale.run(num_tenants=300, seed=7)
        assert sorted(builds) == sorted(anchors)
        first = len(builds)
        builds.clear()
        datacenter_scale.run(num_tenants=300, seed=7)
        assert len(builds) == first
