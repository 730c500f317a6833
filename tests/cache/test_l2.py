"""Tests for the banked, distance-priced L2."""

import pytest

from repro.cache.l2 import default_bank_distances, l2_hit_latency
from tests.oracles.objmodel.l2 import BankedL2, L2Bank


class TestLatencyModel:
    def test_paper_table3_formula(self):
        """Table 3: L2 hit delay is distance * 2 + 4."""
        assert l2_hit_latency(0) == 4
        assert l2_hit_latency(1) == 6
        assert l2_hit_latency(5) == 14

    def test_rejects_negative_distance(self):
        with pytest.raises(ValueError):
            l2_hit_latency(-1)

    def test_ring_packing(self):
        """4r banks fit at Manhattan distance r on a 2-D fabric."""
        assert default_bank_distances(4) == [1, 1, 1, 1]
        assert default_bank_distances(6) == [1, 1, 1, 1, 2, 2]
        dists = default_bank_distances(12)
        assert dists.count(1) == 4
        assert dists.count(2) == 8

    def test_mean_latency_grows_with_capacity(self):
        small = BankedL2(num_banks=4)
        large = BankedL2(num_banks=64)
        assert large.mean_hit_latency() > small.mean_hit_latency()


class TestInterleaving:
    def test_lines_spread_across_banks(self):
        l2 = BankedL2(num_banks=4)
        homes = {l2.bank_for(line * 64).bank_id for line in range(8)}
        assert homes == {0, 1, 2, 3}

    def test_same_line_same_bank(self):
        l2 = BankedL2(num_banks=4)
        assert l2.bank_for(100).bank_id == l2.bank_for(120).bank_id

    def test_bank_internal_indexing_uses_high_bits(self):
        """Lines of one bank must spread over that bank's sets.

        Regression test: with naive indexing every line of bank b maps to
        a handful of sets and the L2 thrashes regardless of capacity.
        """
        l2 = BankedL2(num_banks=64)
        # 2048 distinct lines homed at bank 0 easily fit in its 1024
        # lines? No - but 512 do, and must not conflict-evict.
        lines = [i * 64 for i in range(512)]  # every 64th line -> bank 0
        for line in lines:
            l2.access(line * 64)
        hits_before = l2.hits
        for line in lines:
            l2.access(line * 64)
        assert l2.hits - hits_before >= len(lines) * 0.9

    def test_zero_banks_always_miss(self):
        l2 = BankedL2(num_banks=0)
        result, latency = l2.access(0x1234)
        assert result.miss
        assert latency == 0
        assert l2.size_kb == 0


class TestBankedL2:
    def test_size_accounting(self):
        assert BankedL2(num_banks=8).size_kb == 512

    def test_hit_after_fill(self):
        l2 = BankedL2(num_banks=2)
        l2.access(0)
        result, latency = l2.access(0)
        assert result.hit
        assert latency == l2_hit_latency(1)

    def test_flush_reports_dirty(self):
        l2 = BankedL2(num_banks=2)
        l2.access(0, is_write=True)
        l2.access(64, is_write=True)
        l2.access(128)
        assert l2.flush() == 2

    def test_distances_must_match_banks(self):
        with pytest.raises(ValueError):
            BankedL2(num_banks=2, distances=[1])

    def test_miss_rate_aggregation(self):
        l2 = BankedL2(num_banks=2)
        l2.access(0)
        l2.access(0)
        assert l2.miss_rate == 0.5
