"""Tests for SSim configuration (Tables 2-3, XML interface)."""

import pytest

from repro.core.config import (
    CacheConfig,
    CacheLevelConfig,
    SimConfig,
    SliceConfig,
    VCoreConfig,
)
from repro.isa import NUM_ARCH_REGS


class TestTableDefaults:
    def test_table2_slice_defaults(self):
        cfg = SliceConfig()
        assert cfg.issue_window_size == 32
        assert cfg.lsq_size == 32
        assert cfg.rob_size == 64
        assert cfg.num_local_registers == 64
        assert cfg.store_buffer_size == 8
        assert cfg.max_inflight_loads == 8
        assert cfg.fetch_width == 2

    def test_table3_cache_defaults(self):
        cfg = CacheConfig()
        assert cfg.l1i.size_kb == 16 and cfg.l1i.assoc == 2
        assert cfg.l1d.hit_delay == 3
        assert cfg.memory_delay == 100

    def test_local_registers_cover_architectural_registers(self):
        """Fewer LRF entries than architectural registers can deadlock
        dispatch, so the config refuses them."""
        SliceConfig(num_local_registers=NUM_ARCH_REGS)
        with pytest.raises(ValueError, match="num_local_registers") as info:
            SliceConfig(num_local_registers=NUM_ARCH_REGS - 1)
        assert "\n" not in str(info.value)


class TestVCoreConfig:
    def test_equation3_bounds(self):
        with pytest.raises(ValueError):
            VCoreConfig(num_slices=9)
        with pytest.raises(ValueError):
            VCoreConfig(num_slices=0)
        with pytest.raises(ValueError):
            VCoreConfig(l2_cache_kb=8193)

    def test_bank_count(self):
        assert VCoreConfig(l2_cache_kb=256).num_l2_banks == 4
        assert VCoreConfig(l2_cache_kb=0).num_l2_banks == 0

    @pytest.mark.parametrize("kb", [512 / 3, 100.0, 20.0, -64.0, 8256.0,
                                    float("nan"), float("inf")])
    def test_partial_banks_rejected(self, kb):
        """An L2 is whole 64 KB banks: 512/3 KB used to simulate 3
        banks, 100 KB 2 banks and 20 KB none."""
        with pytest.raises(ValueError,
                           match="whole number of 64 KB banks") as info:
            SimConfig().with_vcore(2, kb)
        assert "\n" not in str(info.value)
        assert f"got {kb:g}" in str(info.value)

    def test_cli_applies_the_same_rule(self):
        import argparse

        from repro.__main__ import _cache_kb

        for text in ("100", "20", "-64", "8256"):
            with pytest.raises(ValueError) as api:
                VCoreConfig(l2_cache_kb=float(text))
            with pytest.raises(argparse.ArgumentTypeError) as cli:
                _cache_kb(text)
            assert str(cli.value) == str(api.value)
        assert _cache_kb("192") == VCoreConfig(l2_cache_kb=192).l2_cache_kb

    def test_multivcore_share_must_be_whole_banks(self):
        from repro.core.multivcore import MultiVCoreSimulator

        with pytest.raises(ValueError, match="170.667 KB each") as info:
            MultiVCoreSimulator("dedup", num_vcores=3, l2_cache_kb=512)
        assert "\n" not in str(info.value)
        sim = MultiVCoreSimulator("dedup", num_vcores=4, l2_cache_kb=512,
                                  trace_length=10)
        assert sim.l2_cache_kb / sim.num_vcores == 128

    def test_with_vcore_helper(self):
        cfg = SimConfig().with_vcore(num_slices=4, l2_cache_kb=512)
        assert cfg.vcore.num_slices == 4
        assert cfg.vcore.l2_cache_kb == 512


class TestXMLInterface:
    def test_roundtrip(self):
        original = SimConfig().with_vcore(num_slices=3, l2_cache_kb=192)
        parsed = SimConfig.from_xml(original.to_xml())
        assert parsed.vcore.num_slices == 3
        assert parsed.vcore.l2_cache_kb == 192
        assert parsed.slice_config.issue_window_size == 32

    def test_parse_custom_parameters(self):
        xml = """
        <ssim>
          <slice issue_window_size="16" rob_size="32"/>
          <cache memory_delay="200"/>
          <vcore num_slices="2" l2_cache_kb="128.0"/>
          <timing frontend_depth="5"/>
        </ssim>
        """
        cfg = SimConfig.from_xml(xml)
        assert cfg.slice_config.issue_window_size == 16
        assert cfg.slice_config.rob_size == 32
        assert cfg.cache_config.memory_delay == 200
        assert cfg.vcore.num_slices == 2
        assert cfg.frontend_depth == 5

    def test_rejects_wrong_root(self):
        with pytest.raises(ValueError):
            SimConfig.from_xml("<simulator/>")

    def test_rejects_unknown_field(self):
        for xml in ('<ssim><slice warp_drive="1"/></ssim>',
                    '<ssim><cache l2_bank_kb="32"/></ssim>',
                    '<ssim><cache memroy_delay="50"/></ssim>',
                    '<ssim><timing warp="1"/></ssim>'):
            with pytest.raises(ValueError, match="unknown") as info:
                SimConfig.from_xml(xml)
            assert "\n" not in str(info.value), xml

    def test_rejects_invalid_cache_level(self):
        with pytest.raises(ValueError):
            CacheLevelConfig(size_kb=-1)
