"""Simulator configuration.

Defaults reproduce the paper's base configuration:

* Table 2 (Base Slice Configuration): issue window 32, load/store queue
  32, 2 functional units per Slice (one ALU with the multiplier and one
  LSU, fixed by construction), ROB 64, 128 global physical registers,
  store buffer 8, 64 local registers per Slice, 8 in-flight loads, and a
  100-cycle memory delay.
* Table 3 (Base Cache Configurations): 16 KB 2-way L1I/L1D with 3-cycle
  hits, 64 KB 4-way L2 banks with ``distance * 2 + 4`` hit delay.  Line
  sizes and the L2 bank geometry are constants of :mod:`repro.cache`.

SSim "is very flexible, allowing all critical micro-architecture
parameters and latencies to be set from a XML configuration file"
(Section 5.2) - :meth:`SimConfig.from_xml` preserves that interface.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Any, Dict, List, Optional, Sequence

from repro.cache.l2 import default_bank_distances
from repro.isa.registers import NUM_ARCH_REGS

#: Paper Equation 3: valid Slice counts per VCore.
MIN_SLICES = 1
MAX_SLICES = 8
#: Paper Equation 3: maximum L2 per VCore (8 MB).
MAX_CACHE_KB = 8192.0


@dataclass(frozen=True)
class SliceConfig:
    """Per-Slice micro-architecture parameters (paper Table 2)."""

    fetch_width: int = 2
    issue_window_size: int = 32
    lsq_size: int = 32
    rob_size: int = 64
    num_local_registers: int = 64
    store_buffer_size: int = 8
    max_inflight_loads: int = 8
    commit_width: int = 2
    instruction_buffer_size: int = 16
    mul_latency: int = 3
    branch_predictor_entries: int = 1024
    btb_entries: int = 512
    #: "bimodal" (the paper's default) or "gshare" (the Section 3.1
    #: alternative requiring a composed Global History Register).
    predictor_kind: str = "bimodal"

    def __post_init__(self) -> None:
        if self.predictor_kind not in ("bimodal", "gshare"):
            raise ValueError(
                f"predictor_kind must be 'bimodal' or 'gshare', "
                f"got {self.predictor_kind!r}"
            )
        positive = (
            "fetch_width",
            "issue_window_size",
            "lsq_size",
            "rob_size",
            "num_local_registers",
            "store_buffer_size",
            "max_inflight_loads",
            "commit_width",
            "instruction_buffer_size",
            "mul_latency",
            "branch_predictor_entries",
            "btb_entries",
        )
        for name in positive:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.num_local_registers < NUM_ARCH_REGS:
            # An LRF entry holds each live value its Slice produced until
            # the next writer of that register commits.  With fewer
            # entries than architectural registers a Slice can fill with
            # such values while their next writers wait behind the
            # stalled in-order dispatch.
            raise ValueError(
                f"num_local_registers must be >= {NUM_ARCH_REGS} (the "
                f"architectural register count), or dispatch can deadlock"
            )


@dataclass(frozen=True)
class CacheLevelConfig:
    """One cache level's geometry and timing (paper Table 3 row)."""

    size_kb: float
    assoc: int = 2
    hit_delay: int = 3

    def __post_init__(self) -> None:
        if self.size_kb < 0:
            raise ValueError("cache size cannot be negative")
        if self.assoc < 1 or self.hit_delay < 0:
            raise ValueError("invalid cache level parameters")


@dataclass(frozen=True)
class CacheConfig:
    """Cache hierarchy parameters (paper Table 3)."""

    l1i: CacheLevelConfig = field(
        default_factory=lambda: CacheLevelConfig(size_kb=16, assoc=2, hit_delay=3)
    )
    l1d: CacheLevelConfig = field(
        default_factory=lambda: CacheLevelConfig(size_kb=16, assoc=2, hit_delay=3)
    )
    memory_delay: int = 100


@dataclass(frozen=True)
class VCoreConfig:
    """A VCore composition: Slice count plus L2 allocation.

    ``l2_bank_distances`` optionally pins each bank's network distance;
    by default banks pack in rings of four around the VCore (256 KB per
    ring), reproducing the paper's latency growth (Section 5.4).
    """

    num_slices: int = 1
    l2_cache_kb: float = 128.0
    l2_bank_distances: Optional[Sequence[int]] = None

    def __post_init__(self) -> None:
        if not MIN_SLICES <= self.num_slices <= MAX_SLICES:
            raise ValueError(
                f"Slice count {self.num_slices} outside paper Equation 3 "
                f"range [{MIN_SLICES}, {MAX_SLICES}]"
            )
        if not 0 <= self.l2_cache_kb <= MAX_CACHE_KB:
            raise ValueError(
                f"L2 size {self.l2_cache_kb} KB outside [0, {MAX_CACHE_KB}]"
            )

    @property
    def num_l2_banks(self) -> int:
        return int(round(self.l2_cache_kb / 64.0))

    def bank_distances(self) -> List[int]:
        if self.l2_bank_distances is not None:
            dists = list(self.l2_bank_distances)
            if len(dists) != self.num_l2_banks:
                raise ValueError("one distance per L2 bank required")
            return dists
        return default_bank_distances(self.num_l2_banks)


@dataclass(frozen=True)
class SimConfig:
    """Complete SSim configuration."""

    slice_config: SliceConfig = field(default_factory=SliceConfig)
    cache_config: CacheConfig = field(default_factory=CacheConfig)
    vcore: VCoreConfig = field(default_factory=VCoreConfig)
    #: Extra rename pipeline depth for multi-Slice global rename (the
    #: send-to-master / broadcast / correct steps of Section 3.2.1).
    global_rename_depth: int = 2
    #: Front-end depth from fetch to rename (cycles).
    frontend_depth: int = 3
    #: Branch misprediction redirect penalty beyond resolution (cycles).
    mispredict_redirect: int = 2
    #: Pre-commit pointer synchronisation delay for multi-Slice VCores
    #: (Core Fusion style distributed ROB, Section 3.7).
    precommit_sync: int = 3
    #: Model link-level contention on the operand network.
    model_contention: bool = False
    #: Number of parallel operand networks (ablation: the paper found a
    #: second network buys only ~1%, Section 5.1).
    operand_network_channels: int = 1
    #: Fetch-to-Slice assignment: "pc" is the paper's static interleave
    #: ("the same PC is always fetched by the same Slice", Section 3.1);
    #: "dynamic" rotates by dynamic position, which scatters each static
    #: branch across Slices' predictors (ablation).
    fetch_assignment: str = "pc"
    #: Conservative ordered LSQ (ablation): loads wait for every older
    #: store to resolve instead of issuing speculatively with
    #: violation-replay (the paper's unordered, late-binding design).
    ordered_lsq: bool = False
    max_cycles: int = 2_000_000
    #: Selects nothing: every run uses the one production core.  Kept,
    #: and kept in ``fingerprint()``, so callers that pass it and the
    #: engine's cache keys stay valid.
    backend: str = "python"

    def __post_init__(self) -> None:
        if self.fetch_assignment not in ("pc", "dynamic"):
            raise ValueError(
                f"fetch_assignment must be 'pc' or 'dynamic', "
                f"got {self.fetch_assignment!r}"
            )
        if self.backend not in ("python", "batched"):
            raise ValueError(
                f"backend must be 'python' or 'batched', "
                f"got {self.backend!r}"
            )

    def with_vcore(self, num_slices: int, l2_cache_kb: float) -> "SimConfig":
        """A copy of this config with a different VCore composition."""
        return replace(
            self, vcore=VCoreConfig(num_slices=num_slices, l2_cache_kb=l2_cache_kb)
        )

    def fingerprint(self) -> Dict[str, Any]:
        """Every result-affecting field as a stable, JSON-able mapping.

        Built by walking the dataclass fields *recursively*, so a field
        added to :class:`SliceConfig`, :class:`CacheConfig`,
        :class:`VCoreConfig` or :class:`SimConfig` itself automatically
        enters every result-cache key - a hand-maintained field list
        could silently alias results for configs differing only in a
        forgotten knob.
        """

        def _encode(value: Any) -> Any:
            if is_dataclass(value) and not isinstance(value, type):
                return {
                    f.name: _encode(getattr(value, f.name))
                    for f in fields(value)
                }
            if isinstance(value, (list, tuple)):
                return [_encode(v) for v in value]
            return value

        return _encode(self)

    # ------------------------------------------------------------------
    # XML interface (paper Section 5.2)
    # ------------------------------------------------------------------

    @classmethod
    def from_xml(cls, xml_text: str) -> "SimConfig":
        """Parse a SimConfig from SSim's XML configuration format.

        Example::

            <ssim>
              <slice issue_window_size="32" rob_size="64"/>
              <cache memory_delay="100"/>
              <vcore num_slices="4" l2_cache_kb="512"/>
              <timing global_rename_depth="2" frontend_depth="3"/>
            </ssim>

        An attribute that names no settable field raises ``ValueError``.
        """
        root = ET.fromstring(xml_text)
        if root.tag != "ssim":
            raise ValueError(f"expected <ssim> root, got <{root.tag}>")

        def _number(raw: str) -> Any:
            return float(raw) if "." in raw else int(raw)

        def _attrs(tag: str, owner: type, names, convert=_number):
            """``<tag>``'s attributes as keyword arguments of ``owner``."""
            elem = root.find(tag)
            attrib = elem.attrib if elem is not None else {}
            for key in attrib:
                if key not in names:
                    raise ValueError(
                        f"unknown {owner.__name__} field {key!r}")
            return {key: convert(raw) for key, raw in attrib.items()}

        def _names(dc_cls) -> set:
            return {f.name for f in fields(dc_cls)}

        nested = {"slice_config", "cache_config", "vcore"}
        return cls(
            slice_config=SliceConfig(
                **_attrs("slice", SliceConfig, _names(SliceConfig))),
            cache_config=CacheConfig(
                **_attrs("cache", CacheConfig, {"memory_delay"})),
            vcore=VCoreConfig(
                **_attrs("vcore", VCoreConfig, _names(VCoreConfig))),
            **_attrs("timing", cls, _names(cls) - nested, int),
        )

    def to_xml(self) -> str:
        """Serialise the VCore-level knobs back to the XML format."""
        root = ET.Element("ssim")
        ET.SubElement(
            root,
            "slice",
            issue_window_size=str(self.slice_config.issue_window_size),
            rob_size=str(self.slice_config.rob_size),
            lsq_size=str(self.slice_config.lsq_size),
        )
        ET.SubElement(
            root,
            "cache",
            memory_delay=str(self.cache_config.memory_delay),
        )
        ET.SubElement(
            root,
            "vcore",
            num_slices=str(self.vcore.num_slices),
            l2_cache_kb=str(self.vcore.l2_cache_kb),
        )
        ET.SubElement(
            root,
            "timing",
            global_rename_depth=str(self.global_rename_depth),
            frontend_depth=str(self.frontend_depth),
            mispredict_redirect=str(self.mispredict_redirect),
            precommit_sync=str(self.precommit_sync),
        )
        return ET.tostring(root, encoding="unicode")
