"""VCore composition: Slices + L2 banks + the three switched networks.

A VCore (paper Section 3) is "composed out of one or more Slices and zero
or more L2 Cache Banks".  Slices in a VCore must be contiguous (to bound
operand communication cost); cache banks may sit anywhere, and their
latency is modelled by distance (Table 3).  This module builds the
structural state the SSim cycle loop operates on.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from repro.core.config import SimConfig
from repro.network.topology import Mesh2D
from tests.oracles.objmodel.branch import BranchUnit
from tests.oracles.objmodel.dyninst import DynInst
from tests.oracles.objmodel.hierarchy import CacheHierarchy
from tests.oracles.objmodel.issue import SliceIssueStage
from tests.oracles.objmodel.l1 import L1Cache
from tests.oracles.objmodel.l2 import BankedL2
from tests.oracles.objmodel.lsq import DistributedLSQ
from tests.oracles.objmodel.mshr import MSHRFile
from tests.oracles.objmodel.rename import GlobalRenameState, LocalRegisterFile
from tests.oracles.objmodel.rob import DistributedROB
from tests.oracles.objmodel.storebuffer import StoreBuffer
from tests.oracles.objmodel.switched import SwitchedNetwork


@dataclass
class SliceContext:
    """All per-Slice structural state."""

    slice_id: int
    branch_unit: BranchUnit
    issue_stage: SliceIssueStage
    lrf: LocalRegisterFile
    l1i: L1Cache
    hierarchy: CacheHierarchy
    fetch_buffer: Deque[DynInst] = field(default_factory=deque)
    #: global reg -> cycle its value arrived at this Slice (LRF caching of
    #: remote operands, Section 3.2.2).
    operand_arrival: Dict[int, int] = field(default_factory=dict)


class VCore:
    """A configured Virtual Core ready for simulation."""

    def __init__(self, config: SimConfig):
        self.config = config
        s_cfg = config.slice_config
        v_cfg = config.vcore
        self.num_slices = v_cfg.num_slices

        # Slices sit contiguously on one mesh row (Section 3: "when Slices
        # are joined into a single VCore, those Slices need to be
        # contiguous").
        self.mesh = Mesh2D(width=max(1, self.num_slices), height=1)
        self.operand_network = SwitchedNetwork(
            self.mesh,
            name="son",
            model_contention=config.model_contention,
            channels=config.operand_network_channels,
        )
        self.ls_network = SwitchedNetwork(self.mesh, name="ls_sort")
        self.rename_network = SwitchedNetwork(self.mesh, name="rename")

        # Shared, banked L2 (zero banks = every L1 miss goes to memory).
        self.l2 = BankedL2(num_banks=v_cfg.num_l2_banks)

        cache_cfg = config.cache_config
        self.slices: List[SliceContext] = []
        for sid in range(self.num_slices):
            # Paper Section 3.5: "The L1 I-Cache cache line size is reduced
            # to accommodate two instructions" - 8 bytes at 4 bytes per
            # instruction - so each Slice caches exactly its interleaved
            # share of the code stream.
            l1i = L1Cache(
                name=f"s{sid}.l1i",
                size_bytes=int(cache_cfg.l1i.size_kb * 1024),
                line_size=2 * 4,
                assoc=cache_cfg.l1i.assoc,
                hit_latency=cache_cfg.l1i.hit_delay,
            )
            l1d = L1Cache(
                name=f"s{sid}.l1d",
                size_bytes=int(cache_cfg.l1d.size_kb * 1024),
                assoc=cache_cfg.l1d.assoc,
                hit_latency=cache_cfg.l1d.hit_delay,
            )
            hierarchy = CacheHierarchy(
                l1d=l1d,
                l2=self.l2,
                mshr=MSHRFile(capacity=s_cfg.max_inflight_loads),
                store_buffer=StoreBuffer(capacity=s_cfg.store_buffer_size),
                memory_latency=cache_cfg.memory_delay,
            )
            self.slices.append(
                SliceContext(
                    slice_id=sid,
                    branch_unit=BranchUnit(
                        predictor_entries=s_cfg.branch_predictor_entries,
                        btb_entries=s_cfg.btb_entries,
                        predictor_kind=s_cfg.predictor_kind,
                    ),
                    issue_stage=SliceIssueStage(
                        sid, window_size=s_cfg.issue_window_size
                    ),
                    lrf=LocalRegisterFile(capacity=s_cfg.num_local_registers),
                    l1i=l1i,
                    hierarchy=hierarchy,
                )
            )

        # "The global logical register space is sized for the maximum
        # number of Slices in a VCore" (Section 3.2): 8 Slices x 64 local
        # registers.  Table 2's 128 physical registers are the per-Slice
        # budget (64 LRF entries + renamed remote-operand storage).
        self.global_rename = GlobalRenameState(num_global=64 * 8)
        self.rob = DistributedROB(
            num_slices=self.num_slices,
            per_slice_capacity=s_cfg.rob_size,
            precommit_sync=config.precommit_sync,
        )
        self.lsq = DistributedLSQ(
            num_slices=self.num_slices, bank_capacity=s_cfg.lsq_size
        )

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def attach_obs(self, scope, tracer=None) -> None:
        """Attach every structural component to an observability scope.

        Layout (dotted paths under ``scope``): ``core.rob``,
        ``core.rename``, ``core.lsq.bank<i>``, ``core.slice<i>.{l1i,
        l1d, mshr, store_buffer, lrf}``, ``cache.l2[.bank<j>]`` and
        ``network.{son, ls_sort, rename}``.  ``tracer``, when given, is
        handed to the switched networks so message transit emits trace
        events.
        """
        from repro.obs.tracer import NULL_TRACER
        tracer = tracer if tracer is not None else NULL_TRACER

        core = scope.scope("core")
        self.rob.attach_obs(core.scope("rob"))
        self.global_rename.attach_obs(core.scope("rename"))
        self.lsq.attach_obs(core.scope("lsq"))
        for ctx in self.slices:
            s = core.scope(f"slice{ctx.slice_id}")
            ctx.l1i.attach_obs(s.scope("l1i"))
            ctx.hierarchy.attach_obs(s)
            ctx.lrf.attach_obs(s.scope("lrf"))
        self.l2.attach_obs(scope.scope("cache.l2"))
        for net in (self.operand_network, self.ls_network,
                    self.rename_network):
            net.attach_obs(scope.scope(f"network.{net.name}"), tracer=tracer)

    # ------------------------------------------------------------------
    # composition queries
    # ------------------------------------------------------------------

    def slice_for_fetch(self, pc: int) -> int:
        """Interleaved fetch assignment (Section 3.1).

        Fetch is interleaved by *static* position: each Slice fetches two
        contiguous instructions, so "the same PC is always fetched by the
        same Slice" and every static branch trains exactly one Slice's
        predictor.
        """
        width = self.config.slice_config.fetch_width
        return (pc // width) % self.num_slices

    def operand_latency(self, src_slice: int, dst_slice: int) -> int:
        """One-way SON latency between two Slices (2 cycles nearest
        neighbour, +1 per extra hop)."""
        return self.operand_network.latency(src_slice, dst_slice)

    def sort_latency(self, src_slice: int, home_slice: int) -> int:
        """Load/store sorting network latency."""
        return self.ls_network.latency(src_slice, home_slice)

    @property
    def l2_cache_kb(self) -> float:
        return self.l2.size_kb

    def flush_for_reconfiguration(self) -> int:
        """Flush all dirty cache state; returns dirty lines written back."""
        total = 0
        for ctx in self.slices:
            total += ctx.hierarchy.flush_all()
            ctx.operand_arrival.clear()
            ctx.lrf.flush_remote_cache()
        return total
