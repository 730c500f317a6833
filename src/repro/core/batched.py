"""Structure-of-arrays simulator core: the production SSim.

:class:`~repro.core.simulator.SharingSimulator` runs one lane of a
:class:`BatchedSimulator` per configuration, and
:func:`~repro.sampling.simulate_sampled` one lane of
:meth:`BatchedSimulator.run_sampled`.  A batch can also advance *many
VCore configurations* over shared, materialized trace columns: the
configurations form a leading ``lane`` axis, with one structure per
pipeline resource (ROB/LSQ occupancy in :class:`BatchedROB` /
:class:`BatchedLSQ`, branch-predictor counter and BTB tables) and flat
per-lane columns for the per-instruction pipeline state that the object
model keeps in ``DynInst`` objects.

The object model :class:`~repro.core.simulator.ReferenceSimulator` is
the equivalence reference: every statistic in
:class:`~repro.core.stats.SimStats` is reproduced *bit-for-bit* per
lane, enforced by ``tests/core/test_batched_equivalence`` and the golden
fixtures.

Where the speed comes from
--------------------------

* **Flat workload columns** - every lane of a trace walks one set of
  precomputed columns (PCs, packed flags, live sources, home/fetch
  Slice maps, cached on the trace) instead of chasing ``Instruction``
  property chains.
* **Shared warmup** - cache-warm state is computed once per
  (trace, num_slices) group and copied into each lane.
* **De-objectified pipeline** - per-instruction state lives in flat
  per-lane columns indexed by sequence number (epoch counters replace
  object identity across squash/refetch), and the per-cycle
  ``hierarchy.tick`` is applied lazily: MSHR retirement and store-buffer
  drains are caught up only when a Slice's memory system is next
  observed, which is exact because both are pure functions of the cycle
  number.

The speed is per lane: a multi-lane grid saves only the shared warmup
(DESIGN.md §12), so production runs one lane per configuration.

Divergence handling
-------------------

Lanes are fully independent (one stalling lane never blocks another):
each keeps its own ``now`` and the driver advances lanes in bounded
chunks, so "lockstep" is a scheduling policy rather than a correctness
constraint.  Two structures are deliberately kept as exact Python ports
rather than tensors because their *iteration order is observable* in the
reference: the LRF remote-operand cache (``next(iter(set))`` eviction)
and the cache LRU lists (dict/list ordering).  Reproducing the same
operation sequence on the same container types reproduces the same
victims, which is what bit-identity requires.

Restrictions: ``repro.obs`` instrumentation is not supported (run
:class:`~repro.core.simulator.ReferenceSimulator`, or ``simulate()``
with an enabled ``obs``, for instrumented runs); lanes always use the
default ring-packed L2 bank distances, so a config that sets
``VCoreConfig.l2_bank_distances`` is rejected.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cache.l1 import L1_LINE_BYTES
from repro.cache.l2 import (
    L2_ASSOC,
    L2_BANK_BYTES,
    L2_BASE_LATENCY,
    L2_CYCLES_PER_DISTANCE,
    L2_LINE_BYTES,
    default_bank_distances,
)
from repro.core.config import SimConfig, VCoreConfig
from repro.core.rename import rename_pipeline_depth
from repro.core.simulator import SimResult, SimulationTimeout
from repro.core.stats import SimStats, StallBreakdown
from repro.trace.records import Trace

#: Packed per-instruction flag bits (superset of trace.materialize's).
F_BRANCH = 1
F_TAKEN = 2
F_LOAD = 4
F_STORE = 8
F_MEM = F_LOAD | F_STORE
F_MUL = 16
F_WRITES = 32

#: LSQ/MSHR/store-buffer line size (fixed at 64 in the scalar model).
_LSQ_LINE = 64
#: L2 bank geometry (fixed; see repro.cache.l2).
_L2_SETS = (L2_BANK_BYTES // L2_LINE_BYTES) // L2_ASSOC


# ======================================================================
# shared trace columns
# ======================================================================


class _TraceColumns:
    """Flat per-instruction columns shared by every lane of one trace.

    Extends :class:`~repro.trace.materialize.TraceArrays` with the
    rename-visible fields (live sources, destination register) and
    memoized Slice-assignment maps, so the batched pipeline never touches
    ``Instruction`` objects.  Built once and cached on the trace.
    """

    __slots__ = ("length", "pcs", "pc4", "addrs", "lines", "flags",
                 "targets", "srcs", "dst", "max_arch",
                 "_sid_cache", "_home_cache")

    def __init__(self, trace: Trace) -> None:
        n = len(trace)
        self.length = n
        pcs: List[int] = [0] * n
        pc4: List[int] = [0] * n
        addrs: List[int] = [-1] * n
        lines: List[int] = [-1] * n
        flags: List[int] = [0] * n
        targets: List[int] = [-1] * n
        srcs: List[Tuple[int, ...]] = [()] * n
        dst: List[int] = [-1] * n
        from repro.isa import OpClass

        for i, inst in enumerate(trace):
            pc = inst.pc
            pcs[i] = pc
            pc4[i] = pc * 4
            bits = 0
            oc = inst.op_class
            if inst.mem is not None:
                addr = inst.mem.address
                addrs[i] = addr
                lines[i] = addr // _LSQ_LINE
                bits |= F_STORE if oc is OpClass.STORE else F_LOAD
            elif oc is OpClass.BRANCH:
                bits |= F_BRANCH
                if inst.taken:
                    bits |= F_TAKEN
            elif oc is OpClass.MUL:
                bits |= F_MUL
            if inst.writes_register:
                bits |= F_WRITES
                dst[i] = inst.dst
            flags[i] = bits
            if inst.target is not None:
                targets[i] = inst.target
            live = inst.live_srcs()
            if live:
                srcs[i] = live
        self.pcs = pcs
        self.pc4 = pc4
        self.addrs = addrs
        self.lines = lines
        self.flags = flags
        self.targets = targets
        self.srcs = srcs
        self.dst = dst
        # Architectural register space bound (RAT array sizing).
        ma = 0
        for i in range(n):
            if dst[i] > ma:
                ma = dst[i]
            for s in srcs[i]:
                if s > ma:
                    ma = s
        self.max_arch = ma
        self._sid_cache: Dict[Tuple[int, int, bool], List[int]] = {}
        self._home_cache: Dict[int, List[int]] = {}

    def sids(self, num_slices: int, fetch_width: int,
             by_pc: bool) -> List[int]:
        """Fetch-Slice of each instruction under one assignment policy."""
        key = (num_slices, fetch_width, by_pc)
        col = self._sid_cache.get(key)
        if col is None:
            if by_pc:
                col = [(pc // fetch_width) % num_slices for pc in self.pcs]
            else:
                col = [(i // fetch_width) % num_slices
                       for i in range(self.length)]
            self._sid_cache[key] = col
        return col

    def homes(self, num_slices: int) -> List[int]:
        """Home (LSQ/L1D) Slice of each memory op; -1 for non-memory."""
        col = self._home_cache.get(num_slices)
        if col is None:
            col = [line % num_slices if line >= 0 else -1
                   for line in self.lines]
            self._home_cache[num_slices] = col
        return col


def trace_columns(trace: Trace) -> _TraceColumns:
    """The trace's batched columns, built once and cached on it."""
    cols = getattr(trace, "_soa_columns", None)
    if cols is None or cols.length != len(trace):
        cols = _TraceColumns(trace)
        trace._soa_columns = cols  # type: ignore[attr-defined]
    return cols


# ======================================================================
# SoA pipeline structures (property-tested against rob.py / lsq.py)
# ======================================================================


class BatchedROB:
    """Distributed ROB over a lane axis: one occupancy tensor + one
    program-ordered seq window per lane.

    Mirrors :class:`~repro.core.rob.DistributedROB` exactly: dispatch
    admission is per-(lane, slice) occupancy against ``per_slice_capacity``,
    commit pops the per-lane head in program order, and squash walks the
    tail youngest-first.
    """

    def __init__(self, num_lanes: int, max_slices: int,
                 per_slice_capacity: int) -> None:
        self.per_slice_capacity = per_slice_capacity
        #: occupancy[lane][slice] - instructions in flight per Slice.
        #: Plain nested lists on the hot path; ``occupancy_tensor()``
        #: exports the (lane, slice) numpy view.
        self.occupancy = [[0] * max_slices for _ in range(num_lanes)]
        #: per-lane in-flight window, program (seq) order.
        self.windows: List[deque] = [deque() for _ in range(num_lanes)]

    def occupancy_tensor(self) -> np.ndarray:
        return np.asarray(self.occupancy, dtype=np.int64)

    def can_dispatch(self, lane: int, slice_id: int) -> bool:
        return self.occupancy[lane][slice_id] < self.per_slice_capacity

    def dispatch(self, lane: int, slice_id: int, seq: int) -> None:
        window = self.windows[lane]
        if window and window[-1] >= seq:
            raise ValueError("ROB dispatch out of program order")
        window.append(seq)
        self.occupancy[lane][slice_id] += 1

    def head(self, lane: int) -> int:
        window = self.windows[lane]
        return window[0] if window else -1

    def pop_head(self, lane: int, slice_id: int) -> int:
        self.occupancy[lane][slice_id] -= 1
        return self.windows[lane].popleft()

    def squash_younger(self, lane: int, seq: int,
                       slice_of: Sequence[int]) -> List[int]:
        """Pop every entry younger than ``seq``; youngest-first list."""
        window = self.windows[lane]
        occupancy = self.occupancy[lane]
        squashed: List[int] = []
        while window and window[-1] > seq:
            victim = window.pop()
            occupancy[slice_of[victim]] -= 1
            squashed.append(victim)
        return squashed

    def __len__(self) -> int:  # total in flight, all lanes
        return sum(map(sum, self.occupancy))


class BatchedLSQ:
    """Address-banked LSQ over a lane axis: occupancy tensor + per-bank
    entry maps ``seq -> [is_store, line, resolved_cycle, forwarded_from]``
    (``forwarded_from`` is -1 when unset, standing in for the scalar
    ``None``).

    Mirrors :class:`~repro.core.lsq.LSQBank` exactly, including the
    ``force`` over-capacity admission, the max-seq forwarding search and
    the store-commit violation filter.
    """

    def __init__(self, num_lanes: int, slice_counts: Sequence[int],
                 bank_capacity: int) -> None:
        self.bank_capacity = bank_capacity
        max_banks = max(slice_counts)
        self.occupancy = [[0] * max_banks for _ in range(num_lanes)]
        self.banks: List[List[Dict[int, List[int]]]] = [
            [{} for _ in range(count)] for count in slice_counts
        ]

    def occupancy_tensor(self) -> np.ndarray:
        return np.asarray(self.occupancy, dtype=np.int64)

    def full(self, lane: int, bank: int) -> bool:
        return len(self.banks[lane][bank]) >= self.bank_capacity

    def insert(self, lane: int, bank: int, seq: int, is_store: bool,
               line: int, resolved_cycle: int,
               force: bool = False) -> bool:
        entries = self.banks[lane][bank]
        if len(entries) >= self.bank_capacity and not force:
            return False
        entries[seq] = [is_store, line, resolved_cycle, -1]
        self.occupancy[lane][bank] += 1
        return True

    def find_forwarding_store(self, lane: int, bank: int, load_seq: int,
                              line: int, before_cycle: int) -> int:
        """Youngest older same-line store resolved in time, else -1."""
        best = -1
        for seq, entry in self.banks[lane][bank].items():
            if (entry[0] and seq < load_seq and entry[1] == line
                    and entry[2] <= before_cycle and seq > best):
                best = seq
        return best

    def check_store_commit(self, lane: int, bank: int, store_seq: int,
                           line: int) -> List[int]:
        """Younger same-line loads that did not forward from this store."""
        return [seq for seq, entry in self.banks[lane][bank].items()
                if not entry[0] and seq > store_seq and entry[1] == line
                and entry[3] < store_seq]

    def remove(self, lane: int, bank: int, seq: int) -> None:
        if self.banks[lane][bank].pop(seq, None) is not None:
            self.occupancy[lane][bank] -= 1

    def squash_younger(self, lane: int, seq: int) -> None:
        for bank, entries in enumerate(self.banks[lane]):
            victims = [s for s in entries if s > seq]
            for s in victims:
                del entries[s]
            self.occupancy[lane][bank] -= len(victims)


class _LRF:
    """Exact port of :class:`~repro.core.rename.LocalRegisterFile`.

    Kept as real Python sets on purpose: the scalar eviction picks
    ``next(iter(set))``, so the *container's* iteration order is part of
    the observable behaviour.  Identical operation sequences on identical
    set types reproduce identical victims.
    """

    __slots__ = ("capacity", "resident", "cached_remote")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.resident: set = set()
        self.cached_remote: set = set()

    def _evict_cached_remote(self) -> bool:
        cached = self.cached_remote
        if not cached:
            return False
        victim = next(iter(cached))
        cached.discard(victim)
        self.resident.discard(victim)
        return True

    def allocate_dst(self, global_reg: int) -> bool:
        resident = self.resident
        if global_reg in resident:
            return True
        if (len(resident) >= self.capacity
                and not self._evict_cached_remote()):
            return False
        resident.add(global_reg)
        return True

    def allocate_remote(self, global_reg: int) -> bool:
        resident = self.resident
        if global_reg in resident:
            return True
        if (len(resident) >= self.capacity
                and not self._evict_cached_remote()):
            return False
        resident.add(global_reg)
        self.cached_remote.add(global_reg)
        return True

    def release(self, global_reg: int) -> None:
        self.resident.discard(global_reg)
        self.cached_remote.discard(global_reg)


def _cache_touch(sets: Dict[int, List[int]], num_sets: int, assoc: int,
                 line: int) -> bool:
    """One set-associative LRU access/refill; True on hit.

    Same state evolution as ``repro.cache.setassoc`` (per-set LRU->MRU
    order, evict LRU on full miss), with the set map grown lazily.
    """
    idx = line % num_sets
    ways = sets.get(idx)
    if ways is None:
        sets[idx] = [line]
        return False
    if line in ways:
        if ways[-1] != line:
            ways.remove(line)
            ways.append(line)
        return True
    if len(ways) >= assoc:
        del ways[0]
    ways.append(line)
    return False


# ======================================================================
# one lane = one (trace, num_slices, l2_cache_kb) configuration
# ======================================================================


class _Lane:
    """All per-configuration state, flat and column-oriented."""

    __slots__ = (
        "index", "trace_index", "cols", "num_slices", "l2_kb",
        "sid", "home", "decode_latency", "commit_budget", "precommit",
        # cycle state
        "now", "fetch_ptr", "fetch_hw", "fetch_limit", "stall_until",
        "blocking", "next_seq", "ff_retired", "decode", "buf_count",
        # per-seq columns
        "ep", "sq", "comp", "disp", "ccyc", "rdy", "pend", "gdst",
        "prior", "ren", "pred",
        # rename / wakeup
        "rat", "rn_free", "producer_of", "waiters", "buckets",
        "unresolved", "op_arr", "lrf", "reg_slices",
        # issue / rob / lsq views
        "alu_w", "mem_w", "ready_alu", "ready_mem", "act",
        "rob_w", "rob_c", "lsq_banks", "lsq_c",
        # predictor views
        "bp", "btb", "hist",
        # memory system
        "l1i_sets", "l1i_last", "l1i_memo", "l1d_sets", "l2_sets",
        "l2_nb", "l2_lat", "mshr", "sb", "sb_last", "full_banks",
        # counters (SimStats surface)
        "fetched", "committed", "squashed_count", "branches",
        "mispredicts", "l1i_acc", "l1i_miss", "l1d_acc", "l1d_miss",
        "l2_hits", "l2_misses", "operand_requests", "remote_hops",
        "lsq_violations", "store_forwards",
        "st_fetch_icache", "st_fetch_buffer", "st_fetch_redirect",
        "st_rob_full", "st_window_full", "st_freelist", "st_lrf_full",
        "st_issue_lsq_full",
    )


LaneSpec = Union[Tuple[int, float], Tuple[int, int, float]]


class BatchedSimulator:
    """Many VCore configurations over shared trace columns.

    ``traces`` is one :class:`Trace` or a sequence of them; ``lanes`` is
    a sequence of ``(num_slices, l2_cache_kb)`` pairs (single trace) or
    ``(trace_index, num_slices, l2_cache_kb)`` triples.  All lanes share
    one :class:`~repro.core.config.SimConfig` (grid sweeps vary only the
    VCore composition: a lane's Slice count and L2 size come from its
    spec, not from ``config.vcore``); each lane's results are
    bit-identical to a :class:`~repro.core.simulator.ReferenceSimulator`
    run with the same parameters.
    """

    def __init__(self, traces: Union[Trace, Sequence[Trace]],
                 lanes: Sequence[LaneSpec],
                 config: Optional[SimConfig] = None,
                 warmup_traces: Optional[Sequence[Optional[Trace]]] = None,
                 warmup_addresses: Optional[
                     Sequence[Optional[Sequence[int]]]] = None,
                 timeout: Optional[int] = None,
                 obs: Any = None) -> None:
        if obs is not None and getattr(obs, "enabled", False):
            raise ValueError(
                "the structure-of-arrays core does not support repro.obs "
                "instrumentation; run ReferenceSimulator (or simulate() "
                "with obs) for instrumented runs"
            )
        if isinstance(traces, Trace):
            traces = [traces]
        else:
            traces = list(traces)
        if not traces:
            raise ValueError("need at least one trace")
        if not lanes:
            raise ValueError("need at least one lane")
        cfg = config or SimConfig()
        if cfg.vcore.l2_bank_distances is not None:
            raise ValueError(
                "VCoreConfig.l2_bank_distances is not supported: lanes "
                "use the default ring-packed bank distances"
            )
        if timeout is not None:
            cfg = replace(cfg, max_cycles=timeout)
        self.config = cfg
        self.traces = traces
        self.max_cycles = cfg.max_cycles

        s_cfg = cfg.slice_config
        c_cfg = cfg.cache_config
        self.fetch_width = s_cfg.fetch_width
        self.buffer_cap = s_cfg.instruction_buffer_size
        self.commit_width = s_cfg.commit_width
        self.mul_latency = s_cfg.mul_latency
        self.rob_cap = s_cfg.rob_size
        self.lsq_cap = s_cfg.lsq_size
        self.win_cap = s_cfg.issue_window_size
        self.lrf_cap = s_cfg.num_local_registers
        self.sb_cap = s_cfg.store_buffer_size
        self.mshr_cap = s_cfg.max_inflight_loads
        self.num_global = 64 * 8
        self.bp_entries = s_cfg.branch_predictor_entries
        self.btb_entries = s_cfg.btb_entries
        self.gshare = s_cfg.predictor_kind == "gshare"
        self.hist_mask = (1 << 8) - 1  # GSharePredictor history_bits=8
        self.redirect = cfg.mispredict_redirect
        self.ordered_lsq = cfg.ordered_lsq
        self.by_pc = cfg.fetch_assignment == "pc"
        self.mem_delay = c_cfg.memory_delay
        self.l1i_line = 2 * 4  # VCore: fetch-width instructions per line
        self.l1i_assoc = c_cfg.l1i.assoc
        self.l1i_sets_n = max(1, int(c_cfg.l1i.size_kb * 1024)
                              // self.l1i_line // self.l1i_assoc)
        self.l1i_hit = c_cfg.l1i.hit_delay
        # Fixed like the object model's L1D, MSHR and store-buffer lines:
        # ``CacheLevelConfig.block_bytes`` reaches neither core.
        self.l1d_line = L1_LINE_BYTES
        self.l1d_assoc = c_cfg.l1d.assoc
        self.l1d_sets_n = max(1, int(c_cfg.l1d.size_kb * 1024)
                              // self.l1d_line // self.l1d_assoc)
        self.l1d_hit = c_cfg.l1d.hit_delay

        specs: List[Tuple[int, int, float]] = []
        for spec in lanes:
            if len(spec) == 2:
                tidx, (ns, kb) = 0, spec  # type: ignore[misc]
            else:
                tidx, ns, kb = spec  # type: ignore[misc]
            if not 0 <= tidx < len(traces):
                raise ValueError(f"trace index {tidx} out of range")
            # Reuse the scalar path's validation (Equation 3 ranges).
            VCoreConfig(num_slices=int(ns), l2_cache_kb=float(kb))
            specs.append((int(tidx), int(ns), float(kb)))
        num_lanes = len(specs)
        slice_counts = [ns for _, ns, _ in specs]
        max_slices = max(slice_counts)

        self.rob = BatchedROB(num_lanes, max_slices, self.rob_cap)
        self.lsq = BatchedLSQ(num_lanes, slice_counts, self.lsq_cap)
        self._max_slices = max_slices

        self._cols = [trace_columns(t) for t in traces]
        self._warm_state: Dict[Tuple[int, int], Tuple[
            List[Dict[int, List[int]]], List[Dict[int, List[int]]],
            List[int]]] = {}
        if warmup_traces is not None and len(warmup_traces) != len(traces):
            raise ValueError("one warmup trace (or None) per trace")
        if (warmup_addresses is not None
                and len(warmup_addresses) != len(traces)):
            raise ValueError("one warmup address stream (or None) per trace")
        self._warmup_traces = warmup_traces
        self._warmup_addresses = warmup_addresses

        self.lanes = [self._make_lane(i, spec)
                      for i, spec in enumerate(specs)]

    def pred_tensor(self) -> np.ndarray:
        """(lane, slice, entry) predictor counters; unused Slices pad 1."""
        out = np.full((len(self.lanes), self._max_slices, self.bp_entries),
                      1, dtype=np.int8)
        for i, lane in enumerate(self.lanes):
            out[i, :lane.num_slices] = lane.bp
        return out

    def btb_tensor(self) -> np.ndarray:
        """(lane, slice, entry) BTB targets; -1 = no entry."""
        out = np.full((len(self.lanes), self._max_slices,
                       self.btb_entries), -1, dtype=np.int64)
        for i, lane in enumerate(self.lanes):
            out[i, :lane.num_slices] = lane.btb
        return out

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _warm_group(self, tidx: int, ns: int) -> Tuple[
            List[Dict[int, List[int]]], List[Dict[int, List[int]]],
            List[int]]:
        """Warm L1 state + ordered L2 access stream for (trace, ns).

        Replays the scalar warmup exactly once per group; lanes copy the
        L1 dictionaries and replay the L2 stream into their own banks
        (bank count differs per lane, L1 filtering does not).
        """
        key = (tidx, ns)
        cached = self._warm_state.get(key)
        if cached is not None:
            return cached
        l1i: List[Dict[int, List[int]]] = [{} for _ in range(ns)]
        l1d: List[Dict[int, List[int]]] = [{} for _ in range(ns)]
        stream: List[int] = []
        fw = self.fetch_width
        l1i_n, l1i_a = self.l1i_sets_n, self.l1i_assoc
        l1d_n, l1d_a = self.l1d_sets_n, self.l1d_assoc
        l1d_line = self.l1d_line
        wt = self._warmup_traces[tidx] if self._warmup_traces else None
        if wt is not None:
            # _warm_caches: pc-interleaved L1I (misses stop at L1I),
            # home-slice L1D with misses falling through to L2.
            for inst in wt:
                pc = inst.pc
                sid = (pc // fw) % ns
                _cache_touch(l1i[sid], l1i_n, l1i_a, (pc * 4) // 8)
                if inst.mem is not None:
                    addr = inst.mem.address
                    home = (addr // _LSQ_LINE) % ns
                    if not _cache_touch(l1d[home], l1d_n, l1d_a,
                                        addr // l1d_line):
                        stream.append(addr)
        wa = (self._warmup_addresses[tidx]
              if self._warmup_addresses else None)
        if wa is not None:
            # _warm_data_caches: read stream through home L1Ds, then the
            # timed region's own PC stream through the L1Is; both fall
            # through to the (shared) L2 on miss.
            for addr in wa:
                home = (addr // _LSQ_LINE) % ns
                if not _cache_touch(l1d[home], l1d_n, l1d_a,
                                    addr // l1d_line):
                    stream.append(addr)
            cols = self._cols[tidx]
            for pc4 in cols.pc4:
                sid = (pc4 // 4 // fw) % ns
                if not _cache_touch(l1i[sid], l1i_n, l1i_a, pc4 // 8):
                    stream.append(pc4)
        result = (l1i, l1d, stream)
        self._warm_state[key] = result
        return result

    def _make_lane(self, index: int, spec: Tuple[int, int, float]) -> _Lane:
        tidx, ns, kb = spec
        cols = self._cols[tidx]
        lane = _Lane()
        lane.index = index
        lane.trace_index = tidx
        lane.cols = cols
        lane.num_slices = ns
        nb = int(round(kb / 64.0))
        lane.l2_nb = nb
        lane.l2_kb = nb * L2_BANK_BYTES / 1024
        lane.l2_lat = [d * L2_CYCLES_PER_DISTANCE + L2_BASE_LATENCY
                       for d in default_bank_distances(nb)]
        lane.sid = cols.sids(ns, self.fetch_width, self.by_pc)
        lane.home = cols.homes(ns)
        lane.decode_latency = (self.config.frontend_depth
                               + rename_pipeline_depth(
                                   ns,
                                   global_extra=self.config
                                   .global_rename_depth))
        lane.commit_budget = self.commit_width * ns
        lane.precommit = self.config.precommit_sync if ns > 1 else 0

        lane.now = 0
        lane.fetch_ptr = 0
        lane.fetch_hw = 0
        lane.fetch_limit = cols.length
        lane.stall_until = 0
        lane.blocking = None
        lane.next_seq = 0
        lane.ff_retired = 0
        lane.decode = deque()
        lane.buf_count = [0] * ns

        n = cols.length
        lane.ep = [0] * n
        lane.sq = bytearray(n)
        lane.comp = [-1] * n
        lane.disp = [-1] * n
        lane.ccyc = [-1] * n
        lane.rdy = [0] * n
        lane.pend = [0] * n
        lane.gdst = [-1] * n
        lane.prior = [-1] * n
        lane.ren = [0] * n
        lane.pred = bytearray(n)

        # Rename state as flat arrays (-1 = unmapped / no producer /
        # no cached arrival; None = no consumer-slice record): the key
        # spaces are small and dense, so array indexing replaces the
        # scalar's dict lookups with identical observable behaviour.
        lane.rat = [-1] * (cols.max_arch + 1)
        # GlobalRenameState: pops from the tail, so regs allocate 0,1,2...
        lane.rn_free = list(range(self.num_global - 1, -1, -1))
        lane.producer_of = [-1] * self.num_global
        lane.waiters = {}
        lane.buckets = {}
        lane.unresolved = set()
        lane.op_arr = [[-1] * self.num_global for _ in range(ns)]
        lane.lrf = [_LRF(self.lrf_cap) for _ in range(ns)]
        lane.reg_slices = [None] * self.num_global

        lane.alu_w = [[] for _ in range(ns)]
        lane.mem_w = [[] for _ in range(ns)]
        # Event-driven issue: per-Slice seq-sorted lists of (seq, epoch)
        # entries whose operands are ready (pend == 0, rdy <= now), plus
        # the cycle -> [(seq, epoch)] activation buckets that feed them.
        # Entries are validated against sq/ep on read (like ``buckets``),
        # so squashes filter lazily.
        lane.ready_alu = [[] for _ in range(ns)]
        lane.ready_mem = [[] for _ in range(ns)]
        lane.act = {}
        lane.rob_w = self.rob.windows[index]
        lane.rob_c = self.rob.occupancy[index]
        lane.lsq_banks = self.lsq.banks[index]
        lane.lsq_c = self.lsq.occupancy[index]
        # Predictor state per (slice): 2-bit counters init 1 (weak NT)
        # and BTB targets (-1 = no entry).  Plain lists on the hot path;
        # ``pred_tensor()`` / ``btb_tensor()`` export the (lane, slice,
        # entry) numpy views.
        lane.bp = [[1] * self.bp_entries for _ in range(ns)]
        lane.btb = [[-1] * self.btb_entries for _ in range(ns)]
        lane.hist = [0] * ns

        # Shared warm state: copy L1 dicts, replay the L2 miss stream
        # into this lane's own banks (uncounted, like the scalar warmup
        # which resets counters afterwards).
        l1i, l1d, stream = self._warm_group(tidx, ns)
        lane.l1i_sets = [{idx: list(ways) for idx, ways in sets.items()}
                         for sets in l1i]
        lane.l1d_sets = [{idx: list(ways) for idx, ways in sets.items()}
                         for sets in l1d]
        lane.l2_sets = [{} for _ in range(nb)]
        if nb:
            l2_sets = lane.l2_sets
            for addr in stream:
                line = addr // L2_LINE_BYTES
                _cache_touch(l2_sets[line % nb], _L2_SETS, L2_ASSOC,
                             line // nb)
        lane.mshr = [{} for _ in range(ns)]
        lane.sb = [deque() for _ in range(ns)]
        lane.sb_last = [-1] * ns
        lane.full_banks = 0
        lane.l1i_last = [-1] * ns
        # The repeat-pair memo assumes the access line and its prefetch
        # line (always ``a`` and ``a + ns``) live in different L1I sets,
        # so a repeat cannot have been evicted by its own prefetch.
        lane.l1i_memo = ns % self.l1i_sets_n != 0

        lane.fetched = 0
        lane.committed = 0
        lane.squashed_count = 0
        lane.branches = 0
        lane.mispredicts = 0
        lane.l1i_acc = 0
        lane.l1i_miss = 0
        lane.l1d_acc = 0
        lane.l1d_miss = 0
        lane.l2_hits = 0
        lane.l2_misses = 0
        lane.operand_requests = 0
        lane.remote_hops = 0
        lane.lsq_violations = 0
        lane.store_forwards = 0
        lane.st_fetch_icache = 0
        lane.st_fetch_buffer = 0
        lane.st_fetch_redirect = 0
        lane.st_rob_full = 0
        lane.st_window_full = 0
        lane.st_freelist = 0
        lane.st_lrf_full = 0
        lane.st_issue_lsq_full = 0
        return lane

    # ------------------------------------------------------------------
    # lazy memory-system background work
    # ------------------------------------------------------------------

    def _catch_up_ticks(self, lane: _Lane, sid: int, now: int) -> None:
        """Apply the store-buffer drains of cycles ``(last, now-1]``.

        The scalar model drains at most one buffered store per Slice per
        cycle (each drain is a *counted* L1D write access); the drain
        cycle of the head is ``max(previous_drain + 1, commit_cycle + 1)``,
        a pure function of cycle numbers, so it can be replayed exactly
        whenever the Slice's memory system is next observed.
        """
        upto = now - 1
        last = lane.sb_last[sid]
        if upto <= last:
            return
        sb = lane.sb[sid]
        if sb:
            sets = lane.l1d_sets[sid]
            n_sets, assoc = self.l1d_sets_n, self.l1d_assoc
            l1d_line = self.l1d_line
            while sb:
                addr, commit = sb[0]
                t = commit + 1
                if t <= last:
                    t = last + 1
                if t > upto:
                    break
                sb.popleft()
                lane.l1d_acc += 1
                if not _cache_touch(sets, n_sets, assoc, addr // l1d_line):
                    lane.l1d_miss += 1
                last = t
        lane.sb_last[sid] = upto

    def _l2_access(self, lane: _Lane, addr: int) -> Tuple[bool, int]:
        nb = lane.l2_nb
        if not nb:
            return False, 0
        line = addr // L2_LINE_BYTES
        bank = line % nb
        hit = _cache_touch(lane.l2_sets[bank], _L2_SETS, L2_ASSOC,
                           line // nb)
        if hit:
            lane.l2_hits += 1
        else:
            lane.l2_misses += 1
        return hit, lane.l2_lat[bank]

    def _hier_access(self, lane: _Lane, sid: int, addr: int,
                     t: int, now: int) -> int:
        """CacheHierarchy.access for a load issued at cycle ``t``.

        ``now`` is the simulator's current cycle: background ticks are
        caught up to it first (MSHR entries with fill < now would have
        been retired; store-buffer drains through now-1 are replayed).
        """
        self._catch_up_ticks(lane, sid, now)
        l1d_line = self.l1d_line
        sb = lane.sb[sid]
        if sb:
            line = addr // l1d_line
            for buffered_addr, _ in sb:
                if buffered_addr // l1d_line == line:
                    return t + self.l1d_hit
        mshr = lane.mshr[sid]
        if mshr:
            stale = [l for l, fill in mshr.items() if fill < now]
            for l in stale:
                del mshr[l]
        mshr_line = addr // _LSQ_LINE
        in_flight = mshr.get(mshr_line)
        sets = lane.l1d_sets[sid]
        if in_flight is not None:
            # Secondary miss: merge as a waiter; the L1D access still
            # counts and touches LRU state.
            lane.l1d_acc += 1
            if not _cache_touch(sets, self.l1d_sets_n, self.l1d_assoc,
                                addr // l1d_line):
                lane.l1d_miss += 1
            ready = t + self.l1d_hit
            return in_flight if in_flight > ready else ready
        lane.l1d_acc += 1
        if _cache_touch(sets, self.l1d_sets_n, self.l1d_assoc,
                        addr // l1d_line):
            return t + self.l1d_hit
        lane.l1d_miss += 1
        l2_hit, l2_lat = self._l2_access(lane, addr)
        fill = t + self.l1d_hit + l2_lat
        if not l2_hit:
            fill += self.mem_delay
        if len(mshr) >= self.mshr_cap:
            retry = min(mshr.values())
            return (retry if retry > fill else fill) + 1
        mshr[mshr_line] = fill
        return fill

    # ------------------------------------------------------------------
    # pipeline events
    # ------------------------------------------------------------------

    def _operand_arrival(self, lane: _Lane, producer: int, consumer: int,
                         t: int) -> int:
        sid = lane.sid
        p_slice = sid[producer]
        c_slice = sid[consumer]
        if p_slice == c_slice:
            return t
        reg = lane.gdst[producer]
        op_arr = lane.op_arr[c_slice]
        if reg >= 0:
            cached = op_arr[reg]
            if cached >= 0:
                return t if t >= cached else cached
        hops = p_slice - c_slice
        if hops < 0:
            hops = -hops
        hop_latency = 1 + hops
        request_arrives = lane.disp[consumer] + hop_latency
        arrival = (t if t >= request_arrives else request_arrives) \
            + hop_latency
        lane.operand_requests += 1
        lane.remote_hops += hops
        if reg >= 0:
            op_arr[reg] = arrival
            # Remember which slices cached this register so release
            # only touches those (a no-op everywhere else in the scalar).
            slices = lane.reg_slices[reg]
            if slices is None:
                lane.reg_slices[reg] = [c_slice]
            else:
                slices.append(c_slice)
            lane.lrf[c_slice].allocate_remote(reg)
        return arrival

    def _resolve_branch(self, lane: _Lane, seq: int, t: int) -> None:
        sid = lane.sid[seq]
        pc = lane.cols.pcs[seq]
        taken = bool(lane.cols.flags[seq] & F_TAKEN)
        bp = lane.bp
        if self.gshare:
            index = (pc ^ lane.hist[sid]) % self.bp_entries
        else:
            index = pc % self.bp_entries
        row = bp[sid]
        counter = row[index]
        if taken:
            if counter < 3:
                row[index] = counter + 1
        elif counter > 0:
            row[index] = counter - 1
        if self.gshare:
            lane.hist[sid] = (((lane.hist[sid] << 1) | int(taken))
                              & self.hist_mask)
        target = lane.cols.targets[seq]
        if taken and target >= 0:
            lane.btb[sid][pc % self.btb_entries] = target
        if bool(lane.pred[seq]) != taken:
            lane.mispredicts += 1
            blocking = lane.blocking
            if (blocking is not None and blocking[0] == seq
                    and blocking[1] == lane.ep[seq]):
                lane.blocking = None
                redirect = t + self.redirect
                if redirect > lane.stall_until:
                    lane.stall_until = redirect

    def _predict(self, lane: _Lane, sid: int, pc: int) -> bool:
        """BranchUnit.predict: direction counter gated by BTB presence."""
        if self.gshare:
            index = (pc ^ lane.hist[sid]) % self.bp_entries
        else:
            index = pc % self.bp_entries
        taken = lane.bp[sid][index] >= 2
        if taken and lane.btb[sid][pc % self.btb_entries] < 0:
            return False
        return taken

    def _commit_store(self, lane: _Lane, seq: int, now: int) -> bool:
        home = lane.home[seq]
        line = lane.cols.lines[seq]
        bank = lane.lsq_banks[home]
        violators = [load_seq for load_seq, entry in bank.items()
                     if not entry[0] and load_seq > seq
                     and entry[1] == line and entry[3] < seq
                     and entry[2] <= now]
        if violators:
            oldest = min(violators)
            lane.lsq_violations += len(violators)
            self._replay_from(lane, oldest, now)
        self._catch_up_ticks(lane, home, now)
        sb = lane.sb[home]
        if len(sb) >= self.sb_cap:
            return False
        sb.append((lane.cols.addrs[seq], now))
        del bank[seq]
        lane.lsq_c[home] -= 1
        if len(bank) == self.lsq_cap - 1:
            lane.full_banks -= 1
        return True

    def _replay_from(self, lane: _Lane, victim: int, now: int) -> None:
        """Memory-order violation: squash and refetch from ``victim``."""
        limit = victim - 1
        rob_w = lane.rob_w
        rob_c = lane.rob_c
        sid = lane.sid
        sq = lane.sq
        squashed: List[int] = []
        while rob_w and rob_w[-1] > limit:
            seq = rob_w.pop()
            rob_c[sid[seq]] -= 1
            sq[seq] = 1
            squashed.append(seq)
        rat = lane.rat
        free = lane.rn_free
        producer_of = lane.producer_of
        gdst = lane.gdst
        prior = lane.prior
        dst = lane.cols.dst
        num_slices = lane.num_slices
        reg_slices = lane.reg_slices
        for seq in squashed:
            reg = gdst[seq]
            if reg >= 0:
                # GlobalRenameState.rollback: restore the RAT (the -1
                # sentinel stands in for the scalar's del), then release
                # the squashed physical register.
                rat[dst[seq]] = prior[seq]
                free.append(reg)
                producer_of[reg] = -1
                slices = reg_slices[reg]
                if slices is not None:
                    reg_slices[reg] = None
                    for s in slices:
                        lane.op_arr[s][reg] = -1
                        lane.lrf[s].release(reg)
                lane.lrf[sid[seq]].release(reg)
        for s in range(num_slices):
            lane.alu_w[s] = [q for q in lane.alu_w[s] if q <= limit]
            lane.mem_w[s] = [q for q in lane.mem_w[s] if q <= limit]
        decode = lane.decode
        buf_count = lane.buf_count
        while decode and decode[-1] >= victim:
            seq = decode.pop()
            sq[seq] = 1
            buf_count[sid[seq]] -= 1
        lsq_c = lane.lsq_c
        lsq_cap = self.lsq_cap
        for s, bank in enumerate(lane.lsq_banks):
            victims = [q for q in bank if q > limit]
            if victims:
                was_full = len(bank) >= lsq_cap
                for q in victims:
                    del bank[q]
                lsq_c[s] -= len(victims)
                if was_full and len(bank) < lsq_cap:
                    lane.full_banks -= 1
        unresolved = lane.unresolved
        if unresolved:
            stale = [q for q in unresolved if q >= victim]
            for q in stale:
                unresolved.discard(q)
        lane.squashed_count += len(squashed)
        blocking = lane.blocking
        if blocking is not None and blocking[0] >= victim:
            lane.blocking = None
        lane.fetch_ptr = victim
        lane.next_seq = victim
        redirect = now + self.redirect
        if redirect > lane.stall_until:
            lane.stall_until = redirect

    def _unregister_waiters(self, lane: _Lane, seq: int,
                            producers: List[int]) -> None:
        """Back out a failed dispatch's wakeup registrations."""
        epoch = lane.ep[seq]
        waiters = lane.waiters
        for producer in set(producers):
            waiters[producer] = [
                entry for entry in waiters[producer]
                if entry[0] != seq or entry[1] != epoch
            ]

    # ------------------------------------------------------------------
    # the cycle loop
    # ------------------------------------------------------------------

    def _advance(self, lane: _Lane, target: int, max_steps: int) -> None:
        """Run one lane for up to ``max_steps`` cycles or until
        ``target`` instructions have committed."""
        max_cycles = self.max_cycles
        cols = lane.cols
        flags = cols.flags
        pcs = cols.pcs
        pc4s = cols.pc4
        sid_of = lane.sid
        comp = lane.comp
        rdy = lane.rdy
        pend = lane.pend
        sq = lane.sq
        ep = lane.ep
        buckets = lane.buckets
        rob_w = lane.rob_w
        decode = lane.decode
        buf_count = lane.buf_count
        num_slices = lane.num_slices
        fetch_width = self.fetch_width
        buffer_cap = self.buffer_cap
        mul_latency = self.mul_latency
        lsq_cap = self.lsq_cap
        precommit = lane.precommit
        commit_budget = lane.commit_budget
        decode_latency = lane.decode_latency
        ordered = self.ordered_lsq
        l1i_sets = lane.l1i_sets
        l1i_n = self.l1i_sets_n
        l1i_a = self.l1i_assoc
        ren = lane.ren

        ccyc = lane.ccyc
        gprior = lane.prior
        home_of = lane.home
        rob_c = lane.rob_c
        lsq_banks = lane.lsq_banks
        lsq_c = lane.lsq_c
        alu_windows = lane.alu_w
        mem_windows = lane.mem_w
        l1i_last = lane.l1i_last
        l1i_memo = lane.l1i_memo
        rob_cap = self.rob_cap
        win_cap = self.win_cap
        lrf_cap = self.lrf_cap
        rn_free = lane.rn_free
        rat = lane.rat
        producer_of = lane.producer_of
        disp = lane.disp
        waiters = lane.waiters
        srcs_col = cols.srcs
        dst_col = cols.dst
        gdst = lane.gdst
        rdy = lane.rdy
        lrfs = lane.lrf
        unresolved_set = lane.unresolved
        ready_alu = lane.ready_alu
        ready_mem = lane.ready_mem
        act = lane.act
        reg_slices = lane.reg_slices
        op_arrs = lane.op_arr
        lines_col = cols.lines
        addrs_col = cols.addrs

        now = lane.now
        steps = 0
        while lane.committed < target and steps < max_steps:
            if now >= max_cycles:
                lane.now = now
                raise SimulationTimeout(
                    f"{lane.committed}/{target} committed after "
                    f"{now} cycles"
                )

            # ---- idle skip ----
            # Pipeline drained + fetch stalled on a redirect/miss window:
            # the only per-cycle effect until ``stall_until`` is one
            # fetch-redirect stall count, so those cycles batch.
            if (not rob_w and not decode and lane.blocking is None
                    and now < lane.stall_until):
                skip = lane.stall_until - now
                budget_left = max_steps - steps
                if skip > budget_left:
                    skip = budget_left
                if now + skip > max_cycles:
                    skip = max_cycles - now
                if skip > 0:
                    lane.st_fetch_redirect += skip
                    now += skip
                    steps += skip
                    continue

            steps += 1

            # ---- complete ----
            # (_on_complete inlined: wakeup is a per-instruction event
            # on the hottest path.)
            batch = buckets.pop(now, None)
            if batch is not None:
                for seq, seq_ep in batch:
                    if sq[seq] or ep[seq] != seq_ep:
                        continue
                    t = comp[seq]
                    unresolved_set.discard(seq)
                    if flags[seq] & F_BRANCH:
                        self._resolve_branch(lane, seq, t)
                    waiting = waiters.pop(seq, None)
                    if waiting:
                        p_slice = sid_of[seq]
                        for consumer, consumer_ep in waiting:
                            if sq[consumer] or ep[consumer] != consumer_ep:
                                continue
                            if sid_of[consumer] == p_slice:
                                # Same-Slice forward: zero network
                                # latency, no operand-cache traffic.
                                arrival = t
                            else:
                                arrival = self._operand_arrival(
                                    lane, seq, consumer, t)
                            if arrival > rdy[consumer]:
                                rdy[consumer] = arrival
                            remaining = pend[consumer] - 1
                            pend[consumer] = remaining
                            if not remaining:
                                # Last operand: rdy is final; eligible
                                # this cycle -> ready list (issue runs
                                # later this cycle), else activation.
                                cycle = rdy[consumer]
                                entry = (consumer, consumer_ep)
                                if cycle <= now:
                                    if flags[consumer] & F_MEM:
                                        insort(ready_mem[
                                            sid_of[consumer]], entry)
                                    else:
                                        insort(ready_alu[
                                            sid_of[consumer]], entry)
                                else:
                                    bucket = act.get(cycle)
                                    if bucket is None:
                                        act[cycle] = [entry]
                                    else:
                                        bucket.append(entry)

            # ---- ready-list activation ----
            batch = act.pop(now, None)
            if batch is not None:
                for seq, seq_ep in batch:
                    if sq[seq] or ep[seq] != seq_ep:
                        continue
                    if flags[seq] & F_MEM:
                        insort(ready_mem[sid_of[seq]], (seq, seq_ep))
                    else:
                        insort(ready_alu[sid_of[seq]], (seq, seq_ep))

            # ---- commit ----
            if rob_w:
                budget = commit_budget
                while budget:
                    head = rob_w[0]
                    head_complete = comp[head]
                    if head_complete < 0 or head_complete + precommit > now:
                        break
                    bits = flags[head]
                    if bits & F_STORE:
                        if not self._commit_store(lane, head, now):
                            break
                    rob_w.popleft()
                    rob_c[sid_of[head]] -= 1
                    ccyc[head] = now
                    lane.committed += 1
                    if bits & F_LOAD:
                        home = home_of[head]
                        bank = lsq_banks[home]
                        if bank.pop(head, None) is not None:
                            lsq_c[home] -= 1
                            if len(bank) == lsq_cap - 1:
                                lane.full_banks -= 1
                    prior = gprior[head]
                    if prior >= 0:
                        # Inlined _release_global: free ``prior`` from
                        # the rename pool and every Slice that holds it.
                        rn_free.append(prior)
                        producer = producer_of[prior]
                        producer_of[prior] = -1
                        slices = reg_slices[prior]
                        if slices is not None:
                            reg_slices[prior] = None
                            for s2 in slices:
                                op_arrs[s2][prior] = -1
                                lrf = lrfs[s2]
                                lrf.resident.discard(prior)
                                lrf.cached_remote.discard(prior)
                        if producer >= 0:
                            lrf = lrfs[sid_of[producer]]
                            lrf.resident.discard(prior)
                            lrf.cached_remote.discard(prior)
                    budget -= 1
                    if not rob_w:
                        break

            # ---- issue ----
            # Ready lists hold exactly the entries the scalar's window
            # scan would accept (pend == 0, rdy <= now), seq-sorted, so
            # the per-cycle scan cost is O(ready churn) instead of
            # O(window size).  Stale (squashed/refetched) entries are
            # filtered on read, like the completion buckets.
            head_seq = rob_w[0] if rob_w else -1
            min_unresolved = -1
            if ordered and unresolved_set:
                min_unresolved = min(unresolved_set)
            for sid in range(num_slices):
                r = ready_alu[sid]
                while r:
                    seq, e = r[0]
                    if sq[seq] or ep[seq] != e:
                        del r[0]
                        continue
                    del r[0]
                    alu_windows[sid].remove(seq)
                    cyc = now + (mul_latency
                                 if flags[seq] & F_MUL else 1)
                    comp[seq] = cyc
                    # Inline _schedule_completion: latency >= 1 so the
                    # now+1 floor can never bind.
                    bucket = buckets.get(cyc)
                    entry = (seq, e)
                    if bucket is None:
                        buckets[cyc] = [entry]
                    else:
                        bucket.append(entry)
                    break
                r = ready_mem[sid]
                if r:
                    pick = -1
                    if not lane.full_banks and not ordered:
                        # Fast path: the predicate cannot fail, so the
                        # first live entry is the scalar's min-seq pick.
                        while r:
                            seq, e = r[0]
                            if sq[seq] or ep[seq] != e:
                                del r[0]
                                continue
                            pick = seq
                            del r[0]
                            break
                    else:
                        # Exact path: the scalar evaluates the predicate
                        # for *every* ready candidate (each failing
                        # bank-full candidate counts one issue stall),
                        # even after a pick is found.
                        i = 0
                        pick_i = -1
                        while i < len(r):
                            seq, e = r[i]
                            if sq[seq] or ep[seq] != e:
                                del r[i]
                                continue
                            if (len(lsq_banks[home_of[seq]]) >= lsq_cap
                                    and seq != head_seq):
                                lane.st_issue_lsq_full += 1
                                i += 1
                                continue
                            if (ordered and flags[seq] & F_LOAD
                                    and min_unresolved >= 0
                                    and min_unresolved < seq):
                                i += 1
                                continue
                            if pick_i < 0:
                                pick_i = i
                            i += 1
                        if pick_i >= 0:
                            pick = r[pick_i][0]
                            del r[pick_i]
                    if pick >= 0:
                        mem_windows[sid].remove(pick)
                        # -- inlined _execute_mem --
                        home = home_of[pick]
                        distance = sid - home
                        if distance < 0:
                            distance = -distance
                        sort_latency = 0 if distance == 0 else 1 + distance
                        resolved = now + 1 + sort_latency
                        bank = lsq_banks[home]
                        is_store = flags[pick] & F_STORE
                        if len(bank) >= lsq_cap and pick != head_seq:
                            # Defensive parity with the scalar bank-full
                            # re-insert; the issue predicate makes this
                            # unreachable.
                            insort(mem_windows[sid], pick)
                            insort(ready_mem[sid], (pick, ep[pick]))
                        else:
                            line = lines_col[pick]
                            bank_entry = [bool(is_store), line,
                                          resolved, -1]
                            bank[pick] = bank_entry
                            lsq_c[home] += 1
                            if len(bank) == lsq_cap:
                                lane.full_banks += 1
                            if is_store:
                                complete = resolved
                            else:
                                forwarding = -1
                                for store_seq, store_entry in bank.items():
                                    if (store_entry[0] and store_seq < pick
                                            and store_entry[1] == line
                                            and store_entry[2] <= resolved
                                            and store_seq > forwarding):
                                        forwarding = store_seq
                                if forwarding >= 0:
                                    bank_entry[3] = forwarding
                                    lane.store_forwards += 1
                                    complete = resolved + 1
                                else:
                                    complete = self._hier_access(
                                        lane, home, addrs_col[pick],
                                        resolved, now) + sort_latency
                            comp[pick] = complete
                            # Inline _schedule_completion: complete >=
                            # resolved >= now + 1, so the floor never
                            # binds.
                            bucket = buckets.get(complete)
                            entry = (pick, ep[pick])
                            if bucket is None:
                                buckets[complete] = [entry]
                            else:
                                bucket.append(entry)

            # ---- dispatch ----
            # (_try_dispatch inlined: per-call attribute traffic was the
            # top profile entry; semantics and stall-count order are
            # byte-for-byte the method's.)
            if decode:
                quotas = [fetch_width] * num_slices
                while decode:
                    seq = decode[0]
                    if ren[seq] > now:
                        break
                    sid = sid_of[seq]
                    if quotas[sid] <= 0:
                        break
                    if rob_c[sid] >= rob_cap:
                        lane.st_rob_full += 1
                        break
                    bits = flags[seq]
                    window = (mem_windows[sid] if bits & F_MEM
                              else alu_windows[sid])
                    if len(window) >= win_cap:
                        lane.st_window_full += 1
                        break
                    writes = bits & F_WRITES
                    if not rn_free and writes:
                        lane.st_freelist += 1
                        break
                    ready = now + 1
                    pending = 0
                    fixups = None
                    registered = None
                    for arch in srcs_col[seq]:
                        mapped = rat[arch]
                        if mapped < 0:
                            continue
                        producer = producer_of[mapped]
                        if producer < 0 or ccyc[producer] >= 0:
                            continue
                        if comp[producer] >= 0:
                            # Producer already complete: the operand
                            # request is priced from this instruction's
                            # dispatch cycle.
                            disp[seq] = now
                            if fixups is None:
                                fixups = [producer]
                            else:
                                fixups.append(producer)
                        else:
                            bucket = waiters.get(producer)
                            entry = (seq, ep[seq])
                            if bucket is None:
                                waiters[producer] = [entry]
                            else:
                                bucket.append(entry)
                            pending += 1
                            if registered is None:
                                registered = [producer]
                            else:
                                registered.append(producer)
                    if writes:
                        lrf = lrfs[sid]
                        # Capacity probe (the scalar allocates a
                        # placeholder and releases it).  Below capacity
                        # the probe is a guaranteed-success state no-op
                        # and is skipped; at capacity it can evict a
                        # cached remote or fail, so it must run.
                        if len(lrf.resident) >= lrf_cap:
                            if not lrf.allocate_dst(-1):
                                lane.st_lrf_full += 1
                                if registered:
                                    self._unregister_waiters(
                                        lane, seq, registered)
                                break
                            lrf.release(-1)
                        if not rn_free:  # RenameStallError parity
                            lane.st_freelist += 1  # (unreachable)
                            if registered:
                                self._unregister_waiters(
                                    lane, seq, registered)
                            break
                        reg = rn_free.pop()
                        arch = dst_col[seq]
                        gprior[seq] = rat[arch]
                        rat[arch] = reg
                        gdst[seq] = reg
                        # allocate_dst(reg) cannot evict here: reg is
                        # fresh (never resident) and the probe above
                        # guaranteed len(resident) < capacity.
                        lrf.resident.add(reg)
                        producer_of[reg] = seq
                    disp[seq] = now
                    pend[seq] = pending
                    if bits & F_STORE:
                        unresolved_set.add(seq)
                    if fixups:
                        for producer in fixups:
                            arrival = self._operand_arrival(
                                lane, producer, seq, comp[producer])
                            if arrival > ready:
                                ready = arrival
                    rdy[seq] = ready
                    if not pending:
                        # Operands already satisfied: eligibility time
                        # is final now (ready >= now + 1, so always a
                        # future activation).
                        entry = (seq, ep[seq])
                        bucket = act.get(ready)
                        if bucket is None:
                            act[ready] = [entry]
                        else:
                            bucket.append(entry)
                    rob_w.append(seq)
                    rob_c[sid] += 1
                    window.append(seq)
                    decode.popleft()
                    buf_count[sid] -= 1
                    quotas[sid] -= 1
                    lane.next_seq += 1

            # ---- fetch ----
            if lane.blocking is not None or now < lane.stall_until:
                lane.st_fetch_redirect += 1
            else:
                quotas = [fetch_width] * num_slices
                ptr = lane.fetch_ptr
                hw = lane.fetch_hw
                limit = lane.fetch_limit
                waiters = lane.waiters
                while ptr < limit:
                    seq = ptr
                    sid = sid_of[seq]
                    if quotas[sid] <= 0:
                        break
                    if buf_count[sid] >= buffer_cap:
                        lane.st_fetch_buffer += 1
                        break
                    # L1I fetch with next-line prefetch.  The access
                    # line and its prefetch line are always ``a`` and
                    # ``a + num_slices``; repeating the previous pair
                    # re-touches both MRU entries (a state no-op), so
                    # the memoized repeat skips the LRU work entirely.
                    address = pc4s[seq]
                    lane.l1i_acc += 1
                    line = address // 8
                    if line == l1i_last[sid]:
                        hit = True
                    else:
                        hit = _cache_touch(l1i_sets[sid], l1i_n, l1i_a,
                                           line)
                        _cache_touch(l1i_sets[sid], l1i_n, l1i_a,
                                     line + num_slices)
                        if l1i_memo:
                            l1i_last[sid] = line
                    if not hit:
                        lane.l1i_miss += 1
                        l2_hit, l2_lat = self._l2_access(lane, address)
                        delay = self.l1i_hit + l2_lat
                        if not l2_hit:
                            delay += self.mem_delay
                        lane.stall_until = now + delay
                        lane.st_fetch_icache += 1
                        break
                    if seq >= hw:
                        # First-ever fetch: every column still holds its
                        # construction value (the exact reset state) and
                        # no stale (seq, epoch) entries exist anywhere,
                        # so epoch 0 stays valid and the resets vanish.
                        hw = seq + 1
                        epoch = ep[seq]
                    else:
                        epoch = ep[seq] + 1
                        ep[seq] = epoch
                        sq[seq] = 0
                        comp[seq] = -1
                        lane.disp[seq] = -1
                        lane.ccyc[seq] = -1
                        pend[seq] = 0
                        lane.gdst[seq] = -1
                        lane.prior[seq] = -1
                        waiters.pop(seq, None)
                    ren[seq] = now + decode_latency
                    decode.append(seq)
                    buf_count[sid] += 1
                    lane.fetched += 1
                    quotas[sid] -= 1
                    ptr += 1
                    bits = flags[seq]
                    if bits & F_BRANCH:
                        lane.branches += 1
                        pc = pcs[seq]
                        predicted = self._predict(lane, sid, pc)
                        lane.pred[seq] = 1 if predicted else 0
                        if predicted != bool(bits & F_TAKEN):
                            lane.blocking = (seq, epoch)
                            break
                lane.fetch_ptr = ptr
                lane.fetch_hw = hw

            now += 1
        lane.now = now

    # ------------------------------------------------------------------
    # functional fast-forward (sampled composition)
    # ------------------------------------------------------------------

    def _fast_forward(self, lane: _Lane, count: int) -> int:
        """Scalar ``fast_forward`` on one lane: caches, predictors and
        store state stay warm; no cycles elapse; stats untouched except
        the full-trace L1D/L2 counters (which the sampled estimator
        passes through unscaled)."""
        if (lane.decode or lane.rob_w or lane.unresolved
                or lane.blocking is not None):
            raise RuntimeError(
                "cannot fast-forward with instructions in flight; run "
                "the detailed window to completion first"
            )
        cols = lane.cols
        start = lane.fetch_ptr
        stop = min(start + count, cols.length)
        if stop <= start:
            return 0
        # Pending store-buffer drains precede (in cycle order) any L1D
        # touch this fast-forward performs.
        for sid in range(lane.num_slices):
            self._catch_up_ticks(lane, sid, lane.now)
        flags = cols.flags
        pc4s = cols.pc4
        pcs = cols.pcs
        addrs = cols.addrs
        targets = cols.targets
        sid_of = lane.sid
        home_of = lane.home
        l1i_sets = lane.l1i_sets
        l1d_sets = lane.l1d_sets
        l1i_n, l1i_a = self.l1i_sets_n, self.l1i_assoc
        l1d_n, l1d_a = self.l1d_sets_n, self.l1d_assoc
        l1d_line = self.l1d_line
        gshare = self.gshare
        bp = lane.bp
        btb = lane.btb
        bp_entries = self.bp_entries
        btb_entries = self.btb_entries
        hist_mask = self.hist_mask
        l1i_last = lane.l1i_last
        l1i_memo = lane.l1i_memo
        num_slices = lane.num_slices
        for seq in range(start, stop):
            sid = sid_of[seq]
            address = pc4s[seq]
            # L1I access + next-line prefetch (same repeat-pair memo as
            # detailed fetch); the I-cache counters are not part of
            # SimStats outside detailed fetch, but the L2 counters are
            # full-trace.
            line = address // 8
            if line != l1i_last[sid]:
                if not _cache_touch(l1i_sets[sid], l1i_n, l1i_a, line):
                    self._l2_access(lane, address)
                _cache_touch(l1i_sets[sid], l1i_n, l1i_a,
                             line + num_slices)
                if l1i_memo:
                    l1i_last[sid] = line
            bits = flags[seq]
            if bits:
                if bits & F_BRANCH:
                    # BranchUnit.resolve: train the predictor, install
                    # the BTB target (prediction itself is stateless).
                    taken = bool(bits & F_TAKEN)
                    pc = pcs[seq]
                    if gshare:
                        index = (pc ^ lane.hist[sid]) % bp_entries
                    else:
                        index = pc % bp_entries
                    row = bp[sid]
                    counter = row[index]
                    if taken:
                        if counter < 3:
                            row[index] = counter + 1
                    elif counter > 0:
                        row[index] = counter - 1
                    if gshare:
                        lane.hist[sid] = (((lane.hist[sid] << 1)
                                           | int(taken)) & hist_mask)
                    target = targets[seq]
                    if taken and target >= 0:
                        btb[sid][pc % btb_entries] = target
                elif bits & F_MEM:
                    address = addrs[seq]
                    home = home_of[seq]
                    lane.l1d_acc += 1
                    if not _cache_touch(l1d_sets[home], l1d_n, l1d_a,
                                        address // l1d_line):
                        lane.l1d_miss += 1
                        self._l2_access(lane, address)
        retired = stop - start
        lane.fetch_ptr = stop
        lane.next_seq = stop
        lane.ff_retired += retired
        return retired

    # ------------------------------------------------------------------
    # drivers and results
    # ------------------------------------------------------------------

    #: Cycles one lane runs before the driver rotates to the next; large
    #: enough to amortize the per-chunk local-variable hoist, small
    #: enough that lanes progress in near-lockstep.
    CHUNK_CYCLES = 4096

    def run_to_commit(self, targets: Union[int, Sequence[int]],
                      lanes: Optional[Sequence[_Lane]] = None) -> None:
        """Advance lanes until each reaches its absolute commit target."""
        if lanes is None:
            lanes = self.lanes
        if isinstance(targets, int):
            targets = [targets] * len(lanes)
        if len(targets) != len(lanes):
            raise ValueError("one commit target per lane")
        chunk = self.CHUNK_CYCLES
        active = [(lane, int(t)) for lane, t in zip(lanes, targets)
                  if lane.committed < t]
        while active:
            still = []
            for lane, target in active:
                self._advance(lane, target, chunk)
                if lane.committed < target:
                    still.append((lane, target))
            active = still

    def _lane_stats(self, lane: _Lane) -> SimStats:
        """This lane's SimStats; applies any outstanding lazy ticks."""
        for sid in range(lane.num_slices):
            self._catch_up_ticks(lane, sid, lane.now)
        return SimStats(
            cycles=lane.now,
            fetched=lane.fetched,
            committed=lane.committed,
            squashed=lane.squashed_count,
            branches=lane.branches,
            branch_mispredicts=lane.mispredicts,
            l1i_accesses=lane.l1i_acc,
            l1i_misses=lane.l1i_miss,
            l1d_accesses=lane.l1d_acc,
            l1d_misses=lane.l1d_miss,
            l2_accesses=lane.l2_hits + lane.l2_misses,
            l2_misses=lane.l2_misses,
            operand_requests=lane.operand_requests,
            remote_operand_hops=lane.remote_hops,
            lsq_violations=lane.lsq_violations,
            store_forwards=lane.store_forwards,
            stalls=StallBreakdown(
                fetch_icache=lane.st_fetch_icache,
                fetch_buffer_full=lane.st_fetch_buffer,
                fetch_branch_redirect=lane.st_fetch_redirect,
                dispatch_rob_full=lane.st_rob_full,
                dispatch_window_full=lane.st_window_full,
                dispatch_freelist=lane.st_freelist,
                dispatch_lrf_full=lane.st_lrf_full,
                issue_lsq_full=lane.st_issue_lsq_full,
            ),
        )

    def _result(self, lane: _Lane) -> SimResult:
        return SimResult(
            benchmark=self.traces[lane.trace_index].metadata.benchmark,
            num_slices=lane.num_slices,
            l2_cache_kb=lane.l2_kb,
            stats=self._lane_stats(lane),
        )

    def run(self) -> List[SimResult]:
        """Run every lane to the end of its trace; results in lane order."""
        self.run_to_commit([lane.cols.length - lane.ff_retired
                            for lane in self.lanes])
        return [self._result(lane) for lane in self.lanes]

    def run_sampled(self, sampling: Any,
                    phase_lengths: Optional[Sequence[int]] = None
                    ) -> List[SimResult]:
        """Sampled run: every lane follows the planned schedule - an
        exhaustively timed head, then fast-forward gaps and detailed
        windows whose warmup prefix is discarded - and extrapolates with
        :func:`~repro.sampling.sampled.extrapolate_sampled`.  Lanes of
        one trace advance window-by-window together.  The sampled
        reference loop on the object model (``tests/oracles/sampled.py``)
        pins every result.
        """
        from repro.sampling.policy import SamplingPolicy
        from repro.sampling.sampled import extrapolate_sampled

        if phase_lengths is not None and len(self.traces) > 1:
            raise ValueError(
                "phase_lengths applies to a single-trace batch")
        policy = SamplingPolicy(sampling)
        schedules = [
            (policy.plan_phases(phase_lengths)
             if phase_lengths is not None else policy.plan(cols.length))
            for cols in self._cols
        ]
        results: List[Optional[SimResult]] = [None] * len(self.lanes)
        exact_lanes = [lane for lane in self.lanes
                       if schedules[lane.trace_index].exact]
        if exact_lanes:
            self.run_to_commit(
                [lane.cols.length - lane.ff_retired
                 for lane in exact_lanes], lanes=exact_lanes)
            for lane in exact_lanes:
                results[lane.index] = self._result(lane)
        groups: Dict[int, List[_Lane]] = {}
        for lane in self.lanes:
            if not schedules[lane.trace_index].exact:
                groups.setdefault(lane.trace_index, []).append(lane)
        for tidx, group in groups.items():
            schedule = schedules[tidx]
            total = self._cols[tidx].length
            cpis: Dict[int, List[float]] = {lane.index: []
                                            for lane in group}
            head_cycles: Dict[int, int] = {lane.index: 0
                                           for lane in group}
            position = 0
            head = schedule.head
            if head:
                for lane in group:
                    lane.fetch_limit = head
                self.run_to_commit([head] * len(group), lanes=group)
                for lane in group:
                    head_cycles[lane.index] = lane.now
                position = head
            for window in schedule.windows:
                if window.start > position:
                    gap = window.start - position
                    for lane in group:
                        self._fast_forward(lane, gap)
                bases = {lane.index: lane.committed for lane in group}
                for lane in group:
                    lane.fetch_limit = window.end
                self.run_to_commit(
                    [bases[lane.index] + window.warmup for lane in group],
                    lanes=group)
                marks = {lane.index: (lane.now, lane.committed)
                         for lane in group}
                self.run_to_commit(
                    [bases[lane.index] + len(window) for lane in group],
                    lanes=group)
                for lane in group:
                    cycles_0, committed_0 = marks[lane.index]
                    measured = lane.committed - committed_0
                    cpis[lane.index].append(
                        (lane.now - cycles_0) / measured)
                position = window.end
            if position < total:
                gap = total - position
                for lane in group:
                    self._fast_forward(lane, gap)
            for lane in group:
                results[lane.index] = extrapolate_sampled(
                    benchmark=self.traces[tidx].metadata.benchmark,
                    num_slices=lane.num_slices,
                    l2_cache_kb=lane.l2_kb,
                    total=total,
                    schedule=schedule,
                    sampling=sampling,
                    stats=self._lane_stats(lane),
                    ff_retired=lane.ff_retired,
                    cpis=cpis[lane.index],
                    head_cycles=head_cycles[lane.index],
                )
        return results  # type: ignore[return-value]
