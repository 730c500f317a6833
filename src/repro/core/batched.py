"""Structure-of-arrays simulator core: the production SSim.

:class:`~repro.core.simulator.SharingSimulator` runs
:meth:`BatchedSimulator.run` and :func:`~repro.sampling.simulate_sampled`
runs :meth:`BatchedSimulator.run_sampled`.  One instance simulates one
trace on one VCore configuration, keeping the per-instruction pipeline
state that the object model holds in ``DynInst`` objects in flat columns
indexed by sequence number.

The object model :class:`~repro.core.simulator.ReferenceSimulator` is
the equivalence reference: every statistic in
:class:`~repro.core.stats.SimStats` is reproduced *bit-for-bit*,
enforced by ``tests/core/test_batched_equivalence`` and the golden
fixtures.

Where the speed comes from
--------------------------

* **Flat workload columns** - the pipeline walks precomputed columns
  (PCs, packed flags, live sources, home/fetch Slice maps, cached on
  the trace) instead of chasing ``Instruction`` property chains.
* **De-objectified pipeline** - per-instruction state lives in flat
  columns indexed by sequence number (epoch counters replace object
  identity across squash/refetch), and the per-cycle
  ``hierarchy.tick`` is applied lazily: MSHR retirement and store-buffer
  drains are caught up only when a Slice's memory system is next
  observed, which is exact because both are pure functions of the cycle
  number.

Exact ports
-----------

Two structures are deliberately kept as exact Python ports rather than
arrays because their *iteration order is observable* in the reference:
the LRF remote-operand cache (``next(iter(set))`` eviction) and the
cache LRU lists (dict/list ordering).  Reproducing the same operation
sequence on the same container types reproduces the same victims, which
is what bit-identity requires.

Restrictions: ``repro.obs`` instrumentation is not supported (run
:class:`~repro.core.simulator.ReferenceSimulator`, or ``simulate()``
with an enabled ``obs``, for instrumented runs); the core always uses
the default ring-packed L2 bank distances, so a config that sets
``VCoreConfig.l2_bank_distances`` is rejected.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cache.l1 import L1_LINE_BYTES
from repro.cache.l2 import (
    L2_ASSOC,
    L2_BANK_BYTES,
    L2_BASE_LATENCY,
    L2_CYCLES_PER_DISTANCE,
    L2_LINE_BYTES,
    default_bank_distances,
)
from repro.core.config import SimConfig
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
    """Flat per-instruction columns shared by every run on one trace.

    Extends :class:`~repro.trace.materialize.TraceArrays` with the
    rename-visible fields (live sources, destination register) and
    memoized Slice-assignment maps, so the pipeline never touches
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
    """The trace's flat columns, built once and cached on it."""
    cols = getattr(trace, "_soa_columns", None)
    if cols is None or cols.length != len(trace):
        cols = _TraceColumns(trace)
        trace._soa_columns = cols  # type: ignore[attr-defined]
    return cols


# ======================================================================
# exact ports of order-sensitive structures
# ======================================================================


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
# the simulator: one trace on one configuration
# ======================================================================


class BatchedSimulator:
    """One trace on one VCore configuration, over flat trace columns.

    ``config.vcore`` is the configuration.  ``warmup_addresses``, when
    given, is replayed through the caches before the timed region, as
    :class:`~repro.core.simulator.ReferenceSimulator` does.  Results are
    bit-identical to a ``ReferenceSimulator`` run with the same
    arguments.
    """

    def __init__(self, trace: Trace, config: SimConfig,
                 warmup_addresses: Optional[Sequence[int]] = None) -> None:
        vcore = config.vcore
        if vcore.l2_bank_distances is not None:
            raise ValueError(
                "VCoreConfig.l2_bank_distances is not supported: the "
                "structure-of-arrays core uses the default ring-packed "
                "bank distances"
            )
        self.config = config
        self.trace = trace
        self.max_cycles = config.max_cycles

        s_cfg = config.slice_config
        c_cfg = config.cache_config
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
        self.redirect = config.mispredict_redirect
        self.ordered_lsq = config.ordered_lsq
        self.by_pc = config.fetch_assignment == "pc"
        self.mem_delay = c_cfg.memory_delay
        self.l1i_line = 2 * 4  # VCore: fetch-width instructions per line
        self.l1i_assoc = c_cfg.l1i.assoc
        self.l1i_sets_n = max(1, int(c_cfg.l1i.size_kb * 1024)
                              // self.l1i_line // self.l1i_assoc)
        self.l1i_hit = c_cfg.l1i.hit_delay
        # Fixed like the object model's L1D, MSHR and store-buffer lines.
        self.l1d_line = L1_LINE_BYTES
        self.l1d_assoc = c_cfg.l1d.assoc
        self.l1d_sets_n = max(1, int(c_cfg.l1d.size_kb * 1024)
                              // self.l1d_line // self.l1d_assoc)
        self.l1d_hit = c_cfg.l1d.hit_delay

        cols = trace_columns(trace)
        ns = vcore.num_slices
        nb = vcore.num_l2_banks
        self.cols = cols
        self.num_slices = ns
        self.l2_nb = nb
        self.l2_kb = nb * L2_BANK_BYTES / 1024
        self.l2_lat = [d * L2_CYCLES_PER_DISTANCE + L2_BASE_LATENCY
                       for d in default_bank_distances(nb)]
        self.sid = cols.sids(ns, self.fetch_width, self.by_pc)
        self.home = cols.homes(ns)
        self.decode_latency = (config.frontend_depth
                               + rename_pipeline_depth(
                                   ns,
                                   global_extra=config.global_rename_depth))
        self.commit_budget = self.commit_width * ns
        self.precommit = config.precommit_sync if ns > 1 else 0

        self.now = 0
        self.fetch_ptr = 0
        self.fetch_hw = 0
        self.fetch_limit = cols.length
        self.stall_until = 0
        self.blocking = None
        self.next_seq = 0
        self.ff_retired = 0
        self.decode = deque()
        self.buf_count = [0] * ns

        n = cols.length
        self.ep = [0] * n
        self.sq = bytearray(n)
        self.comp = [-1] * n
        self.disp = [-1] * n
        self.ccyc = [-1] * n
        self.rdy = [0] * n
        self.pend = [0] * n
        self.gdst = [-1] * n
        self.prior = [-1] * n
        self.ren = [0] * n
        self.pred = bytearray(n)

        # Rename state as flat arrays (-1 = unmapped / no producer /
        # no cached arrival; None = no consumer-slice record): the key
        # spaces are small and dense, so array indexing replaces the
        # scalar's dict lookups with identical observable behaviour.
        self.rat = [-1] * (cols.max_arch + 1)
        # GlobalRenameState: pops from the tail, so regs allocate 0,1,2...
        self.rn_free = list(range(self.num_global - 1, -1, -1))
        self.producer_of = [-1] * self.num_global
        self.waiters = {}
        self.buckets = {}
        self.unresolved = set()
        self.op_arr = [[-1] * self.num_global for _ in range(ns)]
        self.lrf = [_LRF(self.lrf_cap) for _ in range(ns)]
        self.reg_slices = [None] * self.num_global

        self.alu_w = [[] for _ in range(ns)]
        self.mem_w = [[] for _ in range(ns)]
        # Event-driven issue: per-Slice seq-sorted lists of (seq, epoch)
        # entries whose operands are ready (pend == 0, rdy <= now), plus
        # the cycle -> [(seq, epoch)] activation buckets that feed them.
        # Entries are validated against sq/ep on read (like ``buckets``),
        # so squashes filter lazily.
        self.ready_alu = [[] for _ in range(ns)]
        self.ready_mem = [[] for _ in range(ns)]
        self.act = {}
        # Distributed ROB (DistributedROB): the program-ordered in-flight
        # window plus per-Slice occupancy.  Address-banked LSQ (LSQBank):
        # per-bank maps ``seq -> [is_store, line, resolved_cycle,
        # forwarded_from]`` (-1 stands in for the scalar's ``None``).
        self.rob_w = deque()
        self.rob_c = [0] * ns
        self.lsq_banks = [{} for _ in range(ns)]
        # Predictor state per Slice: 2-bit counters init 1 (weak NT)
        # and BTB targets (-1 = no entry).
        self.bp = [[1] * self.bp_entries for _ in range(ns)]
        self.btb = [[-1] * self.btb_entries for _ in range(ns)]
        self.hist = [0] * ns

        self.l1i_sets = [{} for _ in range(ns)]
        self.l1d_sets = [{} for _ in range(ns)]
        self.l2_sets = [{} for _ in range(nb)]
        if warmup_addresses is not None:
            self._warm(warmup_addresses)
        self.mshr = [{} for _ in range(ns)]
        self.sb = [deque() for _ in range(ns)]
        self.sb_last = [-1] * ns
        self.full_banks = 0
        self.l1i_last = [-1] * ns
        # The repeat-pair memo assumes the access line and its prefetch
        # line (always ``a`` and ``a + ns``) live in different L1I sets,
        # so a repeat cannot have been evicted by its own prefetch.
        self.l1i_memo = ns % self.l1i_sets_n != 0

        self.fetched = 0
        self.committed = 0
        self.squashed_count = 0
        self.branches = 0
        self.mispredicts = 0
        self.l1i_acc = 0
        self.l1i_miss = 0
        self.l1d_acc = 0
        self.l1d_miss = 0
        self.l2_hits = 0
        self.l2_misses = 0
        self.operand_requests = 0
        self.remote_hops = 0
        self.lsq_violations = 0
        self.store_forwards = 0
        self.st_fetch_icache = 0
        self.st_fetch_buffer = 0
        self.st_fetch_redirect = 0
        self.st_rob_full = 0
        self.st_window_full = 0
        self.st_freelist = 0
        self.st_lrf_full = 0
        self.st_issue_lsq_full = 0

    def _warm(self, addresses: Sequence[int]) -> None:
        """``ReferenceSimulator._warm_data_caches``, uncounted.

        The read stream goes through the home L1Ds, then the timed
        region's own PC stream through the L1Is; misses of both fall
        through to the L2, in the same order.
        """
        ns = self.num_slices
        fw = self.fetch_width
        l1i, l1d = self.l1i_sets, self.l1d_sets
        l1i_n, l1i_a = self.l1i_sets_n, self.l1i_assoc
        l1d_n, l1d_a = self.l1d_sets_n, self.l1d_assoc
        l1d_line = self.l1d_line
        stream: List[int] = []
        for addr in addresses:
            home = (addr // _LSQ_LINE) % ns
            if not _cache_touch(l1d[home], l1d_n, l1d_a, addr // l1d_line):
                stream.append(addr)
        for pc4 in self.cols.pc4:
            sid = (pc4 // 4 // fw) % ns
            if not _cache_touch(l1i[sid], l1i_n, l1i_a, pc4 // 8):
                stream.append(pc4)
        nb = self.l2_nb
        if nb:
            l2_sets = self.l2_sets
            for addr in stream:
                line = addr // L2_LINE_BYTES
                _cache_touch(l2_sets[line % nb], _L2_SETS, L2_ASSOC,
                             line // nb)

    # ------------------------------------------------------------------
    # lazy memory-system background work
    # ------------------------------------------------------------------

    def _catch_up_ticks(self, sid: int, now: int) -> None:
        """Apply the store-buffer drains of cycles ``(last, now-1]``.

        The scalar model drains at most one buffered store per Slice per
        cycle (each drain is a *counted* L1D write access); the drain
        cycle of the head is ``max(previous_drain + 1, commit_cycle + 1)``,
        a pure function of cycle numbers, so it can be replayed exactly
        whenever the Slice's memory system is next observed.
        """
        upto = now - 1
        last = self.sb_last[sid]
        if upto <= last:
            return
        sb = self.sb[sid]
        if sb:
            sets = self.l1d_sets[sid]
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
                self.l1d_acc += 1
                if not _cache_touch(sets, n_sets, assoc, addr // l1d_line):
                    self.l1d_miss += 1
                last = t
        self.sb_last[sid] = upto

    def _l2_access(self, addr: int) -> Tuple[bool, int]:
        nb = self.l2_nb
        if not nb:
            return False, 0
        line = addr // L2_LINE_BYTES
        bank = line % nb
        hit = _cache_touch(self.l2_sets[bank], _L2_SETS, L2_ASSOC,
                           line // nb)
        if hit:
            self.l2_hits += 1
        else:
            self.l2_misses += 1
        return hit, self.l2_lat[bank]

    def _hier_access(self, sid: int, addr: int,
                     t: int, now: int) -> int:
        """CacheHierarchy.access for a load issued at cycle ``t``.

        ``now`` is the simulator's current cycle: background ticks are
        caught up to it first (MSHR entries with fill < now would have
        been retired; store-buffer drains through now-1 are replayed).
        """
        self._catch_up_ticks(sid, now)
        l1d_line = self.l1d_line
        sb = self.sb[sid]
        if sb:
            line = addr // l1d_line
            for buffered_addr, _ in sb:
                if buffered_addr // l1d_line == line:
                    return t + self.l1d_hit
        mshr = self.mshr[sid]
        if mshr:
            stale = [l for l, fill in mshr.items() if fill < now]
            for l in stale:
                del mshr[l]
        mshr_line = addr // _LSQ_LINE
        in_flight = mshr.get(mshr_line)
        sets = self.l1d_sets[sid]
        if in_flight is not None:
            # Secondary miss: merge as a waiter; the L1D access still
            # counts and touches LRU state.
            self.l1d_acc += 1
            if not _cache_touch(sets, self.l1d_sets_n, self.l1d_assoc,
                                addr // l1d_line):
                self.l1d_miss += 1
            ready = t + self.l1d_hit
            return in_flight if in_flight > ready else ready
        self.l1d_acc += 1
        if _cache_touch(sets, self.l1d_sets_n, self.l1d_assoc,
                        addr // l1d_line):
            return t + self.l1d_hit
        self.l1d_miss += 1
        l2_hit, l2_lat = self._l2_access(addr)
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

    def _operand_arrival(self, producer: int, consumer: int,
                         t: int) -> int:
        sid = self.sid
        p_slice = sid[producer]
        c_slice = sid[consumer]
        if p_slice == c_slice:
            return t
        reg = self.gdst[producer]
        op_arr = self.op_arr[c_slice]
        if reg >= 0:
            cached = op_arr[reg]
            if cached >= 0:
                return t if t >= cached else cached
        hops = p_slice - c_slice
        if hops < 0:
            hops = -hops
        hop_latency = 1 + hops
        request_arrives = self.disp[consumer] + hop_latency
        arrival = (t if t >= request_arrives else request_arrives) \
            + hop_latency
        self.operand_requests += 1
        self.remote_hops += hops
        if reg >= 0:
            op_arr[reg] = arrival
            # Remember which slices cached this register so release
            # only touches those (a no-op everywhere else in the scalar).
            slices = self.reg_slices[reg]
            if slices is None:
                self.reg_slices[reg] = [c_slice]
            else:
                slices.append(c_slice)
            self.lrf[c_slice].allocate_remote(reg)
        return arrival

    def _resolve_branch(self, seq: int, t: int) -> None:
        sid = self.sid[seq]
        pc = self.cols.pcs[seq]
        taken = bool(self.cols.flags[seq] & F_TAKEN)
        bp = self.bp
        if self.gshare:
            index = (pc ^ self.hist[sid]) % self.bp_entries
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
            self.hist[sid] = (((self.hist[sid] << 1) | int(taken))
                              & self.hist_mask)
        target = self.cols.targets[seq]
        if taken and target >= 0:
            self.btb[sid][pc % self.btb_entries] = target
        if bool(self.pred[seq]) != taken:
            self.mispredicts += 1
            blocking = self.blocking
            if (blocking is not None and blocking[0] == seq
                    and blocking[1] == self.ep[seq]):
                self.blocking = None
                redirect = t + self.redirect
                if redirect > self.stall_until:
                    self.stall_until = redirect

    def _predict(self, sid: int, pc: int) -> bool:
        """BranchUnit.predict: direction counter gated by BTB presence."""
        if self.gshare:
            index = (pc ^ self.hist[sid]) % self.bp_entries
        else:
            index = pc % self.bp_entries
        taken = self.bp[sid][index] >= 2
        if taken and self.btb[sid][pc % self.btb_entries] < 0:
            return False
        return taken

    def _commit_store(self, seq: int, now: int) -> bool:
        home = self.home[seq]
        line = self.cols.lines[seq]
        bank = self.lsq_banks[home]
        violators = [load_seq for load_seq, entry in bank.items()
                     if not entry[0] and load_seq > seq
                     and entry[1] == line and entry[3] < seq
                     and entry[2] <= now]
        if violators:
            oldest = min(violators)
            self.lsq_violations += len(violators)
            self._replay_from(oldest, now)
        self._catch_up_ticks(home, now)
        sb = self.sb[home]
        if len(sb) >= self.sb_cap:
            return False
        sb.append((self.cols.addrs[seq], now))
        del bank[seq]
        if len(bank) == self.lsq_cap - 1:
            self.full_banks -= 1
        return True

    def _replay_from(self, victim: int, now: int) -> None:
        """Memory-order violation: squash and refetch from ``victim``."""
        limit = victim - 1
        rob_w = self.rob_w
        rob_c = self.rob_c
        sid = self.sid
        sq = self.sq
        squashed: List[int] = []
        while rob_w and rob_w[-1] > limit:
            seq = rob_w.pop()
            rob_c[sid[seq]] -= 1
            sq[seq] = 1
            squashed.append(seq)
        rat = self.rat
        free = self.rn_free
        producer_of = self.producer_of
        gdst = self.gdst
        prior = self.prior
        dst = self.cols.dst
        num_slices = self.num_slices
        reg_slices = self.reg_slices
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
                        self.op_arr[s][reg] = -1
                        self.lrf[s].release(reg)
                self.lrf[sid[seq]].release(reg)
        for s in range(num_slices):
            self.alu_w[s] = [q for q in self.alu_w[s] if q <= limit]
            self.mem_w[s] = [q for q in self.mem_w[s] if q <= limit]
        decode = self.decode
        buf_count = self.buf_count
        while decode and decode[-1] >= victim:
            seq = decode.pop()
            sq[seq] = 1
            buf_count[sid[seq]] -= 1
        lsq_cap = self.lsq_cap
        for bank in self.lsq_banks:
            victims = [q for q in bank if q > limit]
            if victims:
                was_full = len(bank) >= lsq_cap
                for q in victims:
                    del bank[q]
                if was_full and len(bank) < lsq_cap:
                    self.full_banks -= 1
        unresolved = self.unresolved
        if unresolved:
            stale = [q for q in unresolved if q >= victim]
            for q in stale:
                unresolved.discard(q)
        self.squashed_count += len(squashed)
        blocking = self.blocking
        if blocking is not None and blocking[0] >= victim:
            self.blocking = None
        self.fetch_ptr = victim
        self.next_seq = victim
        redirect = now + self.redirect
        if redirect > self.stall_until:
            self.stall_until = redirect

    def _unregister_waiters(self, seq: int,
                            producers: List[int]) -> None:
        """Back out a failed dispatch's wakeup registrations."""
        epoch = self.ep[seq]
        waiters = self.waiters
        for producer in set(producers):
            waiters[producer] = [
                entry for entry in waiters[producer]
                if entry[0] != seq or entry[1] != epoch
            ]

    # ------------------------------------------------------------------
    # the cycle loop
    # ------------------------------------------------------------------

    def run_to_commit(self, target: int) -> None:
        """Step the pipeline until ``target`` instructions have committed.

        ``target`` counts detailed commits only (fast-forwarded
        instructions are excluded); raises
        :class:`~repro.core.simulator.SimulationTimeout` when the cycle
        budget runs out first.
        """
        max_cycles = self.max_cycles
        cols = self.cols
        flags = cols.flags
        pcs = cols.pcs
        pc4s = cols.pc4
        sid_of = self.sid
        comp = self.comp
        rdy = self.rdy
        pend = self.pend
        sq = self.sq
        ep = self.ep
        buckets = self.buckets
        rob_w = self.rob_w
        decode = self.decode
        buf_count = self.buf_count
        num_slices = self.num_slices
        fetch_width = self.fetch_width
        buffer_cap = self.buffer_cap
        mul_latency = self.mul_latency
        lsq_cap = self.lsq_cap
        precommit = self.precommit
        commit_budget = self.commit_budget
        decode_latency = self.decode_latency
        ordered = self.ordered_lsq
        l1i_sets = self.l1i_sets
        l1i_n = self.l1i_sets_n
        l1i_a = self.l1i_assoc
        ren = self.ren

        ccyc = self.ccyc
        gprior = self.prior
        home_of = self.home
        rob_c = self.rob_c
        lsq_banks = self.lsq_banks
        alu_windows = self.alu_w
        mem_windows = self.mem_w
        l1i_last = self.l1i_last
        l1i_memo = self.l1i_memo
        rob_cap = self.rob_cap
        win_cap = self.win_cap
        lrf_cap = self.lrf_cap
        rn_free = self.rn_free
        rat = self.rat
        producer_of = self.producer_of
        disp = self.disp
        waiters = self.waiters
        srcs_col = cols.srcs
        dst_col = cols.dst
        gdst = self.gdst
        rdy = self.rdy
        lrfs = self.lrf
        unresolved_set = self.unresolved
        ready_alu = self.ready_alu
        ready_mem = self.ready_mem
        act = self.act
        reg_slices = self.reg_slices
        op_arrs = self.op_arr
        lines_col = cols.lines
        addrs_col = cols.addrs

        now = self.now
        while self.committed < target:
            if now >= max_cycles:
                self.now = now
                raise SimulationTimeout(
                    f"{self.committed}/{target} committed after "
                    f"{now} cycles"
                )

            # ---- idle skip ----
            # Pipeline drained + fetch stalled on a redirect/miss window:
            # the only per-cycle effect until ``stall_until`` is one
            # fetch-redirect stall count, so those cycles batch.
            if (not rob_w and not decode and self.blocking is None
                    and now < self.stall_until):
                skip = self.stall_until - now
                if now + skip > max_cycles:
                    skip = max_cycles - now
                self.st_fetch_redirect += skip
                now += skip
                continue

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
                        self._resolve_branch(seq, t)
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
                                    seq, consumer, t)
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
                        if not self._commit_store(head, now):
                            break
                    rob_w.popleft()
                    rob_c[sid_of[head]] -= 1
                    ccyc[head] = now
                    self.committed += 1
                    if bits & F_LOAD:
                        bank = lsq_banks[home_of[head]]
                        if bank.pop(head, None) is not None:
                            if len(bank) == lsq_cap - 1:
                                self.full_banks -= 1
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
                    if not self.full_banks and not ordered:
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
                                self.st_issue_lsq_full += 1
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
                            if len(bank) == lsq_cap:
                                self.full_banks += 1
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
                                    self.store_forwards += 1
                                    complete = resolved + 1
                                else:
                                    complete = self._hier_access(
                                        home, addrs_col[pick],
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
                        self.st_rob_full += 1
                        break
                    bits = flags[seq]
                    window = (mem_windows[sid] if bits & F_MEM
                              else alu_windows[sid])
                    if len(window) >= win_cap:
                        self.st_window_full += 1
                        break
                    writes = bits & F_WRITES
                    if not rn_free and writes:
                        self.st_freelist += 1
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
                                self.st_lrf_full += 1
                                if registered:
                                    self._unregister_waiters(
                                        seq, registered)
                                break
                            lrf.release(-1)
                        if not rn_free:  # RenameStallError parity
                            self.st_freelist += 1  # (unreachable)
                            if registered:
                                self._unregister_waiters(
                                    seq, registered)
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
                                producer, seq, comp[producer])
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
                    self.next_seq += 1

            # ---- fetch ----
            if self.blocking is not None or now < self.stall_until:
                self.st_fetch_redirect += 1
            else:
                quotas = [fetch_width] * num_slices
                ptr = self.fetch_ptr
                hw = self.fetch_hw
                limit = self.fetch_limit
                waiters = self.waiters
                while ptr < limit:
                    seq = ptr
                    sid = sid_of[seq]
                    if quotas[sid] <= 0:
                        break
                    if buf_count[sid] >= buffer_cap:
                        self.st_fetch_buffer += 1
                        break
                    # L1I fetch with next-line prefetch.  The access
                    # line and its prefetch line are always ``a`` and
                    # ``a + num_slices``; repeating the previous pair
                    # re-touches both MRU entries (a state no-op), so
                    # the memoized repeat skips the LRU work entirely.
                    address = pc4s[seq]
                    self.l1i_acc += 1
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
                        self.l1i_miss += 1
                        l2_hit, l2_lat = self._l2_access(address)
                        delay = self.l1i_hit + l2_lat
                        if not l2_hit:
                            delay += self.mem_delay
                        self.stall_until = now + delay
                        self.st_fetch_icache += 1
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
                        self.disp[seq] = -1
                        self.ccyc[seq] = -1
                        pend[seq] = 0
                        self.gdst[seq] = -1
                        self.prior[seq] = -1
                        waiters.pop(seq, None)
                    ren[seq] = now + decode_latency
                    decode.append(seq)
                    buf_count[sid] += 1
                    self.fetched += 1
                    quotas[sid] -= 1
                    ptr += 1
                    bits = flags[seq]
                    if bits & F_BRANCH:
                        self.branches += 1
                        pc = pcs[seq]
                        predicted = self._predict(sid, pc)
                        self.pred[seq] = 1 if predicted else 0
                        if predicted != bool(bits & F_TAKEN):
                            self.blocking = (seq, epoch)
                            break
                self.fetch_ptr = ptr
                self.fetch_hw = hw

            now += 1
        self.now = now

    # ------------------------------------------------------------------
    # functional fast-forward (sampled composition)
    # ------------------------------------------------------------------

    def _fast_forward(self, count: int) -> int:
        """``ReferenceSimulator.fast_forward``: caches, predictors and
        store state stay warm; no cycles elapse; stats untouched except
        the full-trace L1D/L2 counters (which the sampled estimator
        passes through unscaled)."""
        if (self.decode or self.rob_w or self.unresolved
                or self.blocking is not None):
            raise RuntimeError(
                "cannot fast-forward with instructions in flight; run "
                "the detailed window to completion first"
            )
        cols = self.cols
        start = self.fetch_ptr
        stop = min(start + count, cols.length)
        if stop <= start:
            return 0
        # Pending store-buffer drains precede (in cycle order) any L1D
        # touch this fast-forward performs.
        for sid in range(self.num_slices):
            self._catch_up_ticks(sid, self.now)
        flags = cols.flags
        pc4s = cols.pc4
        pcs = cols.pcs
        addrs = cols.addrs
        targets = cols.targets
        sid_of = self.sid
        home_of = self.home
        l1i_sets = self.l1i_sets
        l1d_sets = self.l1d_sets
        l1i_n, l1i_a = self.l1i_sets_n, self.l1i_assoc
        l1d_n, l1d_a = self.l1d_sets_n, self.l1d_assoc
        l1d_line = self.l1d_line
        gshare = self.gshare
        bp = self.bp
        btb = self.btb
        bp_entries = self.bp_entries
        btb_entries = self.btb_entries
        hist_mask = self.hist_mask
        l1i_last = self.l1i_last
        l1i_memo = self.l1i_memo
        num_slices = self.num_slices
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
                    self._l2_access(address)
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
                        index = (pc ^ self.hist[sid]) % bp_entries
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
                        self.hist[sid] = (((self.hist[sid] << 1)
                                           | int(taken)) & hist_mask)
                    target = targets[seq]
                    if taken and target >= 0:
                        btb[sid][pc % btb_entries] = target
                elif bits & F_MEM:
                    address = addrs[seq]
                    home = home_of[seq]
                    self.l1d_acc += 1
                    if not _cache_touch(l1d_sets[home], l1d_n, l1d_a,
                                        address // l1d_line):
                        self.l1d_miss += 1
                        self._l2_access(address)
        retired = stop - start
        self.fetch_ptr = stop
        self.next_seq = stop
        self.ff_retired += retired
        return retired

    # ------------------------------------------------------------------
    # drivers and results
    # ------------------------------------------------------------------

    def _stats(self) -> SimStats:
        """The run's SimStats; applies any outstanding lazy ticks."""
        for sid in range(self.num_slices):
            self._catch_up_ticks(sid, self.now)
        return SimStats(
            cycles=self.now,
            fetched=self.fetched,
            committed=self.committed,
            squashed=self.squashed_count,
            branches=self.branches,
            branch_mispredicts=self.mispredicts,
            l1i_accesses=self.l1i_acc,
            l1i_misses=self.l1i_miss,
            l1d_accesses=self.l1d_acc,
            l1d_misses=self.l1d_miss,
            l2_accesses=self.l2_hits + self.l2_misses,
            l2_misses=self.l2_misses,
            operand_requests=self.operand_requests,
            remote_operand_hops=self.remote_hops,
            lsq_violations=self.lsq_violations,
            store_forwards=self.store_forwards,
            stalls=StallBreakdown(
                fetch_icache=self.st_fetch_icache,
                fetch_buffer_full=self.st_fetch_buffer,
                fetch_branch_redirect=self.st_fetch_redirect,
                dispatch_rob_full=self.st_rob_full,
                dispatch_window_full=self.st_window_full,
                dispatch_freelist=self.st_freelist,
                dispatch_lrf_full=self.st_lrf_full,
                issue_lsq_full=self.st_issue_lsq_full,
            ),
        )

    def run(self) -> SimResult:
        """Simulate to the end of the trace; raises
        :class:`~repro.core.simulator.SimulationTimeout`."""
        self.run_to_commit(self.cols.length - self.ff_retired)
        return SimResult(
            benchmark=self.trace.metadata.benchmark,
            num_slices=self.num_slices,
            l2_cache_kb=self.l2_kb,
            stats=self._stats(),
        )

    def run_sampled(self, sampling: Any,
                    phase_lengths: Optional[Sequence[int]] = None
                    ) -> SimResult:
        """Sampled run on the planned schedule: an exhaustively timed
        head, then fast-forward gaps and detailed windows whose warmup
        prefix is discarded, extrapolated with
        :func:`~repro.sampling.sampled.extrapolate_sampled`.  The sampled
        reference loop on the object model (``tests/oracles/sampled.py``)
        pins every result.
        """
        from repro.sampling.policy import SamplingPolicy
        from repro.sampling.sampled import extrapolate_sampled

        policy = SamplingPolicy(sampling)
        total = self.cols.length
        schedule = (policy.plan_phases(phase_lengths)
                    if phase_lengths is not None else policy.plan(total))
        if schedule.exact:
            return self.run()
        cpis: List[float] = []
        head_cycles = 0
        position = 0
        head = schedule.head
        if head:
            self.fetch_limit = head
            self.run_to_commit(head)
            head_cycles = self.now
            position = head
        for window in schedule.windows:
            if window.start > position:
                self._fast_forward(window.start - position)
            base = self.committed
            self.fetch_limit = window.end
            self.run_to_commit(base + window.warmup)
            cycles_0, committed_0 = self.now, self.committed
            self.run_to_commit(base + len(window))
            cpis.append((self.now - cycles_0)
                        / (self.committed - committed_0))
            position = window.end
        if position < total:
            self._fast_forward(total - position)
        return extrapolate_sampled(
            benchmark=self.trace.metadata.benchmark,
            num_slices=self.num_slices,
            l2_cache_kb=self.l2_kb,
            total=total,
            schedule=schedule,
            sampling=sampling,
            stats=self._stats(),
            ff_retired=self.ff_retired,
            cpis=cpis,
            head_cycles=head_cycles,
        )
