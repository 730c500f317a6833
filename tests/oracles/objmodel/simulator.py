"""The object-model SSim: the oracle of the production simulator core.

Models every subsystem of the Sharing Architecture per cycle:

* **fetch** - interleaved two-per-Slice fetch with per-Slice bimodal
  predictor + BTB and an L1 I-cache with next-line prefetch (Section 3.1,
  3.5); a stall anywhere in the front end stalls every Slice.
* **rename** - two-stage global/local rename; multi-Slice VCores pay the
  master-broadcast pipeline depth (Section 3.2); remote source operands
  generate request/reply traffic on the Scalar Operand Network and are
  cached in the consumer's LRF.
* **issue** - separate per-Slice ALU and memory windows; oldest-first
  ready selection with the one-cycle-early remote wakeup folded into
  operand arrival times (Section 3.3).
* **execute** - one ALU (+ multiplier) and one load/store unit per Slice;
  operand transport on the switched SON at 2 cycles nearest-neighbour
  plus 1 per extra hop (Section 3.4).
* **memory** - loads/stores sorted to their address-interleaved home
  Slice, unordered age-tagged LSQ banks with store-commit violation
  search, store buffers, non-blocking caches, distance-priced L2 banks
  (Sections 3.5-3.6).
* **commit** - distributed ROB with Core Fusion style pre-commit pointer
  synchronisation (Section 3.7).

The simulator is trace-driven: wrong-path instructions are not executed;
a mispredicted branch instead stalls fetch until resolution plus the
redirect penalty, and a memory-order violation squashes and refetches
from the violating load.

Two cores implement this model with bit-identical ``SimStats``: the
production structure-of-arrays core in :mod:`repro.core.batched`, which
every :func:`repro.core.simulator.simulate` call runs, and
:class:`ReferenceSimulator` here, the object model it is checked
against.  With an enabled ``obs`` both publish the same ``sim.*``
counters and per-instruction trace events.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import SimConfig
from repro.core.rename import rename_pipeline_depth
from repro.core.simulator import SimResult, SimulationTimeout, _resolve_config
from repro.core.stats import SimStats
from repro.isa import Instruction, OpClass
from repro.obs import OBS_OFF, Observability
from repro.trace.records import (
    FLAG_BRANCH, FLAG_MEM, FLAG_STORE, FLAG_TAKEN, Trace,
)
from tests.oracles.objmodel.dyninst import NEVER, PENDING, DynInst
from tests.oracles.objmodel.rename import RenameStallError
from tests.oracles.objmodel.vcore import VCore


class ReferenceSimulator:
    """The object-model SSim: one ``DynInst`` per in-flight instruction.

    The equivalence reference for the production
    :class:`~repro.core.simulator.SharingSimulator` (every ``SimStats``
    field, ``obs`` counter and trace event must match).  ``obs``
    attaches the component counters and, when tracing, the
    pipeline/cache/network event stream.  Takes the same keywords as
    ``SharingSimulator``.
    """

    def __init__(self, trace: Trace, config: Optional[SimConfig] = None,
                 num_slices: Optional[int] = None,
                 l2_cache_kb: Optional[float] = None,
                 warmup_addresses: Optional[Sequence[int]] = None,
                 timeout: Optional[int] = None,
                 obs: Optional[Observability] = None):
        self.trace = trace
        self.config = _resolve_config(config, num_slices, l2_cache_kb,
                                      timeout)
        self.vcore = VCore(self.config)
        self.stats = SimStats()
        if warmup_addresses is not None:
            self._warm_data_caches(warmup_addresses)

        # Observability: attach after warmup so gauges read timed-region
        # counters.  With OBS_OFF everything binds to shared null objects
        # and the cycle loop's emit calls are no-ops (see repro.obs).
        self.obs = obs if obs is not None else OBS_OFF
        self._tracer = self.obs.tracer
        if self.obs.enabled:
            self.vcore.attach_obs(self.obs.registry.scope("sim"),
                                  tracer=self._tracer)
            for sid in range(self.vcore.num_slices):
                self._tracer.set_thread_name(sid, f"slice{sid}")

        self._rename_depth = rename_pipeline_depth(
            self.vcore.num_slices,
            global_extra=self.config.global_rename_depth,
        )
        self._now = 0
        self._fetch_ptr = 0
        #: fetch stops at this trace position (the sampled reference loop
        #: bounds each detailed window; exact runs leave it at the trace
        #: length)
        self._fetch_limit = len(trace)
        self._fetch_stall_until = 0
        self._blocking_branch: Optional[DynInst] = None
        self._next_dispatch_seq = 0
        #: decoded instructions in program order, waiting to dispatch
        self._decode_queue = deque()
        #: per-Slice instruction-buffer occupancy
        self._buf_count = [0] * self.vcore.num_slices
        #: global logical reg -> producing DynInst (until the reg is freed)
        self._producer_of: Dict[int, DynInst] = {}
        #: completion events batched per cycle: cycle -> [DynInst, ...]
        #: in schedule order.  Completions are always scheduled strictly
        #: in the future, so a per-cycle bucket pop replaces the heap
        #: (same ordering: cycle major, insertion order minor).
        self._completion_buckets: Dict[int, List[DynInst]] = {}
        #: stores dispatched but not yet address-resolved (ordered-LSQ
        #: ablation: loads wait for all older entries here)
        self._unresolved_stores: set = set()
        #: instructions retired by functional fast-forward (not timed)
        self.ff_retired = 0

        # Hot-loop hoists: every per-cycle stage reads these instead of
        # chasing config attribute chains.
        s_cfg = self.config.slice_config
        self._slices = self.vcore.slices
        self._hierarchies = [ctx.hierarchy for ctx in self._slices]
        self._fetch_width = s_cfg.fetch_width
        self._buffer_cap = s_cfg.instruction_buffer_size
        self._commit_budget = s_cfg.commit_width * self.vcore.num_slices
        self._mul_latency = s_cfg.mul_latency
        self._decode_latency = (self.config.frontend_depth
                                + self._rename_depth)
        self._issue_head_seq = -1
        self._mem_can_issue_bound = self._mem_can_issue

    def _warm_data_caches(self, addresses: Sequence[int]) -> None:
        """Replay a read-address stream through L1D + L2 (no timing).

        Also brings the code footprint to steady state: looping code is
        L1I-resident after the first iteration, so the timed region's own
        PC stream is replayed through each Slice's I-cache and the L2.

        This loop streams millions of addresses for cache-hungry
        profiles, so the per-access lookups are hoisted out of it.
        """
        vcore = self.vcore
        num_slices = vcore.num_slices
        line_size = vcore.lsq.line_size  # home_slice(), inlined
        l1d_access = [ctx.hierarchy.l1d.access for ctx in vcore.slices]
        l1i_access = [ctx.l1i.access for ctx in vcore.slices]
        l2_access = vcore.l2.access
        fetch_width = self.config.slice_config.fetch_width
        for address in addresses:
            home = (address // line_size) % num_slices
            if not l1d_access[home](address).hit:
                l2_access(address)
        for pc in self.trace.pcs:
            sid = (pc // fetch_width) % num_slices
            if not l1i_access[sid](pc * 4).hit:
                l2_access(pc * 4)
        for ctx in vcore.slices:
            ctx.hierarchy.l1d.reset_counters()
            ctx.l1i.reset_counters()
        for bank in vcore.l2.banks:
            bank.reset_counters()

    # ==================================================================
    # public API
    # ==================================================================

    def run(self) -> SimResult:
        """Simulate until the rest of the trace commits.

        Instructions already functionally fast-forwarded count as
        retired, not committed, so the commit target excludes them.
        """
        self.run_to_commit(len(self.trace) - self.ff_retired)
        self._harvest_cache_stats()
        return SimResult(
            benchmark=self.trace.metadata.benchmark,
            num_slices=self.vcore.num_slices,
            l2_cache_kb=self.vcore.l2_cache_kb,
            stats=self.stats,
        )

    def run_to_commit(self, target: int) -> None:
        """Step the detailed model until ``target`` instructions committed.

        ``target`` counts detailed commits only (fast-forwarded
        instructions are excluded); the sampled reference loop
        (``tests/oracles/sampled.py``) uses this to run one bounded
        detail window at a time.
        """
        max_cycles = self.config.max_cycles
        stats = self.stats
        step = self._step
        while stats.committed < target:
            if self._now >= max_cycles:
                raise SimulationTimeout(
                    f"{stats.committed}/{target} committed after "
                    f"{self._now} cycles"
                )
            step()

    # ==================================================================
    # functional fast-forward (sampled simulation)
    # ==================================================================

    def fast_forward(self, count: int) -> int:
        """Retire the next ``count`` instructions functionally.

        No scheduling machinery runs and no cycles elapse; caches (L1I,
        L1D, L2), the branch predictors/BTBs and the store state stay
        warm exactly as the paper's fast-forward phase would leave them.
        The pipeline must be drained (every fetched instruction
        committed) before skipping ahead.  Returns the number of
        instructions actually fast-forwarded (clipped at trace end).

        ``self.stats`` is untouched: fast-forwarded instructions are
        accounted separately in :attr:`ff_retired`, and the component
        counters they advance (cache hits/misses, predictor training)
        are excluded by the sampled estimator's per-window deltas.
        """
        self._require_drained()
        trace = self.trace
        start = self._fetch_ptr
        stop = min(start + count, len(trace))
        if stop <= start:
            return 0

        pcs = trace.pcs
        mem_addrs = trace.mem_addrs
        flags = trace.flags
        targets = trace.targets
        vcore = self.vcore
        slices = self._slices
        num_slices = vcore.num_slices
        fetch_width = self._fetch_width
        by_pc = self.config.fetch_assignment == "pc"
        l2_access = vcore.l2.access
        home_slice = vcore.lsq.home_slice
        l1i = [ctx.l1i for ctx in slices]
        l1d = [ctx.hierarchy.l1d for ctx in slices]
        branch_units = [ctx.branch_unit for ctx in slices]
        # Detailed fetch runs a next-line prefetch on every L1I access
        # (see _icache_fetch); skipping it here would hand the next
        # detailed window a prefetch-cold I-cache and bias its CPI up.
        prefetch_stride = 2 * 4 * num_slices

        for seq in range(start, stop):
            pc = pcs[seq]
            if by_pc:
                sid = (pc // fetch_width) % num_slices
            else:
                sid = (seq // fetch_width) % num_slices
            address = pc * 4
            cache = l1i[sid]
            if not cache.access(address).hit:
                l2_access(address)
            cache.prefetch(address + prefetch_stride)
            bits = flags[seq]
            if bits & FLAG_BRANCH:
                taken = bool(bits & FLAG_TAKEN)
                target = targets[seq]
                unit = branch_units[sid]
                unit.resolve(pc, taken,
                             target if target >= 0 else None,
                             unit.predict(pc))
            elif bits & FLAG_MEM:
                address = mem_addrs[seq]
                is_store = bool(bits & FLAG_STORE)
                home = home_slice(address)
                if not l1d[home].access(address,
                                        is_write=is_store).hit:
                    l2_access(address, is_write=is_store)
        retired = stop - start
        self._fetch_ptr = stop
        self._next_dispatch_seq = stop
        self.ff_retired += retired
        return retired

    def _require_drained(self) -> None:
        """Fast-forward is only legal between fully drained windows."""
        if (self._decode_queue or len(self.vcore.rob)
                or self._unresolved_stores
                or self._blocking_branch is not None):
            raise RuntimeError(
                "cannot fast-forward with instructions in flight; run "
                "the detailed window to completion first"
            )

    # ==================================================================
    # one cycle
    # ==================================================================

    def _step(self) -> None:
        now = self._now
        self._complete_stage(now)
        self._commit_stage(now)
        self._issue_stage(now)
        self._dispatch_stage(now)
        self._fetch_stage(now)
        for hierarchy in self._hierarchies:
            hierarchy.tick(now)
        self._now = now + 1
        self.stats.cycles = self._now

    # ------------------------------------------------------------------
    # complete
    # ------------------------------------------------------------------

    def _complete_stage(self, now: int) -> None:
        batch = self._completion_buckets.pop(now, None)
        if batch is None:
            return
        for dyn in batch:
            if dyn.squashed:
                continue
            self._on_complete(dyn, dyn.complete_cycle)

    def _slice_for(self, seq: int, pc: int) -> int:
        """Fetch-to-Slice assignment (ablation knob).

        "pc" is the paper's static interleave; "dynamic" rotates by
        dynamic position, scattering each static branch across Slices'
        predictors.
        """
        if self.config.fetch_assignment == "pc":
            return self.vcore.slice_for_fetch(pc)
        return (seq // self._fetch_width) % self.vcore.num_slices

    def _on_complete(self, dyn: DynInst, t: int) -> None:
        self._unresolved_stores.discard(dyn.seq)
        if dyn.op_class is OpClass.BRANCH:
            self._resolve_branch(dyn, t)
        # Wake local and remote consumers.
        for consumer, idx in dyn.waiters:
            if consumer.squashed:
                continue
            consumer.src_ready[idx] = self._operand_arrival(dyn, consumer, t)
        dyn.waiters.clear()

    def _resolve_branch(self, dyn: DynInst, t: int) -> None:
        ctx = self.vcore.slices[dyn.slice_id]
        inst = dyn.inst
        mispredicted = ctx.branch_unit.resolve(
            inst.pc, inst.taken, inst.target, dyn.predicted_taken
        )
        if mispredicted:
            dyn.mispredicted = True
            self.stats.branch_mispredicts += 1
            self._tracer.instant("branch_mispredict", ts=t, cat="core",
                                 tid=dyn.slice_id, args={"pc": inst.pc})
            if self._blocking_branch is dyn:
                self._blocking_branch = None
                self._fetch_stall_until = max(
                    self._fetch_stall_until,
                    t + self.config.mispredict_redirect,
                )

    def _operand_arrival(self, producer: DynInst, consumer: DynInst,
                         t: int) -> int:
        """Cycle the producer's value is usable by the consumer's Slice.

        Same-Slice consumers ride the bypass network (no cost).  Remote
        consumers sent an operand request at rename; the reply leaves once
        the value exists and the request has arrived (Section 3.2.2).  A
        value already cached in the consumer Slice's LRF costs nothing.
        """
        if producer.slice_id == consumer.slice_id:
            return t
        ctx = self.vcore.slices[consumer.slice_id]
        reg = producer.global_dst
        if reg is not None and reg in ctx.operand_arrival:
            return max(t, ctx.operand_arrival[reg])
        hop_lat = self.vcore.operand_latency(producer.slice_id,
                                             consumer.slice_id)
        request_arrives = consumer.dispatch_cycle + hop_lat
        arrival = max(t, request_arrives) + hop_lat
        self.stats.operand_requests += 1
        self.stats.remote_operand_hops += self.vcore.mesh.distance(
            producer.slice_id, consumer.slice_id
        )
        self._tracer.complete(
            "son.operand", ts=consumer.dispatch_cycle,
            dur=max(1, arrival - consumer.dispatch_cycle), cat="network",
            tid=producer.slice_id,
            args={"src": producer.slice_id, "dst": consumer.slice_id,
                  "reg": reg},
        )
        if reg is not None:
            ctx.operand_arrival[reg] = arrival
            ctx.lrf.allocate_remote(reg)
        return arrival

    # ------------------------------------------------------------------
    # commit
    # ------------------------------------------------------------------

    def _commit_stage(self, now: int) -> None:
        budget = self._commit_budget
        while budget > 0:
            head = self.vcore.rob.commit_eligible(now)
            if head is None:
                break
            if head.inst.is_store and not self._commit_store(head, now):
                break
            self._finalize_commit(head, now)
            budget -= 1

    def _commit_store(self, dyn: DynInst, now: int) -> bool:
        """Violation search plus store-buffer insertion; False = retry."""
        inst = dyn.inst
        assert inst.mem is not None
        home = self.vcore.lsq.home_slice(inst.mem.address)
        bank = self.vcore.lsq.banks[home]
        line = inst.mem.cache_line()

        # Entries still in the bank are live by construction (squashes
        # remove them eagerly); only loads that have actually executed by
        # now can have consumed stale data.
        violators = [
            v for v in bank.check_store_commit(dyn.seq, line)
            if v.resolved_cycle <= now
        ]
        if violators:
            oldest = min(v.seq for v in violators)
            self.stats.lsq_violations += len(violators)
            self._replay_from(oldest, now)

        ctx = self.vcore.slices[home]
        if not ctx.hierarchy.commit_store(inst.mem.address, now):
            return False  # store buffer full; retry next cycle
        bank.remove(dyn.seq)
        return True

    def _finalize_commit(self, dyn: DynInst, now: int) -> None:
        self.vcore.rob.pop_head()
        dyn.commit_cycle = now
        self.stats.committed += 1
        self._tracer.complete(
            dyn.op_class.name.lower(), ts=dyn.fetch_cycle,
            dur=max(1, now - dyn.fetch_cycle), cat="core",
            tid=dyn.slice_id, args={"seq": dyn.seq, "pc": dyn.inst.pc},
        )
        inst = dyn.inst
        if inst.is_load and inst.mem is not None:
            self.vcore.lsq.bank_for(inst.mem.address).remove(dyn.seq)
        if dyn.prior_mapping is not None:
            self._release_global(dyn.prior_mapping.global_reg)

    def _release_global(self, reg: int) -> None:
        """Free a global logical register everywhere."""
        self.vcore.global_rename.release(reg)
        self._producer_of.pop(reg, None)
        for ctx in self.vcore.slices:
            ctx.operand_arrival.pop(reg, None)
            ctx.lrf.release(reg)

    # ------------------------------------------------------------------
    # issue + execute
    # ------------------------------------------------------------------

    def _issue_stage(self, now: int) -> None:
        rob_head = self.vcore.rob.head()
        head_seq = rob_head.seq if rob_head else -1
        self._issue_head_seq = head_seq
        mem_predicate = self._mem_can_issue_bound
        for ctx in self._slices:
            alu, mem = ctx.issue_stage.issue_cycle_picks(
                now, mem_predicate=mem_predicate
            )
            if alu is not None:
                self._execute_alu(alu, now)
            if mem is not None:
                self._execute_mem(mem, now, force_lsq=(mem.seq == head_seq))

    def _mem_can_issue(self, dyn: DynInst) -> bool:
        inst = dyn.inst
        assert inst.mem is not None
        bank = self.vcore.lsq.bank_for(inst.mem.address)
        if bank.full and dyn.seq != self._issue_head_seq:
            self.stats.stalls.issue_lsq_full += 1
            return False
        if (self.config.ordered_lsq and inst.is_load
                and self._unresolved_stores
                and min(self._unresolved_stores) < dyn.seq):
            return False  # conservative: wait for older store addresses
        return True

    def _execute_alu(self, dyn: DynInst, now: int) -> None:
        dyn.issue_cycle = now
        latency = (self._mul_latency
                   if dyn.op_class is OpClass.MUL else 1)
        dyn.complete_cycle = now + latency
        self._schedule_completion(dyn)

    def _execute_mem(self, dyn: DynInst, now: int, force_lsq: bool) -> None:
        dyn.issue_cycle = now
        inst = dyn.inst
        assert inst.mem is not None
        address = inst.mem.address
        line = inst.mem.cache_line()
        home = self.vcore.lsq.home_slice(address)
        dyn.mem_home_slice = home
        sort_lat = self.vcore.sort_latency(dyn.slice_id, home)
        resolved = now + 1 + sort_lat  # address generation + sorting

        bank = self.vcore.lsq.banks[home]
        entry = bank.insert(dyn.seq, inst.is_store, line, resolved,
                            force=force_lsq)
        if entry is None:
            # Should not happen (predicate checked), but stay safe: retry.
            dyn.issue_cycle = NEVER
            ctx = self.vcore.slices[dyn.slice_id]
            ctx.issue_stage.insert(dyn)
            return

        if inst.is_store:
            dyn.complete_cycle = resolved
            self._schedule_completion(dyn)
            return

        forwarding = bank.find_forwarding_store(dyn.seq, line,
                                                before_cycle=resolved)
        if forwarding is not None:
            entry.forwarded_from = forwarding.seq
            dyn.forwarded_from = forwarding.seq
            self.stats.store_forwards += 1
            dyn.complete_cycle = resolved + 1
            self._tracer.complete(
                "mem.lsq_forward", ts=now,
                dur=max(1, dyn.complete_cycle - now), cat="cache",
                tid=home, args={"line": line, "seq": dyn.seq},
            )
        else:
            home_ctx = self.vcore.slices[home]
            outcome = home_ctx.hierarchy.access(address, is_write=False,
                                                now=resolved)
            return_lat = self.vcore.sort_latency(home, dyn.slice_id)
            dyn.complete_cycle = outcome.complete_cycle + return_lat
            self._tracer.complete(
                f"mem.{outcome.latency_class}", ts=now,
                dur=max(1, dyn.complete_cycle - now), cat="cache",
                tid=home, args={"line": line, "seq": dyn.seq},
            )
        self._schedule_completion(dyn)

    def _schedule_completion(self, dyn: DynInst) -> None:
        # Completions scheduled for the past or present are processed on
        # the *next* cycle's complete stage (the heap this replaces popped
        # entries with cycle <= now at the top of the following step), so
        # bucket them at max(complete_cycle, now + 1).
        cycle = dyn.complete_cycle
        now_next = self._now + 1
        if cycle < now_next:
            cycle = now_next
        bucket = self._completion_buckets.get(cycle)
        if bucket is None:
            self._completion_buckets[cycle] = [dyn]
        else:
            bucket.append(dyn)

    # ------------------------------------------------------------------
    # rename + dispatch
    # ------------------------------------------------------------------

    def _dispatch_stage(self, now: int) -> None:
        if not self._decode_queue:
            return
        quotas = [self._fetch_width] * self.vcore.num_slices
        while True:
            dyn = self._peek_dispatch()
            if dyn is None:
                return
            if dyn.rename_cycle > now:
                return
            sid = dyn.slice_id
            if quotas[sid] <= 0:
                return
            if not self._try_dispatch(dyn, now):
                return
            quotas[sid] -= 1
            self._next_dispatch_seq += 1

    def _peek_dispatch(self) -> Optional[DynInst]:
        """Next instruction in program order waiting in a fetch buffer."""
        if self._decode_queue:
            return self._decode_queue[0]
        return None

    def _try_dispatch(self, dyn: DynInst, now: int) -> bool:
        vcore = self.vcore
        ctx = vcore.slices[dyn.slice_id]
        stalls = self.stats.stalls
        if not vcore.rob.can_dispatch(dyn.slice_id):
            stalls.dispatch_rob_full += 1
            return False
        if ctx.issue_stage.window_for(dyn.op_class).full:
            stalls.dispatch_window_full += 1
            return False
        if vcore.global_rename.free_count == 0 and dyn.inst.writes_register:
            stalls.dispatch_freelist += 1
            return False

        inst = dyn.inst
        # --- source rename: find producers, register for wakeup ---
        src_ready: List[int] = [now + 1]  # dispatch-to-issue minimum
        pending: List[Tuple[DynInst, int]] = []
        for arch in inst.live_srcs():
            mapping = vcore.global_rename.lookup(arch)
            if mapping is None:
                continue  # architectural initial value, always ready
            producer = self._producer_of.get(mapping.global_reg)
            if producer is None or producer.is_committed:
                continue  # value long since architectural
            idx = len(src_ready)
            if producer.is_complete:
                dyn.dispatch_cycle = now  # needed by arrival computation
                src_ready.append(PENDING)  # fixed up right below
                pending.append((producer, idx))
            else:
                src_ready.append(PENDING)
                producer.waiters.append((dyn, idx))

        # --- destination rename ---
        if inst.writes_register:
            if not ctx.lrf.allocate_dst(-1):  # capacity probe
                stalls.dispatch_lrf_full += 1
                # undo waiter registrations made above
                self._unregister_waiters(dyn)
                return False
            ctx.lrf.release(-1)
            try:
                global_dst, prior = vcore.global_rename.allocate(
                    inst.dst, dyn.seq, dyn.slice_id
                )
            except RenameStallError:
                stalls.dispatch_freelist += 1
                self._unregister_waiters(dyn)
                return False
            dyn.global_dst = global_dst
            dyn.prior_mapping = prior
            ctx.lrf.allocate_dst(global_dst)
            self._producer_of[global_dst] = dyn

        dyn.dispatch_cycle = now
        dyn.src_ready = src_ready
        if inst.is_store:
            self._unresolved_stores.add(dyn.seq)
        for producer, idx in pending:
            src_ready[idx] = self._operand_arrival(
                producer, dyn, producer.complete_cycle
            )

        if not vcore.rob.dispatch(dyn):
            raise AssertionError("ROB capacity checked above")
        ctx.issue_stage.insert(dyn)
        self._decode_queue.popleft()
        self._buf_count[dyn.slice_id] -= 1
        return True

    def _unregister_waiters(self, dyn: DynInst) -> None:
        for producer in self._producer_of.values():
            producer.waiters = [
                (c, i) for c, i in producer.waiters if c is not dyn
            ]

    # ------------------------------------------------------------------
    # fetch
    # ------------------------------------------------------------------

    def _fetch_stage(self, now: int) -> None:
        if self._blocking_branch is not None:
            self.stats.stalls.fetch_branch_redirect += 1
            return
        if now < self._fetch_stall_until:
            self.stats.stalls.fetch_branch_redirect += 1
            return
        quotas = [self._fetch_width] * self.vcore.num_slices
        buffer_cap = self._buffer_cap
        buf_count = self._buf_count
        trace = self.trace
        while self._fetch_ptr < self._fetch_limit:
            seq = self._fetch_ptr
            inst = trace[seq]
            sid = self._slice_for(seq, inst.pc)
            if quotas[sid] <= 0:
                break
            ctx = self._slices[sid]
            if buf_count[sid] >= buffer_cap:
                self.stats.stalls.fetch_buffer_full += 1
                break
            if not self._icache_fetch(ctx, inst, now):
                self.stats.stalls.fetch_icache += 1
                break
            dyn = DynInst(inst=inst, slice_id=sid, fetch_cycle=now)
            dyn.rename_cycle = now + self._decode_latency
            self._decode_queue.append(dyn)
            self._buf_count[sid] += 1
            self.stats.fetched += 1
            quotas[sid] -= 1
            self._fetch_ptr += 1
            if inst.is_branch:
                self.stats.branches += 1
                predicted = ctx.branch_unit.predict(inst.pc)
                dyn.predicted_taken = predicted
                if predicted != inst.taken:
                    # Wrong path: stall fetch until the branch resolves.
                    self._blocking_branch = dyn
                    break

    def _icache_fetch(self, ctx, inst: Instruction, now: int) -> bool:
        """Access the Slice's L1I; on a miss, stall fetch until the fill.

        A next-line predictor runs ahead of fetch on every access
        (Section 3.5: "a next line predictor is used to prefetch the next
        instruction according to the number of Slices"): each Slice's
        consecutive fetch pairs are ``2 * num_slices`` instructions apart,
        so the prefetch stride follows the Slice count.
        """
        address = inst.pc * 4
        stride = 2 * 4 * self.vcore.num_slices
        self.stats.l1i_accesses += 1
        result = ctx.l1i.access(address)
        ctx.l1i.prefetch(address + stride)
        if result.hit:
            return True
        self.stats.l1i_misses += 1
        l2_result, l2_lat = self.vcore.l2.access(address)
        delay = ctx.l1i.hit_latency + l2_lat
        if not l2_result.hit:
            delay += self.config.cache_config.memory_delay
        self._fetch_stall_until = now + delay
        self._tracer.complete(
            "l1i_miss", ts=now, dur=delay, cat="cache", tid=ctx.slice_id,
            args={"pc": inst.pc, "l2_hit": l2_result.hit},
        )
        return False

    # ------------------------------------------------------------------
    # squash / replay (memory-order violation)
    # ------------------------------------------------------------------

    def _replay_from(self, victim_seq: int, now: int) -> None:
        """Squash ``victim_seq`` and everything younger; refetch."""
        vcore = self.vcore
        squashed = vcore.rob.squash_younger(victim_seq - 1)
        # Roll global rename back youngest-first so the RAT unwinds.
        for dyn in squashed:
            if dyn.global_dst is not None:
                vcore.global_rename.rollback(
                    dyn.inst.dst, dyn.global_dst, dyn.prior_mapping
                )
                self._producer_of.pop(dyn.global_dst, None)
                for ctx in vcore.slices:
                    ctx.operand_arrival.pop(dyn.global_dst, None)
                    ctx.lrf.release(dyn.global_dst)
        for ctx in vcore.slices:
            ctx.issue_stage.squash_younger(victim_seq - 1)
        while self._decode_queue and self._decode_queue[-1].seq >= victim_seq:
            victim = self._decode_queue.pop()
            victim.squashed = True
            self._buf_count[victim.slice_id] -= 1
        vcore.lsq.squash_younger(victim_seq - 1)
        self._unresolved_stores = {
            s for s in self._unresolved_stores if s < victim_seq
        }
        self.stats.squashed += len(squashed)
        self._tracer.instant(
            "squash_replay", ts=now, cat="core",
            args={"victim_seq": victim_seq, "squashed": len(squashed)},
        )
        if (self._blocking_branch is not None
                and self._blocking_branch.seq >= victim_seq):
            self._blocking_branch = None
        self._fetch_ptr = victim_seq
        self._next_dispatch_seq = victim_seq
        self._fetch_stall_until = max(
            self._fetch_stall_until, now + self.config.mispredict_redirect
        )

    # ------------------------------------------------------------------
    # final statistics
    # ------------------------------------------------------------------

    def _harvest_cache_stats(self) -> None:
        stats = self.stats
        for ctx in self.vcore.slices:
            stats.l1d_accesses += ctx.hierarchy.l1d.accesses
            stats.l1d_misses += ctx.hierarchy.l1d.misses
        stats.l2_accesses = self.vcore.l2.hits + self.vcore.l2.misses
        stats.l2_misses = self.vcore.l2.misses

