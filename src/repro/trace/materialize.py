"""Materialized trace arrays and a process-local workload cache.

Two hot-path services for the simulator and the sweep engine:

* :func:`materialize` flattens a :class:`~repro.trace.records.Trace` into
  :class:`TraceArrays` - compact, preallocated ``array`` columns (PCs,
  memory addresses, packed flags) that the object model's functional
  fast-forward (``ReferenceSimulator.fast_forward``) walks without
  touching ``Instruction`` objects or property chains.  The arrays are
  built on first use and cached on the trace instance.

* :func:`get_workload` is a process-local LRU over generated workloads,
  keyed by (profile fields, length, seed, warmup multiplier).  Repeated
  work units inside one engine worker - or repeated experiment calls in
  one process - reuse the same generated trace instead of re-running the
  synthetic generator.  Hit/miss/eviction counters are exposed both as
  plain module state (:func:`cache_stats`) and through ``repro.obs``
  (:func:`attach_obs`).

Cached workloads are shared, so callers must treat the returned trace
and warmup stream as immutable (the simulator already does).
"""

from __future__ import annotations

import threading
import time
from array import array
from collections import OrderedDict
from dataclasses import asdict
from typing import Any, Dict, List, Sequence, Tuple, Union

from repro.trace.profiles import BenchmarkProfile, get_profile
from repro.trace.records import Trace

#: Packed per-instruction flag bits (see :class:`TraceArrays.flags`).
FLAG_BRANCH = 1
FLAG_TAKEN = 2
FLAG_LOAD = 4
FLAG_STORE = 8

#: Default number of workloads kept by the process-local LRU.  A workload
#: is O(length) instruction objects; 32 covers every benchmark in the
#: paper's figures at several lengths without unbounded growth.
DEFAULT_CAPACITY = 32


class TraceArrays:
    """Column-oriented view of a trace for the functional fast path.

    One entry per dynamic instruction:

    * ``pcs``       - program counters (``array('q')``);
    * ``mem_addrs`` - effective address, or ``-1`` for non-memory ops;
    * ``flags``     - packed ``FLAG_*`` bits (``array('b')``);
    * ``targets``   - taken-branch target PC, or ``-1``.
    """

    __slots__ = ("length", "pcs", "mem_addrs", "flags", "targets")

    def __init__(self, trace: Sequence) -> None:
        n = len(trace)
        self.length = n
        pcs = array("q", bytes(8 * n))
        mem_addrs = array("q", bytes(8 * n))
        flags = array("b", bytes(n))
        targets = array("q", bytes(8 * n))
        for i, inst in enumerate(trace):
            pcs[i] = inst.pc
            bits = 0
            if inst.mem is not None:
                mem_addrs[i] = inst.mem.address
                bits |= FLAG_STORE if inst.is_store else FLAG_LOAD
            else:
                mem_addrs[i] = -1
            if inst.is_branch:
                bits |= FLAG_BRANCH
                if inst.taken:
                    bits |= FLAG_TAKEN
            targets[i] = inst.target if inst.target is not None else -1
            flags[i] = bits
        self.pcs = pcs
        self.mem_addrs = mem_addrs
        self.flags = flags
        self.targets = targets

    def __len__(self) -> int:
        return self.length


#: Full-fidelity content tokens are computed for traces up to this many
#: instructions; beyond it :func:`trace_token` samples element
#: identities (the token check runs on the per-window fast-forward
#: path, and a full O(n) walk over a millions-long trace would cost as
#: much as the window itself).
_TOKEN_FULL_MAX = 65536
_TOKEN_PROBES = 4096


def trace_token(trace: Trace) -> int:
    """Identity fingerprint of a trace's instruction stream.

    Replacing any element of a small trace changes the token;
    for traces above ``_TOKEN_FULL_MAX`` a strided sample of element
    identities (plus length and endpoints) is fingerprinted instead.
    """
    insts = trace._instructions
    n = len(insts)
    if n <= _TOKEN_FULL_MAX:
        return hash((n, tuple(map(id, insts))))
    step = max(1, n // _TOKEN_PROBES)
    probes = tuple(id(insts[i]) for i in range(0, n, step))
    return hash((n, id(insts), id(insts[-1]), probes))


def materialize(trace: Trace) -> TraceArrays:
    """The trace's :class:`TraceArrays`, built once and cached on it.

    The memo is keyed on the trace's *content identity*
    (:func:`trace_token`), not just its length, so a trace mutated in
    place can never serve stale columns.
    """
    token = trace_token(trace)
    arrays = getattr(trace, "_materialized", None)
    if (arrays is not None and arrays.length == len(trace)
            and getattr(trace, "_materialized_token", None) == token):
        return arrays
    arrays = TraceArrays(trace)
    trace._materialized = arrays  # type: ignore[attr-defined]
    trace._materialized_token = token  # type: ignore[attr-defined]
    return arrays


# ----------------------------------------------------------------------
# process-local workload LRU
# ----------------------------------------------------------------------

ProfileLike = Union[str, BenchmarkProfile]
WorkloadKey = Tuple[Any, ...]

_lock = threading.Lock()
_lru: "OrderedDict[WorkloadKey, Tuple[List[int], Trace]]" = OrderedDict()
_capacity = DEFAULT_CAPACITY
_hits = 0
_misses = 0
_evictions = 0
_generations = 0
_generation_s = 0.0


def _profile_fields(profile: ProfileLike) -> Tuple[Tuple[str, Any], ...]:
    if isinstance(profile, str):
        profile = get_profile(profile)
    return tuple(sorted(asdict(profile).items()))


def workload_key(profile: ProfileLike, length: int, seed: int = 0,
                 warmup_cold_multiplier: float = 4.0) -> WorkloadKey:
    """The LRU (and cache-fingerprint) key of one generated workload."""
    return (_profile_fields(profile), int(length), int(seed),
            float(warmup_cold_multiplier))


def get_workload(profile: ProfileLike, length: int, seed: int = 0,
                 warmup_cold_multiplier: float = 4.0
                 ) -> Tuple[List[int], Trace]:
    """A ``(warmup_addresses, trace)`` pair from the process-local LRU,
    generated on a miss.

    Generation is identical to
    :func:`repro.trace.generator.make_workload`; only the redundant
    re-generation is elided.
    """
    global _hits, _misses, _evictions, _generations, _generation_s
    key = workload_key(profile, length, seed, warmup_cold_multiplier)
    with _lock:
        cached = _lru.get(key)
        if cached is not None:
            _lru.move_to_end(key)
            _hits += 1
            return cached

    # Generate outside the lock: generation is seconds-scale and pure.
    from repro.trace.generator import SyntheticTraceGenerator

    start = time.monotonic()
    prof = get_profile(profile) if isinstance(profile, str) else profile
    generator = SyntheticTraceGenerator(prof, seed=int(seed))
    warmup = generator.warmup_addresses(float(warmup_cold_multiplier))
    trace = generator.generate(int(length))
    entry = (warmup, trace)
    with _lock:
        _generations += 1
        _generation_s += time.monotonic() - start
        _misses += 1
        _lru[key] = entry
        _lru.move_to_end(key)
        while len(_lru) > _capacity:
            _lru.popitem(last=False)
            _evictions += 1
    return entry


def set_capacity(capacity: int) -> None:
    """Resize the LRU (evicting oldest entries if shrinking)."""
    global _capacity, _evictions
    if capacity < 1:
        raise ValueError("LRU capacity must be >= 1")
    with _lock:
        _capacity = capacity
        while len(_lru) > _capacity:
            _lru.popitem(last=False)
            _evictions += 1


def clear() -> None:
    """Drop every cached workload and zero the counters."""
    global _hits, _misses, _evictions, _generations, _generation_s
    with _lock:
        _lru.clear()
        _hits = 0
        _misses = 0
        _evictions = 0
        _generations = 0
        _generation_s = 0.0


def cache_stats() -> Dict[str, Any]:
    """Current LRU counters: hits, misses, evictions, size, capacity,
    plus the process's generator invocations and time."""
    with _lock:
        return {
            "hits": _hits,
            "misses": _misses,
            "evictions": _evictions,
            "size": len(_lru),
            "capacity": _capacity,
            "generations": _generations,
            "generation_s": _generation_s,
        }


def attach_obs(scope) -> None:
    """Register the LRU counters as gauges on a ``repro.obs`` scope."""
    scope.gauge("hits", lambda: _hits)
    scope.gauge("misses", lambda: _misses)
    scope.gauge("evictions", lambda: _evictions)
    scope.gauge("size", lambda: len(_lru))
    scope.gauge("generations", lambda: _generations)
    scope.info("capacity", _capacity)
