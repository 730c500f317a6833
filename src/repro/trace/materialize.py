"""The process-local workload cache.

:func:`get_workload` is a process-local LRU over generated workloads,
keyed by (profile fields, length, seed, warmup multiplier).  Repeated
work units inside one engine worker - or repeated experiment calls in
one process - reuse the same generated trace instead of re-running the
synthetic generator.  Hit/miss/eviction counters are exposed both as
plain module state (:func:`cache_stats`) and through ``repro.obs``
(:func:`attach_obs`).

Cached workloads are shared; a :class:`~repro.trace.records.Trace` is
immutable and the simulators never modify a warmup stream.

:func:`materialize` predates columnar traces: a trace's columns are now
its data, so it returns the trace itself.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import asdict
from typing import Any, Dict, List, Tuple, Union

from repro.trace.profiles import BenchmarkProfile, get_profile
from repro.trace.records import Trace

#: Default number of workloads kept by the process-local LRU.  A workload
#: is O(length) column entries; 32 covers every benchmark in the paper's
#: figures at several lengths without unbounded growth.
DEFAULT_CAPACITY = 32


def materialize(trace: Trace) -> Trace:
    """The trace's columns (``pcs``, ``mem_addrs``, ``flags``,
    ``targets``, ...): the trace itself."""
    return trace


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
