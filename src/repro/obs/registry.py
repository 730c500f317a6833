"""Hierarchical instrument registry: counters, gauges, timers, histograms.

The registry is the passive half of the observability layer (the event
tracer in :mod:`repro.obs.tracer` is the active half).  Components
*attach* to a :class:`Scope` - a dotted-path view into one shared
:class:`Registry` - and either

* pre-bind :class:`Counter`/:class:`Timer`/:class:`Histogram` instruments
  at attach time (one attribute store, then ``inc()``/``observe()`` on
  the hot path), or
* register a :class:`Gauge` over an existing plain-``int`` statistic
  (``cache.hits`` and friends), which costs *nothing* on the hot path:
  the callable is only sampled when :meth:`Registry.snapshot` runs.

Overhead contract
-----------------
When observability is disabled every component holds the module-level
:data:`NULL_SCOPE` singleton instead of a real scope.  Its factory
methods return shared null instruments whose mutators are empty
one-liners, and gauge registration is a no-op - so the disabled fast
path is a single dynamically-dispatched no-op call at worst, and zero
work for gauge-instrumented components.  Nothing in this module ever
mutates the simulated or swept state, so enabling observability cannot
change results (regression-tested for bit-identity).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence

#: Histograms keep at most this many raw samples; beyond it the sample
#: list is thinned deterministically (every other sample dropped) while
#: count/sum/min/max stay exact.
DEFAULT_HISTOGRAM_SAMPLES = 4096


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Stable distribution summary used across metrics exports."""
    if not values:
        return {"count": 0, "mean": 0.0, "min": 0.0, "p50": 0.0,
                "p90": 0.0, "p99": 0.0, "max": 0.0}
    ordered = sorted(values)
    n = len(ordered)

    def pct(p: float) -> float:
        return ordered[min(n - 1, int(p * n))]

    return {
        "count": n,
        "mean": sum(ordered) / n,
        "min": ordered[0],
        "p50": pct(0.50),
        "p90": pct(0.90),
        "p99": pct(0.99),
        "max": ordered[-1],
    }


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "value")

    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def snapshot(self) -> Dict[str, Any]:
        return {"type": self.kind, "value": self.value}


class Gauge:
    """A value sampled from a callable only at snapshot time."""

    __slots__ = ("name", "fn")

    kind = "gauge"

    def __init__(self, name: str, fn: Callable[[], Any]):
        self.name = name
        self.fn = fn

    @property
    def value(self) -> Any:
        return self.fn()

    def snapshot(self) -> Dict[str, Any]:
        return {"type": self.kind, "value": self.fn()}


class Timer:
    """Accumulated wall time over a code region (context manager)."""

    __slots__ = ("name", "count", "total_s", "_t0")

    kind = "timer"

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total_s = 0.0
        self._t0 = 0.0

    def __enter__(self) -> "Timer":
        import time
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        import time
        self.total_s += time.perf_counter() - self._t0
        self.count += 1

    def add(self, seconds: float) -> None:
        """Record an externally measured duration."""
        self.total_s += seconds
        self.count += 1

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, Any]:
        return {"type": self.kind, "count": self.count,
                "total_s": self.total_s, "mean_s": self.mean_s}


class Histogram:
    """A bounded-memory value distribution.

    ``count``/``total``/``min``/``max`` are exact; quantiles come from a
    deterministically thinned sample list (no randomness, so repeated
    runs summarize identically).
    """

    __slots__ = ("name", "count", "total", "min", "max",
                 "_samples", "_max_samples", "_stride", "_skip")

    kind = "histogram"

    def __init__(self, name: str,
                 max_samples: int = DEFAULT_HISTOGRAM_SAMPLES):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._samples: List[float] = []
        self._max_samples = max_samples
        self._stride = 1  # keep every _stride'th observation
        self._skip = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if self._skip:
            self._skip -= 1
            return
        self._skip = self._stride - 1
        self._samples.append(value)
        if len(self._samples) >= self._max_samples:
            # Thin deterministically: drop every other retained sample.
            self._samples = self._samples[::2]
            self._stride *= 2

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        return ordered[min(len(ordered) - 1, int(p * len(ordered)))]

    def snapshot(self) -> Dict[str, Any]:
        out = summarize(self._samples)
        # Exact moments override the sampled approximations.
        out.update({
            "type": self.kind,
            "count": self.count,
            "mean": self.mean,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
        })
        return out


class Scope:
    """A dotted-path view into a registry that components attach to."""

    __slots__ = ("_registry", "_prefix")

    enabled = True

    def __init__(self, registry: "Registry", prefix: str = ""):
        self._registry = registry
        self._prefix = prefix

    def _path(self, name: str) -> str:
        return f"{self._prefix}.{name}" if self._prefix else name

    def scope(self, name: str) -> "Scope":
        return Scope(self._registry, self._path(name))

    def counter(self, name: str) -> Counter:
        return self._registry.counter(self._path(name))

    def gauge(self, name: str, fn: Callable[[], Any]) -> Gauge:
        return self._registry.gauge(self._path(name), fn)

    def timer(self, name: str) -> Timer:
        return self._registry.timer(self._path(name))

    def histogram(self, name: str,
                  max_samples: int = DEFAULT_HISTOGRAM_SAMPLES) -> Histogram:
        return self._registry.histogram(self._path(name),
                                        max_samples=max_samples)

    def info(self, name: str, value: Any) -> None:
        """Record static metadata (configuration, not measurement)."""
        self._registry.info(self._path(name), value)


class Registry:
    """Flat name -> instrument store with hierarchical dotted paths."""

    enabled = True

    def __init__(self) -> None:
        self._instruments: Dict[str, Any] = {}
        self._info: Dict[str, Any] = {}

    def _get_or_create(self, path: str, kind, *args):
        instrument = self._instruments.get(path)
        if instrument is None:
            instrument = kind(path, *args)
            self._instruments[path] = instrument
        elif not isinstance(instrument, kind):
            raise TypeError(
                f"{path!r} already registered as "
                f"{type(instrument).__name__}, not {kind.__name__}"
            )
        return instrument

    def scope(self, prefix: str = "") -> Scope:
        return Scope(self, prefix)

    def counter(self, path: str) -> Counter:
        return self._get_or_create(path, Counter)

    def gauge(self, path: str, fn: Callable[[], Any]) -> Gauge:
        gauge = Gauge(path, fn)
        self._instruments[path] = gauge  # rebinding a gauge is fine
        return gauge

    def timer(self, path: str) -> Timer:
        return self._get_or_create(path, Timer)

    def histogram(self, path: str,
                  max_samples: int = DEFAULT_HISTOGRAM_SAMPLES) -> Histogram:
        return self._get_or_create(path, Histogram, max_samples)

    def info(self, path: str, value: Any) -> None:
        self._info[path] = value

    def drop(self, prefix: str) -> None:
        """Forget every instrument and info entry under ``prefix``
        (the path itself and its dotted descendants), so a component
        that republishes its subtree leaves nothing stale behind."""
        for table in (self._instruments, self._info):
            for path in [p for p in table
                         if p == prefix or p.startswith(prefix + ".")]:
                del table[path]

    def names(self) -> List[str]:
        return sorted(self._instruments)

    def get(self, path: str) -> Optional[Any]:
        return self._instruments.get(path)

    def snapshot(self) -> Dict[str, Any]:
        """``{path: instrument snapshot}``, plus an ``info`` section."""
        out: Dict[str, Any] = {
            path: self._instruments[path].snapshot()
            for path in sorted(self._instruments)
        }
        if self._info:
            out["info"] = dict(sorted(self._info.items()))
        return out

    def as_tree(self) -> Dict[str, Any]:
        """The snapshot nested by dotted-path components."""
        tree: Dict[str, Any] = {}
        for path, snap in self.snapshot().items():
            if path == "info":
                tree["info"] = snap
                continue
            node = tree
            parts = path.split(".")
            for part in parts[:-1]:
                node = node.setdefault(part, {})
            node[parts[-1]] = snap
        return tree


# ----------------------------------------------------------------------
# Null objects: the disabled fast path.
# ----------------------------------------------------------------------

class NullCounter:
    __slots__ = ()
    kind = "counter"
    name = "null"
    value = 0

    def inc(self, n: int = 1) -> None:
        pass

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "counter", "value": 0}


class NullTimer:
    __slots__ = ()
    kind = "timer"
    name = "null"
    count = 0
    total_s = 0.0
    mean_s = 0.0

    def __enter__(self) -> "NullTimer":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def add(self, seconds: float) -> None:
        pass

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "timer", "count": 0, "total_s": 0.0, "mean_s": 0.0}


class NullHistogram:
    __slots__ = ()
    kind = "histogram"
    name = "null"
    count = 0
    total = 0.0
    mean = 0.0
    min = None
    max = None

    def observe(self, value: float) -> None:
        pass

    def percentile(self, p: float) -> float:
        return 0.0

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "histogram", "count": 0}


_NULL_COUNTER = NullCounter()
_NULL_TIMER = NullTimer()
_NULL_HISTOGRAM = NullHistogram()


class NullScope:
    """Shared do-nothing scope held by un-instrumented components."""

    __slots__ = ()

    enabled = False

    def scope(self, name: str) -> "NullScope":
        return self

    def counter(self, name: str) -> NullCounter:
        return _NULL_COUNTER

    def gauge(self, name: str, fn: Callable[[], Any]) -> None:
        return None

    def timer(self, name: str) -> NullTimer:
        return _NULL_TIMER

    def histogram(self, name: str, max_samples: int = 0) -> NullHistogram:
        return _NULL_HISTOGRAM

    def info(self, name: str, value: Any) -> None:
        pass


class NullRegistry:
    """Registry stand-in when observability is disabled."""

    __slots__ = ()

    enabled = False

    def scope(self, prefix: str = "") -> NullScope:
        return NULL_SCOPE

    def counter(self, path: str) -> NullCounter:
        return _NULL_COUNTER

    def gauge(self, path: str, fn: Callable[[], Any]) -> None:
        return None

    def timer(self, path: str) -> NullTimer:
        return _NULL_TIMER

    def histogram(self, path: str, max_samples: int = 0) -> NullHistogram:
        return _NULL_HISTOGRAM

    def info(self, path: str, value: Any) -> None:
        pass

    def drop(self, prefix: str) -> None:
        pass

    def names(self) -> List[str]:
        return []

    def get(self, path: str) -> None:
        return None

    def snapshot(self) -> Dict[str, Any]:
        return {}

    def as_tree(self) -> Dict[str, Any]:
        return {}


#: Module-level singletons - the null-object fast path.
NULL_SCOPE = NullScope()
NULL_REGISTRY = NullRegistry()
