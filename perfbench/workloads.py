"""The benchmark's workloads: their inputs, one timed pass each, checks.

Every pass starts from the same state - a freshly built engine or
service, an empty temporary result cache, no workload store, a cleared
workload LRU - and drives the program through its public API in one
closed loop (``jobs=1``).  Passes are identical, so their output digests
must agree, and must equal the digests recorded in ``reference.json``.

The inputs belong to the benchmark: the stream's event generator, the
artefact list, the simulated profiles, grids and every seed are defined
here and passed to the program as arguments.  The seeds are fixed: a
run's ``--seed`` does not change the inputs, because on the stream and
on ``datacenter_scale`` different seeds change how much work a pass
does (the stream's reprice rounds vary 4x between seeds), which would
add spread of the benchmark's own making to every comparison.

Each pass also records its segment marks (:class:`Marks`): the clock at
fixed points of the identical path, so that the runner can compare the
same stretch of work across passes.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import json
import random
import sys
import time
import traceback
from array import array
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Tuple

from spans import Patches

#: Seed of ``datacenter_scale``'s tenant mix (the experiment's default).
DATACENTER_SEED = 7

#: Every artefact ``repro experiments`` renders, in runner order, except
#: the streaming extension (the ``stream`` workload covers the service).
ARTEFACTS = (
    "area_decomposition", "scalability", "cache_sensitivity", "optima",
    "utility_surfaces", "markets", "static_comparison",
    "hetero_comparison", "datacenter_mix", "phases", "taxonomy",
    "energy_delay", "datacenter_scale",
)

# -- stream traffic: the datacenter-stream mix -------------------------
STREAM_BENCHMARKS = (
    "apache", "astar", "bzip", "dedup", "ferret", "gcc", "gobmk",
    "h264ref", "hmmer", "libquantum", "mcf", "omnetpp", "perlbench",
    "sjeng", "swaptions",
)
STREAM_UTILITIES = ("Utility1", "Utility2", "Utility3")
STREAM_ACTIVE_TARGET = 160
STREAM_RESIZE_FRACTION = 0.06
STREAM_BUDGET_SPAN = (12.0, 48.0)
#: Seed of the event generator: a stream whose prices both oscillate
#: (several tatonnement rounds per step) and settle (fragmentation-driven
#: compactions), so both show up in the event latencies.
STREAM_SEED = 7
#: The service the stream drives: one 64x32 rack, the experiment's
#: admission floor and per-tenant VCore cap.
RACK = (64, 32)
ADMISSION_FLOOR = 0.02
MAX_VCORES = 8

# -- simulation sweeps --------------------------------------------------
FIG12_GRID = ((128.0,), (1, 2, 3, 4, 5, 6, 7, 8))
FIG13_GRID = ((64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0,
               8192.0), (4,))
SIM_TRACE_SEED = 1

#: Per-workload input sizes.  ``full`` is what the benchmark measures and
#: what ``reference.json`` records; ``toy`` is the self-test's.  Full
#: passes take 1.3-3.5 s, so one run holds 6-15 identical passes.
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        # datacenter_scale at 1,500 tenants (the CLI places 10,000):
        # placement cost is linear in tenants, and a 13-s pass would
        # leave a run one or two passes.
        "experiments": {"tenants": 1_500},
        "stream": {"events": 5_000},
        # A Fig-12-length trace of gobmk: high ILP, branchy, and an L2
        # working set (300 KB) inside the Fig 13 cache range.
        "sim-exact": {"profiles": ("gobmk",), "length": 4_000},
        # Six times Fig 12 length: 2,000 head instructions, then 20
        # sampling intervals of 1,100 per trace.
        "sim-sampled": {"profiles": ("gcc", "omnetpp"), "length": 24_000},
    },
    "toy": {
        "experiments": {"tenants": 200},
        "stream": {"events": 300},
        "sim-exact": {"profiles": ("gobmk",), "length": 200},
        "sim-sampled": {"profiles": ("gcc",), "length": 6_000},
    },
}


#: Stream events between two segment marks (about 5 ms of work).
STREAM_CHUNK = 20

#: (module, attribute path, mark after every n-th return) per workload:
#: the public calls that end a segment.  Segments are a few ms (stream,
#: experiments) to a few hundred ms (the sims' trace generation and
#: simulator set-up) long.
MARKED_CALLS: Dict[str, Tuple[Tuple[str, str, int], ...]] = {
    "experiments": (("repro.cloud.hypervisor", "Hypervisor.place", 20),),
    "stream": (),
    "sim-exact": (
        ("repro.trace.generator", "SyntheticTraceGenerator.generate", 1),
        ("repro.core.simulator", "SharingSimulator.__init__", 1),
        ("repro.core.simulator", "SharingSimulator.run", 1),
    ),
    "sim-sampled": (
        ("repro.trace.generator", "SyntheticTraceGenerator.generate", 1),
        ("repro.trace.materialize", "materialize", 1),
        ("repro.core.batched", "trace_columns", 1),
        ("repro.core.batched", "BatchedSimulator.__init__", 1),
        ("repro.core.batched", "BatchedSimulator.run_to_commit", 1),
    ),
}


class Marks:
    """Segment marks of one pass: the clock when the timed section
    starts, after every n-th return of each marked call, at the loop's
    own :meth:`mark` calls and when the section ends.

    Passes take the identical path, so they make the same number of
    marks and segment ``k`` of one pass is the same work as segment
    ``k`` of any other.  Installed on every pass, traced or not; one
    clock read per mark.
    """

    def __init__(self, targets: Sequence[Tuple[str, str, int]]) -> None:
        self.times = array("d")
        self._targets = targets
        self._patches = Patches()

    def mark(self) -> None:
        self.times.append(time.perf_counter())

    def install(self) -> None:
        times, clock = self.times, time.perf_counter

        def marking(fn: Callable, every: int) -> Callable:
            calls = [0]

            def marked(*args, **kwargs):
                out = fn(*args, **kwargs)
                calls[0] += 1
                if calls[0] % every == 0:
                    times.append(clock())
                return out

            return marked

        for module_name, path, every in self._targets:
            self._patches.wrap(module_name, path,
                               lambda fn, every=every: marking(fn, every))

    def uninstall(self) -> None:
        self._patches.undo()


@dataclass
class PassResult:
    """One pass: its segment marks, its outputs' digests and counts."""

    #: clock readings that split the timed section into segments
    marks: array
    #: operation key -> digest of that operation's exact outputs
    digests: Dict[str, str]
    #: operations attempted (artefacts, events, grid points)
    attempted: int
    #: operations that raised, or failed an audit or accounting check
    failed: int = 0
    #: per-operation latencies in seconds (stream events)
    latencies: array = field(default_factory=lambda: array("d"))
    #: counts the layers returned (cache hits, cycles, windows, ...)
    info: Dict[str, float] = field(default_factory=dict)
    #: per-artefact wall times (experiments)
    op_walls: Dict[str, float] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return self.marks[-1] - self.marks[0]

    def segments(self) -> array:
        marks = self.marks
        return array("d", (marks[i + 1] - marks[i]
                           for i in range(len(marks) - 1)))


def digest(payload: Any) -> str:
    """sha256 of a canonical JSON encoding (floats round-trip exactly)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


def _timed(workload: str, recorder, fn: Callable[[Marks], Any]) -> Marks:
    """Run the pass's timed section with its marks, traced under the
    root span ``bench.<workload>`` if a recorder is given."""
    marks = Marks(MARKED_CALLS[workload])
    try:
        marks.install()
        if recorder is not None:
            recorder.install()
        marks.mark()
        if recorder is None:
            fn(marks)
        else:
            recorder.span(f"bench.{workload}", fn, marks)
        marks.mark()
    finally:
        if recorder is not None:
            recorder.uninstall()
        marks.uninstall()
    return marks


def _report(where: str) -> None:
    print(f"perfbench: {where} failed:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


# ======================================================================
# construction (what setup_s measures)
# ======================================================================


def _fresh_engine(cache_dir: str, sampling: Any = None):
    from repro.engine import ResultCache, SweepEngine
    from repro.trace import materialize

    materialize.clear()
    return SweepEngine(jobs=1, cache=ResultCache(root=cache_dir),
                       backend="numpy", sampling=sampling, store=None)


def build(workload: str, cache_dir: str) -> Any:
    """Import the workload's layers and build its engine or service."""
    if workload == "experiments":
        for name in ARTEFACTS:
            importlib.import_module(f"repro.experiments.{name}")
        return _fresh_engine(cache_dir)
    if workload == "stream":
        from repro.cloud.fabric import Fabric
        from repro.cloud.service import AllocationService

        return AllocationService(fabric=Fabric(*RACK), backend="numpy",
                                 admission_floor=ADMISSION_FLOOR,
                                 max_vcores=MAX_VCORES)
    if workload == "sim-exact":
        import repro.core.simulator  # noqa: F401

        return _fresh_engine(cache_dir)
    if workload == "sim-sampled":
        import repro.core.batched  # noqa: F401
        from repro.sampling import DEFAULT_SAMPLING

        return _fresh_engine(cache_dir, sampling=DEFAULT_SAMPLING)
    raise ValueError(f"unknown workload {workload!r}")


# ======================================================================
# experiments
# ======================================================================


def experiments_pass(size: Dict[str, Any], cache_dir: str,
                     recorder=None) -> PassResult:
    engine = build("experiments", cache_dir)
    modules = [importlib.import_module(f"repro.experiments.{name}")
               for name in ARTEFACTS]
    calls = []
    for module in modules:
        kwargs: Dict[str, Any] = {"engine": engine}
        if "backend" in inspect.signature(module.run).parameters:
            kwargs["backend"] = "numpy"
        if module.NAME == "datacenter_scale":
            kwargs.update(seed=DATACENTER_SEED,
                          num_tenants=size["tenants"])
        calls.append((module, kwargs))
    results: Dict[str, Any] = {}
    walls: Dict[str, float] = {}

    def loop(marks: Marks) -> None:
        for module, kwargs in calls:
            t0 = time.perf_counter()
            try:
                if recorder is None:
                    results[module.NAME] = module.run(**kwargs)
                else:
                    results[module.NAME] = recorder.span(
                        f"experiments.{module.NAME}", module.run, **kwargs)
            except Exception:
                _report(f"artefact {module.NAME}")
                results[module.NAME] = None
            walls[module.NAME] = time.perf_counter() - t0
            marks.mark()

    marks = _timed("experiments", recorder, loop)
    digests = {name: digest(result.to_dict(include_elapsed=False))
               for name, result in results.items() if result is not None}
    cache = engine.cache
    return PassResult(
        marks=marks.times, digests=digests, attempted=len(calls),
        failed=sum(1 for r in results.values() if r is None),
        info={"cache_hits": cache.hits, "cache_misses": cache.misses},
        op_walls=walls,
    )


# ======================================================================
# stream
# ======================================================================


class StreamClient:
    """One closed-loop client: the next event depends on what the
    service admitted so far.  Arrivals dominate until the active
    population reaches its target, then departures balance them; a
    fixed fraction of events resize a random active tenant's budget."""

    def __init__(self, seed: int) -> None:
        from repro.cloud.service import Event, TenantRequest
        from repro.economics.utility import STANDARD_UTILITIES

        self._event = Event
        self._request = TenantRequest
        by_name = {u.name: u for u in STANDARD_UTILITIES}
        self._utilities = [by_name[name] for name in STREAM_UTILITIES]
        self.rng = random.Random(seed)
        self.active: List[str] = []
        self.serial = 0
        self.submits = 0
        self.admitted = 0
        self.rejected = 0
        self.resize_rejected = 0

    def next_event(self):
        rng, active = self.rng, self.active
        lo, hi = STREAM_BUDGET_SPAN
        r = rng.random()
        if active and r < STREAM_RESIZE_FRACTION:
            return self._event(kind="resize", tenant_id=rng.choice(active),
                               budget=rng.uniform(lo, hi))
        if active and (len(active) >= STREAM_ACTIVE_TARGET or r < 0.45):
            return self._event(kind="depart", tenant_id=rng.choice(active))
        self.serial += 1
        tenant = self._request(
            name=f"t{self.serial}",
            benchmark=STREAM_BENCHMARKS[rng.randrange(
                len(STREAM_BENCHMARKS))],
            utility=self._utilities[rng.randrange(len(self._utilities))],
            budget=rng.uniform(lo, hi),
        )
        return self._event(kind="submit", tenant=tenant)

    def observe(self, event, outcome) -> None:
        if event.kind == "submit":
            self.submits += 1
            if outcome is not None and outcome.admitted:
                self.admitted += 1
                self.active.append(event.tenant.name)
            else:
                self.rejected += 1
        elif event.kind == "depart":
            if outcome is not None:
                self.active.remove(event.tenant_id)
        elif outcome is not None and not outcome.admitted:
            self.resize_rejected += 1


def stream_pass(size: Dict[str, Any], cache_dir: str,
                recorder=None) -> PassResult:
    from repro.cloud.errors import InvariantViolation, ServiceError

    service = build("stream", cache_dir)
    client = StreamClient(STREAM_SEED)
    events = size["events"]
    latencies = array("d")
    errors = [0]

    def loop(marks: Marks) -> None:
        clock = time.perf_counter
        process, step = service.process, service.step
        for index in range(events):
            event = client.next_event()
            t0 = clock()
            try:
                outcome = process(event, index)
            except ServiceError:
                outcome = None
                errors[0] += 1
            step()
            latencies.append(clock() - t0)
            client.observe(event, outcome)
            if index % STREAM_CHUNK == STREAM_CHUNK - 1:
                marks.mark()

    marks = _timed("stream", recorder, loop)
    failed = errors[0]
    try:
        service.verify_invariants()
    except InvariantViolation:
        _report("stream audit")
        failed += 1
    summary = service.summary()
    dead = sum(service.dead_letter_counts.values())
    failed += dead
    if (client.admitted + client.rejected != client.submits
            or summary.admitted != client.admitted
            or summary.rejected_price + summary.rejected_capacity
            != client.rejected + client.resize_rejected):
        print("perfbench: stream accounting does not close", file=sys.stderr)
        failed += 1
    outcome = {
        "summary": {k: v for k, v in asdict(summary).items()
                    if k not in ("wall_s", "latency_p50_ms",
                                 "latency_p99_ms")},
        "client": {"submits": client.submits, "admitted": client.admitted,
                   "rejected": client.rejected,
                   "resize_rejected": client.resize_rejected,
                   "active": client.active},
    }
    return PassResult(
        marks=marks.times, digests={"stream": digest(outcome)},
        attempted=events, failed=failed, latencies=latencies,
        info={"events": events, "submits": client.submits,
              "admitted": summary.admitted,
              "compactions": summary.compactions,
              "reprice_rounds": summary.reprice_rounds,
              "steps": events},
    )


# ======================================================================
# simulation sweeps
# ======================================================================


class _SimCapture:
    """Keeps every SimResult the simulators return, for the digests.

    Installed on every pass, traced or not, so all runs take the same
    path; it adds one list append per grid point.
    """

    def __init__(self) -> None:
        self.tag = ""
        self.results: List[Tuple[str, Any]] = []
        self._patches = Patches()

    def install(self) -> None:
        def capturing(fn: Callable) -> Callable:
            def capture(*args, **kwargs):
                out = fn(*args, **kwargs)
                for result in (out if isinstance(out, list) else [out]):
                    self.results.append((self.tag, result))
                return out

            return capture

        self._patches.wrap("repro.core.simulator", "SharingSimulator.run",
                           capturing)
        self._patches.wrap("repro.core.batched",
                           "BatchedSimulator.run_sampled", capturing)

    def uninstall(self) -> None:
        self._patches.undo()


def _sim_pass(workload: str, grids: Tuple[Tuple[str, Tuple], ...],
              size: Dict[str, Any], cache_dir: str, recorder,
              sim_config: Any = None) -> PassResult:
    from repro.trace import materialize

    engine = build(workload, cache_dir)
    profiles = size["profiles"]
    capture = _SimCapture()
    sweeps: Dict[str, Any] = {}
    points = sum(len(c) * len(s) for _, (c, s) in grids) * len(profiles)

    def loop(marks: Marks) -> None:
        for tag, (cache_grid, slice_grid) in grids:
            capture.tag = tag
            try:
                sweeps[tag] = engine.simulation_map(
                    profiles, cache_grid=cache_grid, slice_grid=slice_grid,
                    trace_length=size["length"],
                    trace_seed=SIM_TRACE_SEED, sim_config=sim_config)
            except Exception:
                _report(f"{workload} sweep {tag}")

    capture.install()
    try:
        marks = _timed(workload, recorder, loop)
    finally:
        capture.uninstall()

    digests: Dict[str, str] = {}
    cycles = windows = detailed = total = 0
    for tag, result in capture.results:
        key = (f"{tag}/{result.benchmark}/{result.l2_cache_kb:g}"
               f"/{result.num_slices}")
        sweep = sweeps.get(tag)
        engine_ipc = (sweep.grid(result.benchmark).get(
            (float(result.l2_cache_kb), int(result.num_slices)))
            if sweep is not None else None)
        digests[key] = digest({
            "stats": asdict(result.stats), "sampled": result.sampled,
            "ipc_ci": result.ipc_ci,
            "sampling": (asdict(result.sampling)
                         if result.sampling is not None else None),
            "engine_ipc": engine_ipc,
        })
        cycles += result.stats.cycles
        if result.sampling is not None:
            windows += result.sampling.windows
            detailed += result.sampling.detailed_instructions
            total += result.sampling.total_instructions
    lru = materialize.cache_stats()
    cache = engine.cache
    return PassResult(
        marks=marks.times, digests=digests, attempted=points,
        failed=points - len(digests),
        info={"instructions": points * size["length"], "cycles": cycles,
              "windows": windows, "detailed_instructions": detailed,
              "total_instructions": total,
              "lru_hits": lru["hits"], "lru_misses": lru["misses"],
              "cache_hits": cache.hits, "cache_misses": cache.misses},
    )


def sim_exact_pass(size: Dict[str, Any], cache_dir: str,
                   recorder=None) -> PassResult:
    return _sim_pass("sim-exact",
                     (("fig12", FIG12_GRID), ("fig13", FIG13_GRID)),
                     size, cache_dir, recorder)


def sim_sampled_pass(size: Dict[str, Any], cache_dir: str,
                     recorder=None) -> PassResult:
    from repro.core.config import SimConfig

    return _sim_pass("sim-sampled", (("fig12", FIG12_GRID),), size,
                     cache_dir, recorder,
                     sim_config=SimConfig(backend="batched"))


WORKLOADS: Dict[str, Callable[..., PassResult]] = {
    "experiments": experiments_pass,
    "stream": stream_pass,
    "sim-exact": sim_exact_pass,
    "sim-sampled": sim_sampled_pass,
}
