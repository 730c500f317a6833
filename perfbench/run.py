"""Benchmark of the Sharing Architecture reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload stream --seed 1 --seconds 25 --trace 0

``--trace 0`` repeats identical passes of the workload for ``--seconds``
and reports the end-to-end metrics; ``--trace 1`` makes one untraced and
one traced pass and reports the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The lines before it print every metric with
its unit, the host facts and the output digest; the same record is
written to ``.perfbench/results/``.  ``METRICS.md`` defines each metric
and the workload and end-to-end metric each layer metric should move.

``--record`` re-records the workload's digests in ``reference.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"

#: Child processes timed per run for ``setup_s`` (median reported).
SETUP_RUNS = 5

#: Passes every untraced run makes, however short ``--seconds``.
MIN_PASSES = 2


def import_repro() -> float:
    """Put the checkout's ``src`` first on the path; return import time."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import repro

    elapsed = time.perf_counter() - t0
    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {SRC}")
    return elapsed


def scratch_dir() -> str:
    OUT.mkdir(exist_ok=True)
    return tempfile.mkdtemp(prefix="tmp-", dir=OUT)


def setup_probe(workload: str) -> int:
    """Child side of ``setup_s``: import, build, say so, exit."""
    import_repro()
    sys.path.insert(0, str(HERE))
    import workloads

    cache_dir = scratch_dir()
    try:
        workloads.build(workload, cache_dir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return 0


def measure_setup(workload: str) -> float:
    """Seconds from spawning a fresh interpreter to a built engine or
    service, in one child process."""
    t0 = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--setup-probe",
         "--workload", workload],
        cwd=str(ROOT), stdout=subprocess.PIPE, text=True)
    try:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - t0
        child.stdout.read()
    finally:
        child.stdout.close()
        if child.poll() is None:
            try:
                child.wait(timeout=60)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
    if line.strip() != "ready" or child.returncode != 0:
        raise SystemExit(f"perfbench: setup probe failed "
                         f"({child.returncode})")
    return elapsed


def host_facts() -> Dict[str, Any]:
    import numpy

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), env=env,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "git_sha": sha,
            "platform": platform.platform()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (0.0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1,
                       max(0, int(round(q * (len(ordered) - 1)))))]


def load_reference() -> Dict[str, Any]:
    if REFERENCE.is_file():
        with open(REFERENCE, encoding="utf-8") as fh:
            return json.load(fh)
    return {}


def one_pass(workloads, workload: str, size, recorder=None):
    """A pass in its own scratch cache directory, garbage collected first."""
    cache_dir = scratch_dir()
    gc.collect()
    try:
        return workloads.WORKLOADS[workload](size, cache_dir, recorder)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


class Fastest:
    """Elementwise minimum, over passes, of one timing per segment (or
    per event).  Passes take the identical path, so the sequences have
    equal lengths; a pass whose length differs is counted, not folded."""

    def __init__(self) -> None:
        self.values: Optional[array] = None
        self.mismatched = 0

    def add(self, values: array) -> None:
        if self.values is None:
            self.values = array("d", values)
        elif len(values) != len(self.values):
            self.mismatched += 1
        else:
            self.values = array("d", map(min, self.values, values))


def check(digests: List[Dict[str, str]], expected: Dict[str, str]
          ) -> Tuple[int, List[str]]:
    """Failed operations beyond those the passes counted themselves: an
    output that differs from another pass or from the reference."""
    failed = 0
    notes = []
    first = digests[0]
    for result in digests:
        for key in set(first) | set(result):
            if result.get(key) != first.get(key):
                failed += 1
                notes.append(f"{key}: differs between passes")
        for key, value in result.items():
            if expected.get(key) != value:
                failed += 1
                notes.append(f"{key}: differs from reference.json")
    return failed, notes


# ======================================================================
# metrics
# ======================================================================


def end_to_end(workload: str, last, walls: List[float], segments: Fastest,
               latencies: Fastest, setups: List[float]
               ) -> Tuple[Dict[str, Tuple[float, str]],
                          Dict[str, Tuple[float, str]]]:
    """(gated metrics, workload-specific figures) of an untraced run.

    Other tenants of a shared host only ever add time to a
    deterministic pass, and they come and go within seconds, so
    ``wall_s`` adds up each segment's fastest time over the run's
    identical passes: the time of one pass on a quiet host.
    """
    wall = sum(segments.values)
    gated = {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    extra = {
        "passes": (len(walls), "count"),
        "segments": (len(segments.values), "count"),
        "fastest_pass_s": (min(walls), "s"),
        "median_pass_s": (statistics.median(walls), "s"),
    }
    if workload == "stream":
        lat = latencies.values
        extra.update({
            "events_per_s": (len(lat) / wall, "1/s"),
            "event_p50_ms": (percentile(lat, 0.50) * 1e3, "ms"),
            "event_p99_ms": (percentile(lat, 0.99) * 1e3, "ms"),
            "event_samples": (len(lat), "count"),
        })
    if workload.startswith("sim-"):
        extra["sim_kips"] = (last.info["instructions"] / 1e3 / wall,
                             "kinst/s")
    return gated, extra


def per_layer(recorder, traced, untraced, import_s: float
              ) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric; zero where the workload skips a layer."""
    import workloads

    stats = recorder.by_name()
    selfs = recorder.self_times()
    info = traced.info

    def calls(name: str) -> float:
        return stats.get(name, {}).get("calls", 0)

    def self_s(name: str) -> float:
        return stats.get(name, {}).get("self_s", 0.0)

    def p99_ms(name: str) -> float:
        return percentile(stats.get(name, {}).get("durations", []),
                          0.99) * 1e3

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    root = recorder.start[0], recorder.end[0]
    below = sum(s for i, s in enumerate(selfs) if i > 0)
    m: Dict[str, Tuple[float, str]] = {
        "setup.import_s": (import_s, "s"),
        "bench.traced_wall_s": (traced.wall_s, "s"),
        "bench.untraced_wall_s": (untraced.wall_s, "s"),
        "bench.tracing_overhead_s": (traced.wall_s - untraced.wall_s, "s"),
        "bench.layer_coverage": (ratio(below, root[1] - root[0]), "ratio"),
        "bench.client.self_s": (selfs[0], "s"),
        "bench.spans": (len(recorder), "count"),
        "trace.generator.init.self_s": (self_s("trace.generator.init"), "s"),
        "trace.warmup_addresses.self_s": (
            self_s("trace.warmup_addresses"), "s"),
        "trace.generate.calls": (calls("trace.generate"), "count"),
        "trace.generate.self_s": (self_s("trace.generate"), "s"),
        "trace.materialize.self_s": (self_s("trace.materialize"), "s"),
        "trace.get_workload.self_s": (self_s("trace.get_workload"), "s"),
        "trace.lru.hit_ratio": (ratio(
            info.get("lru_hits", 0),
            info.get("lru_hits", 0) + info.get("lru_misses", 0)), "ratio"),
        "core.scalar.init.self_s": (self_s("core.scalar.init"), "s"),
        "core.scalar.run.calls": (calls("core.scalar.run"), "count"),
        "core.scalar.run.self_s": (self_s("core.scalar.run"), "s"),
        "core.scalar.host_us_per_kcycle": (ratio(
            self_s("core.scalar.run") * 1e6,
            info.get("cycles", 0) / 1e3 if calls("core.scalar.run") else 0),
            "us"),
        "core.batched.columns.self_s": (self_s("core.batched.columns"), "s"),
        "core.batched.init.self_s": (self_s("core.batched.init"), "s"),
        "core.batched.run_sampled.self_s": (
            self_s("core.batched.run_sampled"), "s"),
        "sampling.windows": (info.get("windows", 0), "count"),
        "sampling.detail_fraction": (ratio(
            info.get("detailed_instructions", 0),
            info.get("total_instructions", 0)), "ratio"),
        "engine.run.calls": (calls("engine.run"), "count"),
        "engine.run.self_s": (self_s("engine.run"), "s"),
        "engine.cache.hits": (info.get("cache_hits", 0), "count"),
        "engine.cache.misses": (info.get("cache_misses", 0), "count"),
        "engine.cache.get.self_s": (self_s("engine.cache.get"), "s"),
        "engine.cache.put.self_s": (self_s("engine.cache.put"), "s"),
        "economics.optimizer.self_s": (self_s("economics.optimizer"), "s"),
    }
    for name in workloads.ARTEFACTS:
        m[f"experiments.{name}.wall_s"] = (
            untraced.op_walls.get(name, 0.0), "s")
    m["experiments.datacenter_scale.self_s"] = (
        self_s("experiments.datacenter_scale"), "s")
    m["cloud.hypervisor.place.calls"] = (
        calls("cloud.hypervisor.place"), "count")
    m["cloud.hypervisor.place.self_s"] = (
        self_s("cloud.hypervisor.place"), "s")
    for op in ("find_contiguous_slices", "find_nearest_banks", "claim",
               "release"):
        name = f"cloud.fabric.{op}"
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
    for op in ("submit", "depart", "resize"):
        name = f"cloud.service.{op}"
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
        m[f"{name}.p99_ms"] = (p99_ms(name), "ms")
    m["cloud.service.step.calls"] = (calls("cloud.service.step"), "count")
    m["cloud.service.step.self_s"] = (self_s("cloud.service.step"), "s")
    m["cloud.service.rounds_per_step"] = (ratio(
        info.get("reprice_rounds", 0), info.get("steps", 0)), "ratio")
    m["cloud.service.compactions"] = (info.get("compactions", 0), "count")
    m["cloud.service.admit_ratio"] = (ratio(
        info.get("admitted", 0), info.get("submits", 0)), "ratio")
    m["cloud.arena.self_s"] = (self_s("cloud.arena"), "s")
    return m


# ======================================================================
# command line
# ======================================================================


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("experiments", "stream", "sim-exact",
                                 "sim-sampled"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="input size; only 'full' has reference "
                             "digests")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--record", action="store_true",
                        help="record the workload's digests in "
                             "reference.json")
    return parser.parse_args(argv)


def record(workloads, workload: str, size) -> int:
    reference = load_reference()
    result = one_pass(workloads, workload, size)
    if result.failed:
        raise SystemExit(f"perfbench: {workload}: {result.failed} failed "
                         "operations")
    reference[workload] = result.digests
    print(f"{workload}: {len(result.digests)} digests, "
          f"{result.wall_s:.2f}s")
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args.workload)
    import_s = import_repro()
    sys.path.insert(0, str(HERE))
    import workloads
    from spans import SpanRecorder

    size = workloads.SIZES[args.size][args.workload]
    if args.record:
        return record(workloads, args.workload, size)

    facts = host_facts()
    setups: List[float] = []
    if args.trace:
        untraced = one_pass(workloads, args.workload, size)
        recorder = SpanRecorder()
        traced = one_pass(workloads, args.workload, size, recorder)
        passes = [untraced, traced]
        walls = [p.wall_s for p in passes]
        digests = [p.digests for p in passes]
        attempted = sum(p.attempted for p in passes)
        failed = sum(p.failed for p in passes)
        mismatched = 0
    else:
        # Identical passes for the measuring window; none that would
        # likely end after it.  The setup children run between the
        # first passes, so a slow stretch of the host cannot take all
        # of them.
        segments, latencies = Fastest(), Fastest()
        walls, digests = [], []
        attempted = failed = 0
        t_start = time.perf_counter()
        while (len(walls) < MIN_PASSES or time.perf_counter() - t_start
               + min(walls) <= args.seconds):
            last = one_pass(workloads, args.workload, size)
            walls.append(last.wall_s)
            digests.append(last.digests)
            attempted += last.attempted
            failed += last.failed
            segments.add(last.segments())
            latencies.add(last.latencies)
            if len(setups) < SETUP_RUNS:
                setups.append(measure_setup(args.workload))
        while len(setups) < SETUP_RUNS:
            setups.append(measure_setup(args.workload))
        mismatched = segments.mismatched + latencies.mismatched

    # Toy inputs have no reference: their passes need only agree.
    expected = (load_reference().get(args.workload, {})
                if args.size == "full" else digests[0])
    differing, notes = check(digests, expected)
    if mismatched:
        notes.append(f"{mismatched} passes took a different path")
    for note in notes[:20]:
        print(f"perfbench: {note}", file=sys.stderr)
    failed = min(attempted, failed + differing + mismatched)

    if args.trace:
        metrics = per_layer(recorder, traced, untraced, import_s)
        extra: Dict[str, Tuple[float, str]] = {}
        dump = OUT / "spans" / f"{args.workload}-seed{args.seed}.json"
        dump.parent.mkdir(parents=True, exist_ok=True)
        recorder.dump(str(dump), {"workload": args.workload,
                                  "seed": args.seed})
    else:
        metrics, extra = end_to_end(args.workload, last, walls, segments,
                                    latencies, setups)

    digest = workloads.digest(sorted(digests[0].items()))[:16]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"size {args.size}: {len(walls)} passes")
    print(f"host: {json.dumps(facts, sort_keys=True)}")
    print(f"digest: {digest}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    print(f"  failed {failed} of {attempted} operations")

    record_payload = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "size": args.size, "host": facts, "digest": digest,
        "pass_walls_s": walls, "setup_runs_s": setups,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in {**metrics, **extra}.items()},
        "attempted": attempted, "failed": failed,
    }
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    with open(results_dir / f"{args.workload}-seed{args.seed}"
              f"-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record_payload, fh, indent=1)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
