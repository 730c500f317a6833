"""Toy-size self-test of the benchmark harness.

Run from the repository root::

    python3 perfbench/selftest.py

For every workload it makes one untraced and one traced run at toy
input size and checks that:

* the run prints the JSON result line with every end-to-end metric of
  ``BENCHMARK.json`` (untraced) or every per-layer metric (traced), each
  with the unit ``BENCHMARK.json`` gives it, and no failed operation;
* every span of the traced pass nests inside the pass's root span, the
  self times of all spans sum to the traced wall, and the layer spans
  below the root cover at least 90 % of it.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Share of the traced wall the layer spans below the root must cover.
MIN_COVERAGE = 0.9


def run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", str(trace),
         "--size", "toy"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"selftest: {workload} trace={trace} exited "
                         f"{out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_metrics(result: dict, specs: list, where: str) -> None:
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"selftest: {where}: {result['failed']} of "
                         f"{result['attempted']} operations failed")
    metrics = result["metrics"]
    if set(metrics) != {spec["name"] for spec in specs}:
        raise SystemExit(f"selftest: {where}: metrics differ from "
                         "BENCHMARK.json")
    for spec in specs:
        metric = metrics[spec["name"]]
        if metric["unit"] != spec["unit"]:
            raise SystemExit(f"selftest: {where}: {spec['name']} unit "
                             f"{metric['unit']!r} != {spec['unit']!r}")
        print(f"  {spec['name']:<44} {metric['value']:>14.6g} "
              f"{metric['unit']}")


def check_spans(workload: str, traced_wall: float) -> float:
    """Nesting and the self-time sum of the dumped spans; returns the
    share of the traced wall the layer spans below the root cover."""
    with open(ROOT / ".perfbench" / "spans" / f"{workload}-seed0.json",
              encoding="utf-8") as fh:
        spans = json.load(fh)
    start, end, parent = spans["start_us"], spans["end_us"], spans["parent"]
    if parent[0] != -1 or any(p < 0 for p in parent[1:]):
        raise SystemExit(f"selftest: {workload}: a span outside the root")
    selfs = [e - s for s, e in zip(start, end)]
    for i in range(1, len(start)):
        p = parent[i]
        if start[i] < start[p] or end[i] > end[p]:
            raise SystemExit(f"selftest: {workload}: span {i} leaves its "
                             "parent")
        selfs[p] -= end[i] - start[i]
    total_s = sum(selfs) / 1e6
    if abs(total_s - traced_wall) > 1e-3:
        raise SystemExit(f"selftest: {workload}: self times sum to "
                         f"{total_s:.6f}s, traced wall {traced_wall:.6f}s")
    print(f"  self times sum to {total_s:.6f}s = traced wall "
          f"{traced_wall:.6f}s over {len(start)} spans")
    return sum(selfs[1:]) / 1e6 / traced_wall


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    for spec in bench["workloads"]:
        name = spec["name"]
        print(f"{name}: untraced")
        check_metrics(run(name, 0), bench["end_to_end"], name)
        print(f"{name}: traced")
        result = run(name, 1)
        check_metrics(result, bench["per_layer"], f"{name} traced")
        coverage = check_spans(
            name, result["metrics"]["bench.traced_wall_s"]["value"])
        print(f"  layer spans cover {coverage:.1%} of the traced wall")
        if coverage < MIN_COVERAGE:
            raise SystemExit(f"selftest: {name}: layer spans cover less "
                             f"than {MIN_COVERAGE:.0%} of the traced wall")
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
