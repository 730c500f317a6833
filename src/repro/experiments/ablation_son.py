"""Ablation: operand-network channel count (paper Section 5.1).

"By conducting a sensitivity study on operand communication bandwidth,
we discovered that by adding a second operand network, performance would
improve by only 1% across our applications."

Runs the cycle-level simulator with ``model_contention`` set on one and
two operand-network channels and reports the improvement.  The
production core charges operand transfers their unloaded hop latency
and reads neither knob (only the object-model oracle in
``tests/oracles/objmodel`` does, and it sends no message through its
networks), so both runs take the same cycles and the improvement is
exactly 0: this ablation does not yet measure Section 5.1.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Sequence

from repro.core.config import SimConfig
from repro.core.simulator import SharingSimulator
from repro.trace.generator import make_workload


def run(benchmarks: Sequence[str] = ("gcc", "libquantum"),
        num_slices: int = 4,
        l2_cache_kb: float = 256.0,
        trace_length: int = 3000,
        seed: int = 1) -> Dict[str, Dict[str, float]]:
    """Cycles with one vs two operand networks (equal; see above)."""
    results: Dict[str, Dict[str, float]] = {}
    for bench in benchmarks:
        warmup, trace = make_workload(bench, trace_length, seed=seed)
        cycles = {}
        for channels in (1, 2):
            config = SimConfig(
                model_contention=True,
                operand_network_channels=channels,
            ).with_vcore(num_slices=num_slices, l2_cache_kb=l2_cache_kb)
            sim = SharingSimulator(trace, config, warmup_addresses=warmup)
            cycles[channels] = sim.run().cycles
        improvement = cycles[1] / cycles[2] - 1.0
        results[bench] = {
            "cycles_1net": cycles[1],
            "cycles_2net": cycles[2],
            "improvement": improvement,
        }
    return results


def main() -> None:
    results = run()
    print("Ablation: second operand network (paper: ~1% improvement)")
    for bench, row in results.items():
        print(f"  {bench:11} 1-net {row['cycles_1net']:.0f} cyc, "
              f"2-net {row['cycles_2net']:.0f} cyc, "
              f"improvement {row['improvement'] * 100:.2f}%")


if __name__ == "__main__":
    main()
