"""Dual-path equivalence: the production SoA core vs the object model.

The production simulator (:class:`~repro.core.simulator.SharingSimulator`,
``simulate()`` with or without ``obs``) runs the structure-of-arrays
core in :mod:`repro.core.batched`, an independent re-implementation of
the pipeline over flat columns.  Its only correctness contract is
**bit-identity** with the object model
:class:`~tests.oracles.objmodel.simulator.ReferenceSimulator` on every
:class:`~repro.core.stats.SimStats` field of every configuration, on
every ``sim.*`` counter and on every trace event.  These tests pin that
contract against the reference explicitly:

* the Figure 12 grid (every Slice count at the 128 KB baseline) and the
  Figure 13 grid (every nonzero cache size at 4 Slices) for sentinel
  profiles in tier-1, and for **all fifteen** profiles when
  ``REPRO_EQUIVALENCE_FULL=1`` (the CI batched-equiv job sets it), each
  point run through instrumented production ``simulate()`` (its
  ``obs.snapshot()`` held to the reference's, see
  :func:`_expected_snapshot`) and through
  ``BatchedSimulator(trace, config).run()``;
* the trace events of traced runs, as a multiset;
* randomized configurations drawn from ``REPRO_EQUIV_SEED`` (the CI job
  runs two seed universes);
* every ``SimConfig`` knob, one non-default value at a time;
* sampled runs against the object-model loop in
  ``tests/oracles/sampled.py``;
* equality is ``SimResult == SimResult`` - cycles, every event counter
  and the full stall breakdown - not an IPC tolerance band.
"""

import dataclasses
import os
import random
import re
from collections import Counter

import pytest

from repro.core.batched import BatchedSimulator
from repro.core.config import SimConfig
from repro.core.simulator import simulate
from repro.obs import Observability
from repro.trace.materialize import get_workload
from repro.trace.profiles import all_benchmarks
from tests.oracles.objmodel.simulator import ReferenceSimulator

LENGTH = 4000
SEED = 1

#: Figure 12 axis: Slice scaling at the paper's 128 KB baseline.
FIG12_GRID = tuple((ns, 128.0) for ns in (1, 2, 3, 4, 5, 6, 7, 8))
#: Figure 13 axis: cache scaling at 4 Slices (0 KB is analytic-only).
FIG13_GRID = tuple((4, float(kb))
                   for kb in (64, 128, 256, 512, 1024, 2048, 4096, 8192))

SENTINELS = ("gcc", "swaptions", "astar")

FULL = os.environ.get("REPRO_EQUIVALENCE_FULL") == "1"
EQUIV_SEED = int(os.environ.get("REPRO_EQUIV_SEED", "0"))


def _diff(bench, ns, kb, reference, got):
    lines = [f"{bench} ns={ns} kb={kb:g}: SoA core diverged"]
    for field in reference.stats.__dataclass_fields__:
        a = getattr(reference.stats, field)
        b = getattr(got.stats, field)
        if a != b:
            lines.append(f"  {field}: reference={a} soa={b}")
    return "\n".join(lines)


def _reference(trace, ns, kb, warmup, obs=None):
    return ReferenceSimulator(trace, num_slices=ns, l2_cache_kb=kb,
                              warmup_addresses=warmup, obs=obs).run()


#: Reference gauges the production core does not publish, because they
#: read 0 by construction in the object model (see
#: ``BatchedSimulator.flush_counters``):
#: * ``sim.core.slice<i>.stores`` - stores enter the store buffer at
#:   commit and never go through ``CacheHierarchy.access(is_write=True)``;
#: * the ROB's and LSQ's ``full_stalls`` and the rename
#:   ``free_list_stalls`` - the simulator checks capacity before it
#:   dispatches or inserts, and counts the stall in ``SimStats``;
#: * the L1Is' and L2 banks' ``writebacks`` - no exact run writes an
#:   L1I or the L2, so no line there is ever dirty;
#: * ``sim.network.*`` - nothing calls ``SwitchedNetwork.send()``, so
#:   every network gauge reads 0 (and the networks' ``info`` describes
#:   contention knobs no production code reads).
_ZERO_BY_CONSTRUCTION = re.compile(
    r"sim\.(core\.slice\d+\.stores|core\.rob\.full_stalls"
    r"|core\.lsq(\.bank\d+)?\.full_stalls|core\.rename\.free_list_stalls"
    r"|core\.slice\d+\.l1i\.writebacks|cache\.l2\.bank\d+\.writebacks"
    r"|network\..*)$")


def _expected_snapshot(snapshot, stats):
    """The production snapshot a reference run's ``snapshot`` and
    ``stats`` call for: the reference's entries without those the
    production core does not publish, and the operand network's
    ``messages`` and ``total_hops`` - 0 in the reference - as the
    counts the production core reports for them,
    ``SimStats.operand_requests`` and ``remote_operand_hops``."""
    dropped = {name: value["value"] for name, value in snapshot.items()
               if _ZERO_BY_CONSTRUCTION.match(name)}
    assert not any(dropped.values()), dropped
    out = {name: value for name, value in snapshot.items()
           if name != "info" and name not in dropped}
    out["info"] = {name: value
                   for name, value in snapshot.get("info", {}).items()
                   if not name.startswith("sim.network.")}
    out["sim.network.son.messages"] = {
        "type": "gauge", "value": stats.operand_requests}
    out["sim.network.son.total_hops"] = {
        "type": "gauge", "value": stats.remote_operand_hops}
    return out


def _check_point(bench, trace, warmup, ns, kb, tracing=False):
    """One point on the reference and on instrumented ``simulate()``:
    equal results, comparable snapshots and (when ``tracing``) equal
    event multisets."""
    want_obs = Observability(trace=tracing)
    want = _reference(trace, ns, kb, warmup, obs=want_obs)
    got_obs = Observability(trace=tracing)
    got = simulate(trace, num_slices=ns, l2_cache_kb=kb,
                   warmup_addresses=warmup, obs=got_obs)
    assert want == got, _diff(bench, ns, kb, want, got)
    assert got_obs.snapshot() == _expected_snapshot(
        want_obs.snapshot(), want.stats), (
        f"{bench} ns={ns} kb={kb:g}: snapshots differ")
    if tracing:
        assert _events(got_obs) == _events(want_obs)
        assert got_obs.tracer.dropped == want_obs.tracer.dropped == 0
    return want


def _events(obs):
    """The exported events as a multiset (track names included), each
    without its ``args``."""
    return Counter(tuple(sorted((key, value) for key, value in event.items()
                                if key != "args"))
                   for event in obs.tracer.chrome_trace()["traceEvents"])


def _check_profile(bench, grid):
    warmup, trace = get_workload(bench, LENGTH, SEED)
    for ns, kb in grid:
        want = _check_point(bench, trace, warmup, ns, kb)
        core = BatchedSimulator(trace, SimConfig().with_vcore(ns, kb),
                                warmup).run()
        assert want == core, _diff(bench, ns, kb, want, core)


@pytest.mark.parametrize("bench", SENTINELS)
def test_sentinel_fig12_grid(bench):
    _check_profile(bench, FIG12_GRID)


@pytest.mark.parametrize("bench", SENTINELS)
def test_sentinel_fig13_grid(bench):
    _check_profile(bench, FIG13_GRID)


@pytest.mark.skipif(not FULL, reason="set REPRO_EQUIVALENCE_FULL=1 "
                    "for the full fifteen-profile sweep (CI batched-equiv)")
@pytest.mark.parametrize("bench", sorted(all_benchmarks()))
def test_full_profile_sweep(bench):
    if not FULL:  # pragma: no cover - skipif handles it
        return
    _check_profile(bench, FIG12_GRID + FIG13_GRID)


@pytest.mark.parametrize("bench, ns", [("gcc", 2), ("hmmer", 8)])
def test_traced_run_matches_reference(bench, ns):
    """A traced run emits the reference's per-instruction events (fetch
    to commit spans, memory and operand-network spans, mispredict and
    squash instants) and publishes its counters."""
    warmup, trace = get_workload(bench, 2000, SEED)
    _check_point(bench, trace, warmup, ns, 128.0, tracing=True)


def test_randomized_rows_multi_trace():
    """Seeded random configurations: three benchmarks at random lengths
    and seeds, two random VCores each, every run checked against its
    own reference run."""
    rng = random.Random(EQUIV_SEED)
    benches = rng.sample(sorted(all_benchmarks()), 3)
    workloads = [get_workload(b, rng.randrange(2500, 6000), rng.randrange(100))
                 for b in benches]
    points = []
    for tidx in range(len(benches)):
        for _ in range(2):
            points.append((tidx, rng.randrange(1, 9),
                           float(rng.choice((64, 128, 256, 512, 1024)))))
    for tidx, ns, kb in points:
        warm, trace = workloads[tidx]
        got = BatchedSimulator(trace, SimConfig().with_vcore(ns, kb),
                               warm).run()
        want = _reference(trace, ns, kb, warm)
        assert want == got, _diff(benches[tidx], ns, kb, want, got)


def test_sampled_composition_matches_scalar_sampled():
    """Production ``simulate_sampled`` (``BatchedSimulator.run_sampled``)
    must produce the same extrapolated result as the sampled loop on
    the object model."""
    from repro.sampling import SamplingConfig, simulate_sampled
    from tests.oracles.sampled import simulate_sampled as oracle_sampled

    warmup, trace = get_workload("gcc", 30_000, 3)
    sampling = SamplingConfig(interval=3000, warmup=300, detail=900)
    want = oracle_sampled(trace, num_slices=4, l2_cache_kb=256.0,
                          sampling=sampling, warmup_addresses=warmup)
    got = simulate_sampled(trace, num_slices=4, l2_cache_kb=256.0,
                           sampling=sampling, warmup_addresses=warmup)
    assert want.sampled and want == got


def test_backend_dispatch_through_simulate():
    """``simulate()`` dispatches on nothing but ``obs``: it has no
    ``backend`` keyword, and ``SimConfig.backend`` - kept for its place
    in cache keys - selects nothing."""
    warmup, trace = get_workload("mcf", 3000, 2)
    want = _reference(trace, 2, 256.0, warmup)
    for backend in ("python", "batched"):
        got = simulate(trace, num_slices=2, l2_cache_kb=256.0,
                       warmup_addresses=warmup,
                       config=SimConfig(backend=backend))
        assert want == got, backend
    with pytest.raises(TypeError):
        simulate(trace, num_slices=2, l2_cache_kb=256.0,
                 warmup_addresses=warmup, backend="batched")


#: One non-default value per result-affecting ``SimConfig`` leaf.  The
#: VCore fields are the grid axes, ``max_cycles`` is the timeout and
#: ``backend`` selects nothing.
KNOBS = {
    ("slice_config", "fetch_width"): 4,
    ("slice_config", "issue_window_size"): 8,
    ("slice_config", "lsq_size"): 8,
    ("slice_config", "rob_size"): 16,
    ("slice_config", "num_local_registers"): 48,
    ("slice_config", "store_buffer_size"): 2,
    ("slice_config", "max_inflight_loads"): 2,
    ("slice_config", "commit_width"): 1,
    ("slice_config", "instruction_buffer_size"): 4,
    ("slice_config", "mul_latency"): 6,
    ("slice_config", "branch_predictor_entries"): 64,
    ("slice_config", "btb_entries"): 32,
    ("slice_config", "predictor_kind"): "gshare",
    ("cache_config", "l1i", "size_kb"): 4,
    ("cache_config", "l1i", "assoc"): 4,
    ("cache_config", "l1i", "hit_delay"): 1,
    ("cache_config", "l1d", "size_kb"): 4,
    ("cache_config", "l1d", "assoc"): 4,
    ("cache_config", "l1d", "hit_delay"): 1,
    ("cache_config", "memory_delay"): 50,
    ("global_rename_depth",): 5,
    ("frontend_depth",): 1,
    ("mispredict_redirect",): 6,
    ("precommit_sync",): 0,
    ("model_contention",): True,
    ("operand_network_channels",): 2,
    ("fetch_assignment",): "dynamic",
    ("ordered_lsq",): True,
}
NOT_KNOBS = {("vcore", "num_slices"), ("vcore", "l2_cache_kb"),
             ("max_cycles",), ("backend",)}


def _with(config, path, value):
    if len(path) == 1:
        return dataclasses.replace(config, **{path[0]: value})
    inner = _with(getattr(config, path[0]), path[1:], value)
    return dataclasses.replace(config, **{path[0]: inner})


def test_knob_table_covers_every_config_field():
    """A new ``SimConfig`` field must join :data:`KNOBS` (or say why
    not), so the production core is checked against the reference on
    it the day it lands."""
    def leaves(obj, prefix=()):
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            if dataclasses.is_dataclass(value):
                yield from leaves(value, prefix + (f.name,))
            else:
                yield prefix + (f.name,)

    assert set(leaves(SimConfig())) == set(KNOBS) | NOT_KNOBS


@pytest.mark.parametrize("path", sorted(KNOBS), ids=".".join)
def test_every_config_knob_matches_reference(path):
    warmup, trace = get_workload("gcc", 1000, 3)
    config = _with(SimConfig().with_vcore(2, 256.0), path, KNOBS[path])
    want = ReferenceSimulator(trace, config,
                              warmup_addresses=warmup).run()
    got = simulate(trace, config=config, warmup_addresses=warmup)
    assert want == got, _diff("gcc", 2, 256.0, want, got)

