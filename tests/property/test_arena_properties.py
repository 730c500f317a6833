"""Arena equivalence properties of the streaming allocation service.

Two guarantees, each checked over seeded random interleavings of
submit / resize / depart / step events:

* after *every* event, the arena's contiguous active view is
  bit-identical to a fresh ``np.stack`` rebuild over the roster - the
  exact tensors the pre-arena service stacked per step - and a
  warm-started step from identical state yields bit-identical prices
  and allocations on an identically prepared twin;
* a run snapshotted mid-sequence (JSON round-tripped) and restored
  into a fresh service finishes the remaining events with the
  bit-identical final snapshot of the run that never stopped.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

from repro.cloud.fabric import Fabric
from repro.cloud.service import AllocationService, TenantRequest
from repro.economics.utility import STANDARD_UTILITIES

NUM_EVENTS = 60
BENCHMARKS = ("gcc", "mcf", "libquantum")


def make_service():
    return AllocationService(fabric=Fabric(16, 8), backend="numpy",
                             admission_floor=0.0, max_vcores=4)


def random_events(seed, num_events=NUM_EVENTS):
    """A seeded interleaving with a live population to act on."""
    rng = random.Random(seed)
    events = []
    serial = 0
    active = []
    for _ in range(num_events):
        roll = rng.random()
        if active and roll < 0.2:
            name = active.pop(rng.randrange(len(active)))
            events.append(("depart", name, None))
        elif active and roll < 0.45:
            name = rng.choice(active)
            events.append(("resize", name,
                           rng.uniform(4.0, 48.0)))
        elif roll < 0.85 or not active:
            name = f"t{serial}"
            serial += 1
            active.append(name)
            events.append(("submit", name, TenantRequest(
                name=name,
                benchmark=rng.choice(BENCHMARKS),
                utility=rng.choice(STANDARD_UTILITIES),
                budget=rng.uniform(4.0, 48.0))))
        else:
            events.append(("step", None, None))
    return events


def apply_event(service, event):
    kind, name, payload = event
    if kind == "submit":
        result = service.submit(payload)
        if not result.admitted:
            return ("rejected", name)
        return ("admitted", name)
    if kind == "depart":
        if name in service._by_name:
            service.depart(name)
        return ("departed", name)
    if kind == "resize":
        if name in service._by_name:
            service.resize(name, payload)
        return ("resized", name)
    result = service.step()
    return ("step", result.slice_price, result.bank_price,
            result.rounds, result.converged)


def fresh_stack(service):
    """The tensors the pre-arena service rebuilt per step."""
    requests = [s.request for s in service._roster]
    if not requests:
        return None
    exponents = [r.utility.perf_exponent for r in requests]
    return (np.stack([service.kernel.perf_pow_row(r.benchmark, k)
                      for r, k in zip(requests, exponents)]),
            np.array([[1.0 / k] for k in exponents]),
            np.array([[r.budget] for r in requests]))


def assert_arena_matches_rebuild(service):
    view = service._arena.active_view()
    rebuilt = fresh_stack(service)
    if rebuilt is None:
        assert view["perf_k"].shape[0] == 0
        return
    assert np.array_equal(view["perf_k"], rebuilt[0])
    assert np.array_equal(view["inv_k"], rebuilt[1])
    assert np.array_equal(view["budgets"], rebuilt[2])


class TestArenaEqualsRebuild:
    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=10, deadline=None)
    def test_view_bit_equal_after_every_event(self, seed):
        service = make_service()
        for event in random_events(seed):
            apply_event(service, event)
            assert_arena_matches_rebuild(service)
        service.verify_invariants()

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=6, deadline=None)
    def test_twin_service_steps_identically(self, seed):
        """Replaying the same events on a twin gives bit-identical
        prices and allocations at every step - the arena introduces
        no state the event stream does not determine."""
        service = make_service()
        twin = make_service()
        for event in random_events(seed):
            got = apply_event(service, event)
            assert apply_event(twin, event) == got
        a, b = service.snapshot(), twin.snapshot()
        assert a == b


class TestCheckpointMidSequence:
    @given(seed=st.integers(min_value=0, max_value=2**16),
           cut=st.integers(min_value=1, max_value=NUM_EVENTS - 1))
    @settings(max_examples=8, deadline=None)
    def test_restore_then_finish_bit_identical(self, seed, cut):
        events = random_events(seed)
        straight = make_service()
        for event in events:
            apply_event(straight, event)

        service = make_service()
        for event in events[:cut]:
            apply_event(service, event)
        checkpoint = json.loads(json.dumps(service.snapshot()))

        resumed = make_service()
        resumed.restore(checkpoint)
        assert_arena_matches_rebuild(resumed)
        for event in events[cut:]:
            apply_event(resumed, event)
        assert resumed.snapshot() == straight.snapshot()
        assert_arena_matches_rebuild(resumed)
