"""Golden regression: the streaming service's prices, bit for bit.

``fixtures/golden_stream.json`` pins what a seeded event stream on the
64x32 rack decides, so a change to the warm-started tatonnement that
moves one price by one ulp fails here rather than only in the
benchmark's digests:

* ``steps`` - the sha256 of every :class:`~repro.cloud.service.StepResult`'s
  ``(rounds, converged, rationed, slice_price, bank_price)`` over a
  600-event ``datacenter_stream`` stream (seed 7, one repricing step
  after every event);
* ``summary`` - the stream's final non-timing
  :class:`~repro.cloud.service.StreamSummary` fields;
* ``clear_batch`` - one cold clearing of a fixed 12-bidder population:
  prices, rounds and every allocation's ``(cache_kb, slices, vcores,
  utility)``.

Floats are compared by ``repr`` (JSON round-trips them exactly), so
"close" is a regression.  Regenerate only after a deliberate change to
the market, from the repository root::

    PYTHONPATH=src python -m tests.regression.test_golden_stream
"""

import dataclasses
import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.cloud.service import AllocationService, TenantRequest
from repro.economics.utility import STANDARD_UTILITIES
from repro.experiments import datacenter_stream as ds
from repro.trace.profiles import PROFILES

FIXTURE = Path(__file__).parent / "fixtures" / "golden_stream.json"
EVENTS = 600
SEED = 7
BIDDERS = 12
BIDDER_SEED = 19
SUPPLY = 48.0


def _step_hash(step) -> str:
    key = (step.rounds, step.converged, step.rationed,
           step.slice_price, step.bank_price)
    return hashlib.sha256(repr(key).encode()).hexdigest()


def drive_stream():
    """Per-step hashes and the final non-timing summary of the stream."""
    service = ds.build_service()
    rng = random.Random(SEED)
    active, serial, steps = [], 0, []
    for index in range(EVENTS):
        event, serial = ds.synthesize_event(
            rng, active, serial, ds.ACTIVE_TARGET, ds.RESIZE_FRACTION)
        outcome = service.process(event, index)
        steps.append(_step_hash(service.step()))
        if event.kind == "submit" and outcome.admitted:
            active.append(event.tenant.name)
        elif event.kind == "depart":
            active.remove(event.tenant_id)
    # The loop counts its own events; the service's tallies do not.
    summary = dataclasses.replace(service.summary(), events=EVENTS)
    stats = {f.name: getattr(summary, f.name)
             for f in dataclasses.fields(summary) if f.compare}
    return steps, stats


def clear_batch():
    """One cold clearing of a fixed population."""
    rng = random.Random(BIDDER_SEED)
    benchmarks = sorted(PROFILES)
    service = AllocationService(slice_supply=SUPPLY, bank_supply=SUPPLY)
    for i in range(BIDDERS):
        service.register(TenantRequest(
            name=f"b{i}",
            benchmark=benchmarks[rng.randrange(len(benchmarks))],
            utility=STANDARD_UTILITIES[
                rng.randrange(len(STANDARD_UTILITIES))],
            budget=rng.uniform(12.0, 48.0),
        ))
    result = service.clear_batch()
    return {
        "slice_price": result.slice_price,
        "bank_price": result.bank_price,
        "rounds": result.rounds,
        "converged": result.converged,
        "rationed": result.rationed,
        "allocations": {
            a.bidder: [a.cache_kb, a.slices, a.vcores, a.utility]
            for a in result.allocations
        },
    }


def _reprs(value):
    """``value`` with every float replaced by its ``repr``."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {k: _reprs(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_reprs(v) for v in value]
    return value


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def stream():
    return drive_stream()


class TestGoldenStream:
    def test_every_step_matches(self, golden, stream):
        steps, want = stream[0], golden["steps"]
        assert len(steps) == len(want)
        first = next((i for i, (a, b) in enumerate(zip(steps, want))
                      if a != b), None)
        assert first is None, f"step {first} moved"

    def test_final_stats_match(self, golden, stream):
        assert _reprs(stream[1]) == _reprs(golden["summary"])

    def test_clear_batch_matches(self, golden):
        assert _reprs(clear_batch()) == _reprs(golden["clear_batch"])


def record() -> None:
    steps, stats = drive_stream()
    golden = {"events": EVENTS, "seed": SEED, "steps": steps,
              "summary": stats, "clear_batch": clear_batch()}
    FIXTURE.write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    record()
