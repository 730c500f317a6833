"""Chaos properties of the self-healing allocation service.

Three guarantees, each checked over seeded random interleavings:

* every cross-layer invariant holds after *every* event of a faulty
  lenient stream (``audit_every=1``);
* a lenient run carrying only state-neutral faults finishes with the
  exact service state (prices, roster, fabric) of a strict clean run
  over the same event stream;
* a run crashed at any checkpoint and restored produces the
  bit-identical final snapshot of the run that never crashed.

``REPRO_EQUIV_SEED`` offsets every seed, so CI can sweep independent
chaos universes without touching the code.
"""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.errors import SimulatedCrash
from repro.cloud.resilience import (
    STATE_NEUTRAL_KINDS,
    FaultEvent,
    FaultInjector,
    FaultPlan,
)
from repro.experiments.datacenter_stream import (
    build_service,
    drive_stream,
    resume_stream,
)

EQUIV_SEED = int(os.environ.get("REPRO_EQUIV_SEED", "0"))

NUM_EVENTS = 80


def fingerprint(service):
    """The state a fault must not corrupt: prices, roster, fabric."""
    snap = service.snapshot()
    return {"prices": snap["prices"], "roster": snap["roster"],
            "fabric": snap["fabric"]}


def chaos_injector(seed, rate=0.1, kinds=STATE_NEUTRAL_KINDS,
                   num_events=NUM_EVENTS):
    return FaultInjector(
        FaultPlan.seeded(num_events, rate, seed, kinds=kinds),
        seed=seed)


class TestInvariantsUnderChaos:
    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=8, deadline=None)
    def test_invariants_hold_after_every_event(self, seed):
        seed += EQUIV_SEED
        service = build_service(degrade_on_divergence=True)
        injector = chaos_injector(
            seed, kinds=STATE_NEUTRAL_KINDS + ("nonconverge",))
        # audit_every=1 raises InvariantViolation on the first broken
        # event, so simply finishing is the assertion.
        stats, _, _ = drive_stream(
            service, NUM_EVENTS, seed, strict=False, readmit=True,
            injector=injector, audit_every=1)
        assert stats["events"] == NUM_EVENTS
        service.verify_invariants()


class TestFaultyEqualsClean:
    @given(seed=st.integers(min_value=0, max_value=2**16),
           rate=st.sampled_from([0.05, 0.15, 0.3]))
    @settings(max_examples=8, deadline=None)
    def test_state_neutral_faults_do_not_change_the_outcome(
            self, seed, rate):
        seed += EQUIV_SEED
        clean = build_service()
        drive_stream(clean, NUM_EVENTS, seed)

        faulty = build_service()
        injector = chaos_injector(seed, rate=rate)
        drive_stream(faulty, NUM_EVENTS, seed, strict=False,
                     injector=injector, audit_every=20)

        assert fingerprint(faulty) == fingerprint(clean)
        # The faults really fired and really were absorbed.
        if len(injector.plan):
            assert injector.counts
            summary = faulty.summary()
            assert (summary.dead_letters > 0
                    or summary.departures > clean.summary().departures)


class TestFaultAccounting:
    def test_every_injected_fault_is_accounted(self):
        """Dead-lettering faults land in the per-reason counters one
        for one; nonconverge faults are either consumed as degraded
        steps or still pending — nothing is silently dropped."""
        seed = 21 + EQUIV_SEED
        # degrade_on_divergence stays off so degraded_steps counts
        # *only* injected nonconvergence, not organic divergence.
        service = build_service()
        injector = chaos_injector(
            seed, rate=0.2,
            kinds=("malformed", "duplicate", "unknown", "nonconverge"),
            num_events=200)
        drive_stream(service, 200, seed, strict=False,
                     injector=injector)
        counts = injector.counts
        assert counts  # 0.2 * 200 draws: the plan cannot be empty
        summary = service.summary()
        assert summary.dead_letters == sum(
            counts.get(k, 0)
            for k in ("malformed", "duplicate", "unknown"))
        assert (summary.degraded_steps + service.force_nonconverge
                == counts.get("nonconverge", 0))

    @pytest.mark.skipif(
        not os.environ.get("REPRO_CHAOS_FULL"),
        reason="set REPRO_CHAOS_FULL=1 for the 100k-event "
               "acceptance run")
    def test_100k_event_faulty_run_completes(self):
        """The ISSUE acceptance run: 100k events, 5% injected faults,
        lenient mode — finishes, audits clean, accounts for every
        fault."""
        pytest.importorskip("numpy")
        seed = 5 + EQUIV_SEED
        num_events = 100_000
        service = build_service(degrade_on_divergence=True)
        injector = chaos_injector(
            seed, rate=0.05,
            kinds=STATE_NEUTRAL_KINDS + ("nonconverge",),
            num_events=num_events)
        stats, _, _ = drive_stream(
            service, num_events, seed, reprice_every=250,
            strict=False, readmit=True, injector=injector,
            audit_every=10_000)
        assert stats["events"] == num_events
        service.verify_invariants()
        summary = service.summary()
        assert summary.dead_letters == sum(
            injector.counts.get(k, 0)
            for k in ("malformed", "duplicate", "unknown"))


class TestCrashResume:
    CHECKPOINT_EVERY = 20

    def reference_run(self, seed, injector=None):
        service = build_service(degrade_on_divergence=True)
        checkpoints = {}

        def keep(count, payload):
            checkpoints[count] = json.loads(json.dumps(payload))

        drive_stream(service, NUM_EVENTS, seed, strict=False,
                     injector=injector,
                     checkpoint_every=self.CHECKPOINT_EVERY,
                     on_checkpoint=keep)
        return service.snapshot(), checkpoints

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=6, deadline=None)
    def test_resume_from_every_checkpoint_is_bit_equal(self, seed):
        seed += EQUIV_SEED
        final, checkpoints = self.reference_run(seed)
        assert checkpoints  # NUM_EVENTS // CHECKPOINT_EVERY of them
        for count, checkpoint in checkpoints.items():
            if count == NUM_EVENTS:
                continue
            resumed = build_service(degrade_on_divergence=True)
            resume_stream(resumed, checkpoint, NUM_EVENTS,
                          strict=False)
            assert resumed.snapshot() == final, count

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=4, deadline=None)
    def test_resume_with_faults_replays_the_injector_too(self, seed):
        seed += EQUIV_SEED
        plan = FaultPlan.seeded(
            NUM_EVENTS, 0.15, seed,
            kinds=STATE_NEUTRAL_KINDS + ("nonconverge",))
        final, checkpoints = self.reference_run(
            seed, injector=FaultInjector(plan, seed=seed))
        for count, checkpoint in checkpoints.items():
            if count == NUM_EVENTS:
                continue
            resumed = build_service(degrade_on_divergence=True)
            resume_stream(resumed, checkpoint, NUM_EVENTS,
                          strict=False,
                          injector=FaultInjector(plan, seed=seed))
            assert resumed.snapshot() == final, count

    def test_simulated_crash_then_restore(self):
        """The full kill/restore story: a crash fault aborts the run
        mid-stream; restoring the last checkpoint and disarming the
        fired crash finishes bit-equal to a run that never died."""
        seed = 13 + EQUIV_SEED
        crash_at = 50
        plan = FaultPlan.seeded(
            NUM_EVENTS, 0.1, seed, kinds=STATE_NEUTRAL_KINDS)
        armed = FaultPlan(list(plan) + [FaultEvent(crash_at, "crash")])

        reference, _ = self.reference_run(
            seed, injector=FaultInjector(plan, seed=seed))

        service = build_service(degrade_on_divergence=True)
        checkpoints = {}

        def keep(count, payload):
            checkpoints[count] = json.loads(json.dumps(payload))

        with pytest.raises(SimulatedCrash) as exc:
            drive_stream(service, NUM_EVENTS, seed, strict=False,
                         injector=FaultInjector(armed, seed=seed),
                         checkpoint_every=self.CHECKPOINT_EVERY,
                         on_checkpoint=keep)
        assert exc.value.index == crash_at
        latest = max(c for c in checkpoints if c <= crash_at)

        resumed = build_service(degrade_on_divergence=True)
        resume_stream(
            resumed, checkpoints[latest], NUM_EVENTS, strict=False,
            injector=FaultInjector(armed.without(crash_at, "crash"),
                                   seed=seed))
        assert resumed.snapshot() == reference


class TestDriveStreamHooks:
    def test_checkpoints_and_audits(self, monkeypatch):
        """``drive_stream``'s hooks on a lenient stream: a checkpoint
        every 5 events, an audit every 4, and an injected ghost depart
        dead-lettered instead of raised."""
        service = build_service()
        audits = []
        verify = service.verify_invariants

        def counting_verify():
            audits.append(True)
            verify()

        monkeypatch.setattr(service, "verify_invariants", counting_verify)
        seen = []
        stats, _, _ = drive_stream(
            service, 13, seed=3, reprice_every=4, strict=False,
            injector=FaultInjector(FaultPlan([FaultEvent(6, "unknown")])),
            audit_every=4, checkpoint_every=5,
            on_checkpoint=lambda count, checkpoint: seen.append(count))
        assert seen == [5, 10]
        assert len(audits) == 3
        assert stats["dead_letters"] == 1.0
        assert service.dead_letter_counts == {"unknown_tenant": 1}
        assert stats["events"] == 13.0
