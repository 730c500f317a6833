"""Tests for the ablation configuration knobs.

DESIGN.md calls out three design-choice ablations beyond the operand
network: fetch-to-Slice assignment, ordered vs unordered LSQ, and the
branch predictor family.
"""

import pytest

from repro.core.config import SimConfig, SliceConfig
from repro.core.simulator import SharingSimulator, simulate
from repro.trace.generator import generate_trace
from tests.oracles.objmodel.branch import BranchUnit, GSharePredictor


def _run(trace, **overrides):
    import dataclasses
    cfg = dataclasses.replace(
        SimConfig().with_vcore(num_slices=4, l2_cache_kb=256), **overrides
    )
    return SharingSimulator(trace, cfg).run()


class TestFetchAssignmentAblation:
    def test_dynamic_assignment_hurts_prediction(self):
        """The paper's PC-interleave keeps each static branch on one
        Slice's predictor; dynamic rotation scatters it and accuracy
        drops - the reason for the Section 3.1 design."""
        trace = generate_trace("sjeng", 2500, seed=5)
        pc_based = _run(trace, fetch_assignment="pc")
        dynamic = _run(trace, fetch_assignment="dynamic")
        assert (pc_based.stats.branch_accuracy
                >= dynamic.stats.branch_accuracy)

    def test_both_assignments_commit_everything(self):
        trace = generate_trace("gcc", 800, seed=6)
        for mode in ("pc", "dynamic"):
            assert _run(trace, fetch_assignment=mode).stats.committed == 800

    def test_invalid_assignment_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(fetch_assignment="random")


class TestOrderedLSQAblation:
    def test_ordered_lsq_eliminates_violations(self):
        trace = generate_trace("gcc", 1500, seed=7)
        ordered = _run(trace, ordered_lsq=True)
        assert ordered.stats.lsq_violations == 0
        assert ordered.stats.committed == 1500

    def test_unordered_lsq_is_not_slower(self):
        """Section 3.6's design point: speculative unordered issue with
        violation replay beats conservative ordering."""
        trace = generate_trace("gcc", 1500, seed=7)
        unordered = _run(trace, ordered_lsq=False)
        ordered = _run(trace, ordered_lsq=True)
        assert unordered.cycles <= ordered.cycles * 1.05


class TestPredictorAblation:
    def test_gshare_config_plumbs_through(self):
        cfg = SliceConfig(predictor_kind="gshare")
        trace = generate_trace("gcc", 600, seed=8)
        import dataclasses
        sim_cfg = dataclasses.replace(
            SimConfig().with_vcore(2, 128), slice_config=cfg
        )
        result = SharingSimulator(trace, sim_cfg).run()
        assert result.stats.committed == 600

    def test_gshare_uses_history(self):
        pred = GSharePredictor(entries=256, history_bits=4)
        # Alternating pattern at one PC: bimodal fails, gshare learns.
        for _ in range(64):
            taken = pred.predict(0x10)
            actual = (pred._history & 1) == 0  # alternation
            pred.train(0x10, taken=actual, predicted=taken)
        assert pred.accuracy > 0.5

    def test_unknown_predictor_rejected(self):
        with pytest.raises(ValueError):
            BranchUnit(predictor_kind="neural")
        with pytest.raises(ValueError):
            SliceConfig(predictor_kind="neural")
