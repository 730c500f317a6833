"""Tests for the bimodal predictor, BTB, and branch unit."""

import pytest

from tests.oracles.objmodel.branch import (
    BimodalPredictor, BranchTargetBuffer, BranchUnit,
)


class TestBimodalPredictor:
    def test_learns_always_taken(self):
        pred = BimodalPredictor(entries=64)
        for _ in range(4):
            taken = pred.predict(0x10)
            pred.train(0x10, taken=True, predicted=taken)
        assert pred.predict(0x10) is True

    def test_learns_always_not_taken(self):
        pred = BimodalPredictor(entries=64)
        for _ in range(4):
            taken = pred.predict(0x10)
            pred.train(0x10, taken=False, predicted=taken)
        assert pred.predict(0x10) is False

    def test_two_bit_hysteresis(self):
        """One anomaly must not flip a saturated counter."""
        pred = BimodalPredictor(entries=64)
        for _ in range(4):
            pred.train(0x10, taken=True, predicted=True)
        pred.train(0x10, taken=False, predicted=True)
        assert pred.predict(0x10) is True

    def test_accuracy_tracking(self):
        pred = BimodalPredictor(entries=64)
        p = pred.predict(0x10)
        pred.train(0x10, taken=p, predicted=p)
        assert pred.accuracy == 1.0

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            BimodalPredictor(entries=100)


class TestBTB:
    def test_miss_then_hit(self):
        btb = BranchTargetBuffer(entries=64)
        assert btb.lookup(0x20) is None
        btb.install(0x20, target=0x100)
        assert btb.lookup(0x20) == 0x100

    def test_fake_entries(self):
        """Paper Section 3.1: fake entries redirect non-branch Slices."""
        btb = BranchTargetBuffer(entries=64)
        btb.install(0x20, target=0x104, is_fake=True)
        assert btb.is_fake(0x20)
        assert btb.lookup(0x20) == 0x104

    def test_aliasing_overwrites(self):
        btb = BranchTargetBuffer(entries=4)
        btb.install(0, target=0x100)
        btb.install(4, target=0x200)  # same slot
        assert btb.lookup(0) == 0x200


class TestBranchUnit:
    def test_taken_prediction_needs_btb_entry(self):
        unit = BranchUnit()
        # Saturate the predictor toward taken without a BTB target.
        for _ in range(4):
            unit.predictor.train(0x30, taken=True, predicted=False)
        assert unit.predict(0x30) is False  # no target -> cannot redirect
        unit.btb.install(0x30, target=0x99)
        assert unit.predict(0x30) is True

    def test_resolve_counts_mispredicts(self):
        unit = BranchUnit()
        assert unit.resolve(0x30, taken=True, target=0x99, predicted=False)
        assert unit.mispredicts == 1
        assert not unit.resolve(0x30, taken=True, target=0x99,
                                predicted=True)
        assert unit.mispredict_rate == 0.5

    def test_resolve_installs_btb(self):
        unit = BranchUnit()
        unit.resolve(0x30, taken=True, target=0x99, predicted=False)
        assert unit.btb.lookup(0x30) == 0x99
