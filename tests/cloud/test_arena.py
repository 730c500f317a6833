"""The incremental tensor arena: one contiguous table in roster order."""

import numpy as np
import pytest

from repro.cloud.arena import TensorArena


def row(seed, width=6):
    rng = np.random.default_rng(seed)
    return rng.random(width)


def fresh_stack(rows):
    """What ``np.stack`` over the roster would build."""
    return (np.stack([r[0] for r in rows]),
            np.array([[r[1]] for r in rows]),
            np.array([[r[2]] for r in rows]))


def assert_view_matches(arena, rows):
    """``rows`` is the roster's ``(perf_k, inv_k, budget)`` in order."""
    view = arena.active_view()
    if not rows:
        assert view["perf_k"].shape[0] == 0
        return
    perf, inv, budgets = fresh_stack(rows)
    assert np.array_equal(view["perf_k"], perf)
    assert np.array_equal(view["inv_k"], inv)
    assert np.array_equal(view["budgets"], budgets)


class TestSubmitDepart:
    def test_view_tracks_roster_order(self):
        arena = TensorArena(6, capacity=2)
        rows = []
        for i in range(4):
            rows.append((row(i), 1.0 + i, 10.0 * (i + 1)))
            arena.submit(*rows[-1])
            assert_view_matches(arena, rows)
        arena.depart(1)
        del rows[1]
        assert_view_matches(arena, rows)
        arena.depart(2)
        del rows[2]
        assert_view_matches(arena, rows)
        arena.depart(0)
        del rows[0]
        assert_view_matches(arena, rows)

    def test_depart_validates_position(self):
        arena = TensorArena(4)
        arena.submit(row(0, 4), 1.0, 1.0)
        arena.submit(row(1, 4), 1.0, 1.0)
        for index in (2, -1):
            with pytest.raises(IndexError):
                arena.depart(index)
        assert arena.n_active == 2

    def test_grow_doubles(self):
        arena = TensorArena(3, capacity=2)
        rows = [(row(i, 3), 1.0, 1.0) for i in range(5)]
        for r in rows:
            arena.submit(*r)
        assert arena.capacity == 8
        assert arena.n_grows == 2
        assert_view_matches(arena, rows)


class TestResize:
    def test_budget_write_in_place(self):
        arena = TensorArena(4)
        arena.submit(row(0, 4), 1.0, 5.0)
        arena.submit(row(1, 4), 1.0, 6.0)
        before = arena.active_view()["perf_k"].copy()
        arena.set_budget(1, 60.0)
        view = arena.active_view()
        assert view["budgets"][:, 0].tolist() == [5.0, 60.0]
        assert np.array_equal(view["perf_k"], before)
        with pytest.raises(IndexError):
            arena.set_budget(2, 1.0)


class TestMaintenance:
    def make_fragmented(self):
        arena = TensorArena(4)
        rows = []
        for i in range(5):
            rows.append((row(i, 4), 1.0 + i, float(i)))
            arena.submit(*rows[-1])
        for index in (1, 2):
            arena.depart(index)
            del rows[index]
        return arena, rows

    def test_compact_packs_roster_order(self):
        arena, rows = self.make_fragmented()
        arena.compact()
        assert_view_matches(arena, rows)
        # Storage is the table itself: rows sit at their roster index.
        for index, r in enumerate(rows):
            assert np.array_equal(arena.perf_k[index], r[0])

    def test_clear(self):
        arena, _ = self.make_fragmented()
        arena.clear()
        assert arena.n_active == 0
        assert arena.active_view()["perf_k"].shape[0] == 0
