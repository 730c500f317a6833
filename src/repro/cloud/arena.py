"""Incremental tensor arena for the streaming allocation service.

The rebuild-on-invalidate stack re-``np.stack``-ed every per-tenant
utility row whenever the roster changed - an O(active) rebuild per
event.  :class:`TensorArena` replaces it with one contiguous table:
preallocated ``perf_k`` / ``inv_k`` / ``budgets`` arrays whose first
``n_active`` rows hold the roster in arrival order.  Capacity grows by
amortized doubling; submit appends a row, depart shifts the suffix
down one row, and resize writes one budget cell, so the table's
contents are always bit-identical to ``np.stack`` over the roster and
no per-step stacking ever happens.  The arena keeps no tenant names:
the service's roster is the only index, and row ``i`` belongs to
roster tenant ``i``.

Bit-identity argument: every row is a float64 copy of the exact
memoized ``P^k`` row ``np.stack`` would have copied, rows sit in the
same (arrival) order, and a row-prefix of a C-contiguous array is
itself C-contiguous - so every downstream reduction (`argmax`, `sum`)
runs over identical bytes in identical order.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

#: Initial row capacity; doubling from here amortizes growth to O(1)
#: row copies per admission.
INITIAL_CAPACITY = 64


class TensorArena:
    """Preallocated per-tenant round tensors, one row per roster
    tenant in arrival order.

    Parameters
    ----------
    row_width:
        Flattened configuration-grid width (``cache * slice``).
    capacity:
        Initial row capacity (grows by doubling).
    scope:
        An obs scope (e.g. ``cloud.service``); the arena registers its
        instruments under ``<scope>.arena.*``.
    """

    def __init__(self, row_width: int, capacity: int = INITIAL_CAPACITY,
                 scope=None):
        self.row_width = int(row_width)
        self.capacity = max(1, int(capacity))
        # Rounds read [:n_active]; the column shape of inv_k/budgets is
        # what broadcasts them against the (n, row_width) utility.
        self.perf_k = np.zeros((self.capacity, self.row_width))
        self.inv_k = np.zeros((self.capacity, 1))
        self.budgets = np.zeros((self.capacity, 1))
        self.n_active = 0

        from repro.obs import NULL_SCOPE

        scope = scope if scope is not None else NULL_SCOPE
        self._c_grows = scope.counter("arena.grows")
        scope.gauge("arena.active_view", lambda: self.n_active)
        scope.gauge("arena.capacity", lambda: self.capacity)
        #: Mirrored plain tally (obs may be off).
        self.n_grows = 0

    def _grow(self, need: int) -> None:
        capacity = self.capacity
        while capacity < need:
            capacity *= 2
        n = self.n_active
        for attr in ("perf_k", "inv_k", "budgets"):
            old = getattr(self, attr)
            grown = np.zeros((capacity, old.shape[1]))
            grown[:n] = old[:n]
            setattr(self, attr, grown)
        self.capacity = capacity
        self._c_grows.inc()
        self.n_grows += 1

    def _check(self, index: int) -> None:
        if not 0 <= index < self.n_active:
            raise IndexError(f"arena row {index} out of range for "
                             f"{self.n_active} rows")

    def submit(self, perf_k_row, inv_k: float, budget: float) -> None:
        """Append one tenant's row (the roster's newest arrival)."""
        n = self.n_active
        if n >= self.capacity:
            self._grow(n + 1)
        self.perf_k[n] = perf_k_row
        self.inv_k[n, 0] = inv_k
        self.budgets[n, 0] = budget
        self.n_active = n + 1

    def depart(self, index: int) -> None:
        """Remove row ``index`` by shifting the suffix down one row, so
        the table stays equal to a fresh stack of the shrunken roster."""
        self._check(index)
        n = self.n_active
        if index < n - 1:
            self.perf_k[index:n - 1] = self.perf_k[index + 1:n]
            self.inv_k[index:n - 1] = self.inv_k[index + 1:n]
            self.budgets[index:n - 1] = self.budgets[index + 1:n]
        self.n_active = n - 1

    def set_budget(self, index: int, budget: float) -> None:
        """Write one budget cell (resize); the utility row is
        budget-independent so nothing else moves."""
        self._check(index)
        self.budgets[index, 0] = budget

    def active_view(self) -> Dict[str, Any]:
        """The contiguous round tensors - zero stacking, zero copies."""
        n = self.n_active
        return {
            "perf_k": self.perf_k[:n],
            "inv_k": self.inv_k[:n],
            "budgets": self.budgets[:n],
        }

    def compact(self) -> None:
        """No-op: the table is always packed in roster order.  Kept
        only because ``perfbench/spans.py`` wraps it by name."""

    def clear(self) -> None:
        """Forget every tenant (restore() rebuilds from a snapshot)."""
        self.n_active = 0
