"""Vectorized market kernel: numpy utility tensors over the config grid.

The paper's economic evaluation is tensor-shaped: every customer's
utility ``U(c, s, v)`` is evaluated over the full (cache, slices) grid
(Equation 3), optima are grid argmaxes (Table 6, Figure 14), and the
market-efficiency studies reduce over all customer pairs (Figures
15-16).  This module materializes that space as numpy arrays, and it is
the only economics path: the optimizer, the comparisons, the efficiency
tables, the auction and the allocation service all evaluate through it.

* :func:`performance_tensor` - ``P[bench, cache, slice]`` evaluated in
  one broadcasted pass that mirrors
  :class:`~repro.perfmodel.model.AnalyticModel` operation for
  operation (same order of arithmetic, so values agree with the scalar
  model to the last few ulps - see DESIGN.md "Vectorized market kernel"
  for the fp-tolerance policy);
* :func:`cost_matrix` / :func:`vcores_matrix` - Equation 2 over the
  grid for one market;
* :class:`MarketKernel` - per-profile performance rows memoized once
  and shared across every utility function and market, plus
  budget-feasibility masks and the masked-argmax ``best`` that backs
  :meth:`~repro.economics.optimizer.UtilityOptimizer.best`.

Model contract
--------------
:func:`performance_tensor` re-derives ``P(c, s)`` from the profile's
fields and the model's ``comm_tolerance`` and ``mlp_per_slice``; it
never calls :meth:`AnalyticModel.performance`.  A model subclass that
overrides ``performance`` therefore changes nothing on this path.  (The
engine's :class:`~repro.engine.core.GridModel` overrides it only to
serve cached values of the same pipeline, so nothing is lost there.)
To give the kernel a different performance surface, pass different
profiles or model parameters.

Market binding
--------------
A :class:`MarketKernel` may be *bound* to one market at construction
(``MarketKernel(market=...)``), after which ``market_cost()``,
``vcores(budget)``, ``utility_grid(profile, utility, budget)`` and
``best(profile, utility, budget)`` need no market argument.
:meth:`MarketKernel.for_market` derives a bound view that shares the
memoized performance rows and cost matrices, which is how multi-market
callers (the optimizer's Table 6 sweep) keep the per-profile sharing.
Market queries on an unbound kernel raise ``TypeError``.

Tie-breaking contract: ``np.argmax`` over the row-major ``(cache,
slice)`` array returns the first occurrence of the maximum, which is
the first strictly greater value in (cache outer, slice inner) order -
the winner the scalar oracle loops in ``tests/oracles/economics.py``
keep.  The equivalence suite holds the kernel to them.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.perfmodel.model import (
    ALU_PATH_FRACTION,
    BRANCH_PENALTY_BASE,
    BRANCH_PENALTY_MULTISLICE,
    CACHE_GRID_KB,
    L1_EXPOSED,
    L1_LATENCY,
    MEMORY_DELAY,
    SLICE_GRID,
    AnalyticModel,
    ProfileLike,
    _resolve,
    l2_mean_latency,
)


# ---------------------------------------------------------------------
# performance tensor
# ---------------------------------------------------------------------

#: Profile fields the analytic model reads, gathered into broadcast
#: arrays of shape (B, 1, 1).
_PROFILE_FIELDS = (
    "ilp", "comm_sens", "br_mpki", "l1_mpki", "l2_ws_kb", "l2_floor",
    "mlp", "frac_load", "thread_cap",
)


def performance_tensor(profiles: Sequence[ProfileLike],
                       cache_grid: Sequence[float] = CACHE_GRID_KB,
                       slice_grid: Sequence[int] = SLICE_GRID,
                       model: Optional[AnalyticModel] = None):
    """``P[bench, cache, slice]`` for every profile in one pass.

    Mirrors :meth:`AnalyticModel.performance` arithmetic exactly
    (operation order included), broadcast over all three axes at once.
    Reads only the profiles' fields and ``model.comm_tolerance`` /
    ``model.mlp_per_slice`` (see "Model contract" above).
    """
    model = model or AnalyticModel()
    profs = [_resolve(p) for p in profiles]
    fields = {
        name: np.array([getattr(p, name) for p in profs],
                       dtype=np.float64).reshape(-1, 1, 1)
        for name in _PROFILE_FIELDS
    }
    cache = np.asarray(cache_grid, dtype=np.float64).reshape(1, -1, 1)
    slices = np.asarray(slice_grid, dtype=np.float64).reshape(1, 1, -1)
    #: Mean L2 hit latency is a pure function of the cache axis; the
    #: ring-packing loop stays scalar (9 values), exactly as computed by
    #: :func:`l2_mean_latency`.
    l2_lat = np.array([l2_mean_latency(c) for c in cache_grid],
                      dtype=np.float64).reshape(1, -1, 1)

    ipc = _ipc(model, fields, cache, slices, l2_lat)
    cap = fields["thread_cap"]
    if np.any(cap > 0):
        # Paper Section 5.3: PARSEC speedup over one Slice is bounded.
        base = _ipc(model, fields, cache,
                    np.ones((1, 1, 1), dtype=np.float64), l2_lat)
        capped = np.minimum(ipc, cap * base)
        ipc = np.where((cap > 0) & (slices > 1), capped, ipc)
    return ipc


def _ipc(model: AnalyticModel, f: Dict[str, "np.ndarray"],
         cache: "np.ndarray", slices: "np.ndarray",
         l2_lat: "np.ndarray") -> "np.ndarray":
    """Broadcasted CPI pipeline; every line matches the scalar model."""
    # --- core CPI (dependence-limited issue rate) ---
    cross_fraction = f["comm_sens"] * (1.0 - 1.0 / slices)
    mean_hops = (slices + 1) / 3.0
    one_way = 1.0 + mean_hops
    penalty = cross_fraction * one_way / model.comm_tolerance
    ilp = np.where(slices == 1, f["ilp"], f["ilp"] / (1.0 + penalty))
    width_cap = np.minimum(2.0 * slices, slices / ALU_PATH_FRACTION)
    core_ipc = 1.0 / (1.0 / width_cap + 1.0 / ilp)
    core = 1.0 / core_ipc

    # --- branch CPI (mispredict refill depth) ---
    br_penalty = np.where(
        slices > 1,
        BRANCH_PENALTY_BASE + BRANCH_PENALTY_MULTISLICE + (slices + 1) / 3.0,
        BRANCH_PENALTY_BASE,
    )
    branch = (f["br_mpki"] / 1000.0) * br_penalty

    # --- memory CPI (L1 misses through the distance-priced L2) ---
    decay = np.exp(-cache / f["l2_ws_kb"])
    miss = np.where(cache <= 0, 1.0,
                    f["l2_floor"] + (1.0 - f["l2_floor"]) * decay)
    avg = l2_lat + miss * MEMORY_DELAY
    mlp = f["mlp"] * (
        1.0 + model.mlp_per_slice * (f["mlp"] - 1.0)
        * np.sqrt(slices - 1)
    )
    exposed_l1 = (L1_EXPOSED * L1_LATENCY * (f["frac_load"] / 0.25)
                  / (10.0 * (1.0 + 0.3 * (slices - 1))))
    memory = (f["l1_mpki"] / 1000.0) * avg / mlp + exposed_l1

    return 1.0 / (core + branch + memory)


# ---------------------------------------------------------------------
# market matrices (Equation 2 over the grid)
# ---------------------------------------------------------------------


def cost_matrix(market, cache_grid: Sequence[float] = CACHE_GRID_KB,
                slice_grid: Sequence[int] = SLICE_GRID):
    """Hourly VCore cost per grid point, shape ``(cache, slice)``.

    Same arithmetic order as :meth:`~repro.economics.market.Market.cost`
    so values agree bitwise with the scalar formula.
    """
    cache = np.asarray(cache_grid, dtype=np.float64).reshape(-1, 1)
    slices = np.asarray(slice_grid, dtype=np.float64).reshape(1, -1)
    banks = cache / 64.0
    return (market.bank_price * banks + market.slice_price * slices
            + market.fixed_cost)


def vcores_matrix(market, budget: float,
                  cache_grid: Sequence[float] = CACHE_GRID_KB,
                  slice_grid: Sequence[int] = SLICE_GRID):
    """Equation 2 over the grid: ``v = B / cost(c, s)``."""
    if budget < 0:
        raise ValueError("budget cannot be negative")
    return budget / cost_matrix(market, cache_grid, slice_grid)


def utility_matrix(perf, vcores, utility):
    """``U = v^(1/k) * P^k`` elementwise (same op order as the scalar
    :meth:`~repro.economics.utility.UtilityFunction.value`)."""
    k = utility.perf_exponent
    return (vcores ** (1.0 / k)) * (perf ** k)


# ---------------------------------------------------------------------
# the kernel
# ---------------------------------------------------------------------


class MarketKernel:
    """Memoized utility-tensor evaluator over one configuration grid.

    One kernel holds per-profile performance rows (built once, shared
    across every utility function and market that queries them - the
    hit/miss counters quantify the sharing) plus per-market cost
    matrices.  ``best`` is a feasibility-masked argmax; ``utility_grid``
    hands the full surface to Figure 14 and the pairwise studies.

    ``min_vcores`` is the budget-feasibility floor: configurations whose
    affordable replication falls below it are masked out of ``best``.
    The default ``0.0`` keeps every configuration feasible, matching the
    paper's continuous-``v`` treatment.

    Performance rows come from :func:`performance_tensor`, so the
    kernel sees ``model`` only through its ``comm_tolerance`` and
    ``mlp_per_slice``: an overridden ``model.performance`` is never
    called (see the module's "Model contract").

    A kernel may be *bound* to one market at construction
    (``market=``); bound kernels drop the ``market`` argument from
    every query (``vcores(budget)``, ``best(profile, utility,
    budget)``).  :meth:`for_market` derives a bound view sharing this
    kernel's memoized rows, so multi-market sweeps keep the
    per-profile sharing.  Market queries on an unbound kernel raise
    ``TypeError``.
    """

    def __init__(self, model: Optional[AnalyticModel] = None,
                 cache_grid: Sequence[float] = CACHE_GRID_KB,
                 slice_grid: Sequence[int] = SLICE_GRID,
                 obs=None, market=None):
        self.model = model or AnalyticModel()
        self.cache_grid = tuple(float(c) for c in cache_grid)
        self.slice_grid = tuple(int(s) for s in slice_grid)
        self.market = market
        self._perf_rows: Dict[object, "np.ndarray"] = {}
        self._pow_rows: Dict[Tuple[object, float], "np.ndarray"] = {}
        self._cost: Dict[Tuple[str, float, float, float], "np.ndarray"] = {}
        self._views: Dict[Tuple[str, float, float, float],
                          "MarketKernel"] = {}
        from repro.obs import OBS_OFF

        scope = (obs or OBS_OFF).scope("economics.kernel")
        self._c_row_hits = scope.counter("perf_rows.hits")
        self._c_row_misses = scope.counter("perf_rows.misses")
        self._c_grids = scope.counter("utility_grids")
        self._t_build = scope.timer("perf_build_s")

    # -- market binding --------------------------------------------------

    @staticmethod
    def _market_key(market) -> Tuple[str, float, float, float]:
        return (market.name, market.slice_price, market.bank_price,
                market.fixed_cost)

    def for_market(self, market) -> "MarketKernel":
        """A view of this kernel bound to ``market``.

        Views share the memoized performance rows, cost matrices and
        obs counters with their parent (and with each other), so
        binding costs nothing beyond a small shell object.
        """
        if market is None:
            raise ValueError("for_market needs a market")
        if self.market is not None and self._market_key(
                self.market) == self._market_key(market):
            return self
        key = self._market_key(market)
        view = self._views.get(key)
        if view is None:
            view = MarketKernel.__new__(MarketKernel)
            view.__dict__ = dict(self.__dict__)
            view.market = market
            self._views[key] = view
        return view

    def _bound(self, method: str):
        """The bound market; ``TypeError`` on an unbound kernel."""
        if self.market is None:
            raise TypeError(
                f"MarketKernel.{method}: no market bound; construct "
                "with MarketKernel(market=...) or use for_market()"
            )
        return self.market

    # -- performance rows ------------------------------------------------

    def prime(self, profiles: Sequence[ProfileLike]) -> None:
        """Batch-build performance rows for ``profiles`` in one pass."""
        fresh = []
        for profile in profiles:
            prof = _resolve(profile)
            if prof not in self._perf_rows:
                fresh.append(prof)
        if not fresh:
            return
        with self._t_build:
            tensor = performance_tensor(fresh, self.cache_grid,
                                        self.slice_grid, self.model)
        for i, prof in enumerate(fresh):
            self._perf_rows[prof] = tensor[i]
        self._c_row_misses.inc(len(fresh))

    def perf_row(self, profile: ProfileLike) -> "np.ndarray":
        """``P(c, s)`` for one profile, shape ``(cache, slice)``."""
        prof = _resolve(profile)
        row = self._perf_rows.get(prof)
        if row is not None:
            self._c_row_hits.inc()
            return row
        self.prime([prof])
        return self._perf_rows[prof]

    def perf_pow_row(self, profile: ProfileLike,
                     k: float) -> "np.ndarray":
        """Flat ``P(c, s)^k``, shape ``(cache * slice,)``, memoized per
        ``(profile, exponent)``.

        This is the row the streaming service's tensor arena copies
        in-place on every admission: building it here (rather than in
        each service) shares the exponentiation across coupled shards
        that trade over one kernel, and guarantees a restored arena
        reproduces its rows bit-exactly - the row is a pure function of
        the profile and the utility exponent.
        """
        prof = _resolve(profile)
        key = (prof, k)
        row = self._pow_rows.get(key)
        if row is None:
            row = (self.perf_row(prof) ** k).ravel()
            self._pow_rows[key] = row
        return row

    # -- market matrices -------------------------------------------------

    def _cost_for(self, market) -> "np.ndarray":
        key = self._market_key(market)
        cost = self._cost.get(key)
        if cost is None:
            cost = cost_matrix(market, self.cache_grid, self.slice_grid)
            self._cost[key] = cost
        return cost

    def market_cost(self) -> "np.ndarray":
        """Equation 2 cost over the grid for the bound market."""
        return self._cost_for(self._bound("market_cost"))

    def _vcores_for(self, market, budget: float) -> "np.ndarray":
        if budget < 0:
            raise ValueError("budget cannot be negative")
        return budget / self._cost_for(market)

    def vcores(self, budget: float) -> "np.ndarray":
        """``v = B / cost`` over the grid for the bound market."""
        return self._vcores_for(self._bound("vcores"), budget)

    def feasibility_mask(self, budget: float, *,
                         min_vcores: float = 0.0) -> "np.ndarray":
        """Boolean grid: configurations affordable under the budget."""
        return self._vcores_for(self._bound("feasibility_mask"),
                                budget) >= min_vcores

    # -- utility surfaces and optima ------------------------------------

    def utility_grid(self, profile: ProfileLike, utility,
                     budget: float) -> "np.ndarray":
        """``U(c, s)`` surface for one customer, shape ``(cache, slice)``."""
        market = self._bound("utility_grid")
        self._c_grids.inc()
        return utility_matrix(self.perf_row(profile),
                              self._vcores_for(market, budget), utility)

    def best(self, profile: ProfileLike, utility, budget: float, *,
             min_vcores: float = 0.0
             ) -> Tuple[float, int, float, float, float]:
        """Masked argmax over the grid.

        Returns ``(cache_kb, slices, vcores, performance, utility)`` for
        the feasible utility-maximising configuration; raises
        ``ValueError`` when the mask leaves nothing feasible.
        """
        market = self._bound("best")
        grid = self.utility_grid(profile, utility, budget)
        if min_vcores > 0.0:
            mask = self._vcores_for(market, budget) >= min_vcores
            if not mask.any():
                raise ValueError(
                    f"no feasible configuration for budget {budget:g} "
                    f"with min_vcores={min_vcores:g} in {market.name}"
                )
            grid = np.where(mask, grid, -np.inf)
        flat = int(np.argmax(grid))
        ci, si = divmod(flat, len(self.slice_grid))
        cache_kb = self.cache_grid[ci]
        slices = self.slice_grid[si]
        return (
            cache_kb,
            slices,
            float(self._vcores_for(market, budget)[ci, si]),
            float(self.perf_row(profile)[ci, si]),
            float(grid[ci, si]),
        )


def pair_gain_summary(sharing, fixed) -> Dict[str, float]:
    """Figure 15/16 pairwise-gain summary as pure tensor reductions.

    ``sharing``/``fixed`` are per-customer utility vectors; the gain of
    pair ``(i, j)`` is ``(sharing_i + sharing_j) / (fixed_i + fixed_j)``
    over all ``i < j``.  Matches
    :meth:`~repro.economics.comparison.MarketEfficiencyComparison.summarize`
    field for field without materializing any per-pair objects.
    """
    sh = np.asarray(sharing, dtype=np.float64)
    fx = np.asarray(fixed, dtype=np.float64)
    if sh.shape != fx.shape or sh.ndim != 1:
        raise ValueError("sharing/fixed must be equal-length vectors")
    n = sh.shape[0]
    if n < 2:
        raise ValueError("need at least two customers to form pairs")
    i, j = np.triu_indices(n, k=1)
    num = sh[i] + sh[j]
    den = fx[i] + fx[j]
    gains = np.where(den <= 0, np.inf, num / np.where(den <= 0, 1.0, den))
    ordered = np.sort(gains)
    count = ordered.shape[0]
    return {
        "pairs": count,
        "min": float(ordered[0]),
        "median": float(ordered[count // 2]),
        "mean": float(ordered.mean()),
        "max": float(ordered[-1]),
    }


def geometric_mean_vector(utilities_by_customer) -> "np.ndarray":
    """Per-config geometric mean over customers via mean-of-logs.

    ``utilities_by_customer`` has shape ``(customers, configs)``; all
    values must be strictly positive (callers validate and raise a
    :class:`ValueError` naming the offending customer first).
    """
    arr = np.asarray(utilities_by_customer, dtype=np.float64)
    return np.exp(np.log(arr).mean(axis=0))
