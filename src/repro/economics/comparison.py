"""Market-efficiency comparisons (paper Section 5.8, Figures 15-16).

Figure 15 compares the Sharing Architecture against the single best
*static fixed* configuration - the one that maximises the geometric mean
of utility across every (benchmark, utility-function) customer.  For
each pairwise mix of two customers, the gain is

    (U_b1(sharing) + U_b2(sharing)) / (U_b1(fixed) + U_b2(fixed))

Figure 16 compares against a *heterogeneous* multicore in the spirit of
[18]: per utility function the best configuration across the benchmark
suite is chosen, and each customer runs on their utility's tuned core:

    (U_b1(sharing) + U_b2(sharing)) / (U_b1(fixed_c) + U_b2(fixed_d))

Both studies restrict to Market2 (prices track area), as the paper does.

Customer utilities live in one ``(customers, configs)`` matrix built by
the market kernel, reference configs are log-mean argmaxes and the
pairwise studies are upper-triangle tensor reductions - no Python double
loop touches the ~n^2/2 pair space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.economics.market import MARKET2, Market
from repro.economics.optimizer import UtilityOptimizer
from repro.economics.tensor import pair_gain_summary
from repro.economics.utility import STANDARD_UTILITIES, UtilityFunction


@dataclass(frozen=True)
class Customer:
    """One (benchmark, utility) pair - one Cloud customer archetype."""

    benchmark: str
    utility: UtilityFunction

    @property
    def key(self) -> Tuple[str, str]:
        return self.benchmark, self.utility.name


@dataclass(frozen=True)
class PairGain:
    """Utility gain of the Sharing Architecture for one customer pair."""

    customer_a: Tuple[str, str]
    customer_b: Tuple[str, str]
    sharing_utility: float
    fixed_utility: float

    @property
    def gain(self) -> float:
        if self.fixed_utility <= 0:
            return float("inf")
        return self.sharing_utility / self.fixed_utility


class MarketEfficiencyComparison:
    """Pairwise utility-gain studies against fixed architectures."""

    def __init__(self, benchmarks: Sequence[str],
                 utilities: Sequence[UtilityFunction] = STANDARD_UTILITIES,
                 market: Market = MARKET2,
                 optimizer: Optional[UtilityOptimizer] = None,
                 engine=None):
        if not benchmarks:
            raise ValueError("need at least one benchmark")
        self.benchmarks = list(benchmarks)
        self.utilities = list(utilities)
        self.market = market
        self.optimizer = (optimizer if optimizer is not None
                          else UtilityOptimizer(engine=engine))
        #: Grid points in flat (cache outer, slice inner) order - the
        #: column order of the utility matrix.
        self._configs: List[Tuple[float, int]] = [
            (cache_kb, slices)
            for cache_kb in self.optimizer.cache_grid
            for slices in self.optimizer.slice_grid
        ]
        self.optimizer.prime(self.benchmarks)
        self.customers: List[Customer] = [
            Customer(benchmark=b, utility=u)
            for b in self.benchmarks
            for u in self.utilities
        ]
        kernel = self.optimizer.kernel.for_market(market)
        rows = [
            kernel.utility_grid(c.benchmark, c.utility,
                                self.optimizer.budget).ravel()
            for c in self.customers
        ]
        #: Customer utilities, shape (customers, configs).
        self._U = np.stack(rows)
        #: Each customer's utility at their own optimum (sharing).
        self._sharing = [float(row.max()) for row in rows]
        self._static_cfg: Optional[Tuple[float, int]] = None
        self._per_utility_cfg: Optional[Dict[str, Tuple[float, int]]] = None

    # ------------------------------------------------------------------
    # fixed-architecture references
    # ------------------------------------------------------------------

    def _best_reference_config(self, indices: Sequence[int]
                               ) -> Tuple[float, int]:
        """The config maximising the customers' geometric-mean utility.

        Non-positive utilities have no geometric mean; the error names
        the offending customer and config.
        """
        sub = self._U[list(indices)]
        bad = np.argwhere(sub <= 0)
        if bad.size:
            i, j = (int(v) for v in bad[0])
            customer = self.customers[list(indices)[i]]
            raise ValueError(
                f"geometric mean undefined: non-positive utility "
                f"{float(sub[i, j])!r} for customer "
                f"{customer.key} at config {self._configs[j]}"
            )
        score = np.log(sub).mean(axis=0)
        return self._configs[int(np.argmax(score))]

    def best_static_config(self) -> Tuple[float, int]:
        """The single configuration maximising GME across all customers.

        This is the paper's "optimal fixed architecture ... determined
        across all benchmarks and the three utility functions".
        """
        if self._static_cfg is None:
            self._static_cfg = self._best_reference_config(
                range(len(self.customers))
            )
        return self._static_cfg

    def best_config_for_utility(self, utility: UtilityFunction
                                ) -> Tuple[float, int]:
        """Per-utility best configuration (heterogeneous design point)."""
        indices = [
            i for i, c in enumerate(self.customers)
            if c.utility is utility or c.utility.name == utility.name
        ]
        return self._best_reference_config(indices)

    def _per_utility_configs(self) -> Dict[str, Tuple[float, int]]:
        if self._per_utility_cfg is None:
            self._per_utility_cfg = {
                u.name: self.best_config_for_utility(u)
                for u in self.utilities
            }
        return self._per_utility_cfg

    # ------------------------------------------------------------------
    # pairwise gain studies
    # ------------------------------------------------------------------

    def _fixed_vector_static(self) -> List[float]:
        cfg_index = self._configs.index(self.best_static_config())
        return [float(v) for v in self._U[:, cfg_index]]

    def _fixed_vector_hetero(self) -> List[float]:
        cfg_indices = {
            name: self._configs.index(cfg)
            for name, cfg in self._per_utility_configs().items()
        }
        return [
            float(self._U[i, cfg_indices[c.utility.name]])
            for i, c in enumerate(self.customers)
        ]

    def _pair_gains(self, fixed: Sequence[float]) -> List[PairGain]:
        """All-pairs gains from per-customer vectors.

        The pair space is one upper-triangle broadcast; the PairGain
        objects are built from the resulting arrays (callers wanting
        statistics only should use the summary methods, which never
        materialize the pairs).
        """
        keys = [c.key for c in self.customers]
        sh = np.asarray(self._sharing)
        fx = np.asarray(fixed)
        i, j = np.triu_indices(len(keys), k=1)
        sh_sum = sh[i] + sh[j]
        fx_sum = fx[i] + fx[j]
        return [
            PairGain(keys[a], keys[b], float(s), float(f))
            for a, b, s, f in zip(i.tolist(), j.tolist(),
                                  sh_sum.tolist(), fx_sum.tolist())
        ]

    def gains_vs_static(self) -> List[PairGain]:
        """Figure 15: all customer pairs against the best static config."""
        return self._pair_gains(self._fixed_vector_static())

    def gains_vs_heterogeneous(self) -> List[PairGain]:
        """Figure 16: pairs against per-utility tuned heterogeneous cores."""
        return self._pair_gains(self._fixed_vector_hetero())

    def summary_vs_static(self) -> Dict[str, float]:
        """Figure 15 statistics as pure tensor reductions (no per-pair
        objects) - the datacenter-scale path."""
        return pair_gain_summary(self._sharing,
                                 self._fixed_vector_static())

    def summary_vs_heterogeneous(self) -> Dict[str, float]:
        """Figure 16 statistics as pure tensor reductions."""
        return pair_gain_summary(self._sharing,
                                 self._fixed_vector_hetero())

    @staticmethod
    def summarize(gains: Sequence[PairGain]) -> Dict[str, float]:
        values = [g.gain for g in gains]
        values.sort()
        return {
            "pairs": len(values),
            "min": values[0],
            "median": values[len(values) // 2],
            "mean": sum(values) / len(values),
            "max": values[-1],
        }
