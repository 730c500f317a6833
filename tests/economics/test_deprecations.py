"""Market binding on :class:`~repro.economics.tensor.MarketKernel`.

A kernel answers market queries only once a market is bound, at
construction or through ``for_market``; an unbound kernel - or a call
still threading the market through as an argument - raises
``TypeError``.  Bound views share the parent's memoized rows.
"""

import pytest

np = pytest.importorskip("numpy")

from repro.economics.market import MARKET2
from repro.economics.tensor import MarketKernel
from repro.economics.utility import UTILITY2


class TestKernelMarketBinding:
    def test_unbound_kernel_without_market_raises(self):
        kernel = MarketKernel()
        with pytest.raises(TypeError, match="no market bound"):
            kernel.vcores(24.0)
        with pytest.raises(TypeError, match="no market bound"):
            kernel.best("gcc", UTILITY2, 24.0)
        with pytest.raises(TypeError):
            kernel.best("gcc", UTILITY2, MARKET2, 24.0)

    def test_for_market_views_share_performance_rows(self):
        kernel = MarketKernel(market=MARKET2)
        kernel.perf_row("gcc")
        view = kernel.for_market(MARKET2)
        assert view is kernel
