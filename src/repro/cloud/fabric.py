"""The manycore fabric: a 2-D array of Slice and Cache Bank tiles.

Paper Figure 3: Slices and Cache Banks sit on a single switched fabric;
"a full chip will have 100's of Slices and Cache Banks".  Slices of a
VCore must be contiguous within a row (operand latency); banks may be
anywhere, with latency set by Manhattan distance.

Allocation is indexed, not scanned (timings for a 64x32 rack on a
2-vCPU Xeon, CPython 3.11):

* Slices: each row keeps one byte per slice column (1 free, 0 owned),
  indexed by slice column, so interleaved bank columns neither break
  nor count toward a run.  A segment tree over each row's longest free
  run finds the lowest row with a run of ``count`` in O(log height), and
  one byte-string search finds the leftmost such run in that row
  (~2 us).  ``claim`` and ``release`` update the tree once per touched
  row.
* Banks: each anchor has a visit order, every bank sorted by
  ``(manhattan_distance, node_id)`` with one numpy stable argsort
  (~0.03 ms).  A query filters the order through the free-tile mask and
  keeps the first ``count``: O(banks) numpy work, ~6 us at any
  occupancy.  Orders depend only on geometry, so they are built on
  first use and shared by every fabric opened with
  :meth:`Fabric.empty_like`; they live as long as those fabrics.

Both queries return exactly what a linear scan would: first-fit lowest
row, leftmost run; nearest banks with ties broken by ascending node id.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.network.topology import Mesh2D


class TileKind(enum.Enum):
    SLICE = "slice"
    BANK = "bank"


class AllocationError(RuntimeError):
    """The fabric cannot satisfy an allocation request."""


def _max_run(row: bytearray) -> int:
    """Longest run of free (``1``) bytes in one row.

    Every piece between occupied bytes is all ones, so the
    lexicographically largest piece is the longest.
    """
    return len(max(row.split(b"\x00")))


class _RowMaxTree:
    """Segment tree over rows: max free-run length, leftmost descent."""

    __slots__ = ("size", "tree")

    def __init__(self, num_rows: int, values: Sequence[int]):
        size = 1
        while size < max(1, num_rows):
            size *= 2
        self.size = size
        self.tree = [0] * (2 * size)
        for y, v in enumerate(values):
            self.tree[size + y] = v
        for i in range(size - 1, 0, -1):
            self.tree[i] = max(self.tree[2 * i], self.tree[2 * i + 1])

    def update(self, row: int, value: int) -> None:
        i = self.size + row
        self.tree[i] = value
        i //= 2
        while i:
            self.tree[i] = max(self.tree[2 * i], self.tree[2 * i + 1])
            i //= 2

    def first_row_with(self, count: int) -> Optional[int]:
        """The lowest row whose max free run is >= ``count``."""
        if self.tree[1] < count:
            return None
        i = 1
        while i < self.size:
            i *= 2
            if self.tree[i] < count:
                i += 1
        return i - self.size


class _BankOrders(dict):
    """anchor -> every bank of one geometry, sorted by
    ``(manhattan distance, node id)``, built on first use.

    Filtering an order down to its free tiles yields the nearest free
    banks with ties broken by ascending node id.  An order depends only
    on geometry, never on occupancy, so it is never invalidated and
    fabrics of one geometry may share the table; it lives exactly as
    long as the fabrics that hold it.  Orders are compact int32 arrays
    (4 KB for a 64x32 rack): a list of fresh Python ints per order
    would take ~37 KB.
    """

    __slots__ = ("width", "nodes", "xs", "ys")

    def __init__(self, width: int, height: int, bank_cols: List[int]):
        super().__init__()
        self.width = width
        # Row-major over ascending columns: bank ids ascending.
        self.nodes = (np.arange(height, dtype=np.int32)[:, None] * width
                      + np.asarray(bank_cols, dtype=np.int32)).ravel()
        self.xs = self.nodes % width
        self.ys = self.nodes // width

    def __missing__(self, anchor: int) -> np.ndarray:
        ay, ax = divmod(anchor, self.width)
        distance = np.abs(self.xs - ax) + np.abs(self.ys - ay)
        # Stable over ascending ids: equal distances keep id order.
        order = self.nodes[np.argsort(distance, kind="stable")]
        self[anchor] = order
        return order


class Fabric:
    """A ``width x height`` grid of tiles.

    The default layout alternates slice columns and bank columns, giving
    a 1:1 Slice:Bank ratio (one Slice to 64 KB); real deployments would
    choose the mix at fabrication time - but unlike a heterogeneous CMP,
    the *grouping* remains fully dynamic.
    """

    def __init__(self, width: int = 16, height: int = 8,
                 bank_columns: Optional[Sequence[int]] = None):
        self.mesh = Mesh2D(width=width, height=height)
        if bank_columns is None:
            bank_columns = range(1, width, 2)
        row_is_bank = [False] * width
        for x in bank_columns:
            if 0 <= x < width:
                row_is_bank[x] = True
        #: node -> is it a bank tile; node ids are row-major, so this
        #: is one row's pattern repeated ``height`` times.
        self._is_bank: List[bool] = row_is_bank * height
        self._owner: Dict[int, str] = {}
        #: node -> free?  Bank queries filter their orders through it.
        self._free = np.ones(self.mesh.num_nodes, dtype=np.bool_)
        #: Claimed nodes per owner, in claim order (release order).
        self._owner_nodes: Dict[str, List[int]] = {}
        #: Slice columns ascending, and x -> slice-column index (-1 on
        #: a bank column).
        self._slice_cols: List[int] = [
            x for x in range(width) if not row_is_bank[x]
        ]
        self._col_index: List[int] = [-1] * width
        for i, x in enumerate(self._slice_cols):
            self._col_index[x] = i
        num_cols = len(self._slice_cols)
        #: Per row, one byte per slice column: 1 free, 0 owned.
        self._rows: List[bytearray] = [
            bytearray(b"\x01") * num_cols for _ in range(height)
        ]
        self._row_tree = _RowMaxTree(height, [num_cols] * height)
        self._free_slices = num_cols * height
        self._free_banks = (width - num_cols) * height
        self._bank_orders = _BankOrders(
            width, height, [x for x in range(width) if row_is_bank[x]])

    def empty_like(self) -> "Fabric":
        """A fully free fabric of this geometry sharing its bank orders.

        The orders depend only on geometry, so a run that opens many
        racks of one shape builds each anchor's order once instead of
        once per rack.  The shared table lives as long as the fabrics
        that hold it: nothing outlives them.
        """
        twin = Fabric(self.mesh.width, self.mesh.height, self.bank_columns)
        twin._bank_orders = self._bank_orders
        return twin

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def kind(self, node: int) -> TileKind:
        if not 0 <= node < self.mesh.num_nodes:
            raise KeyError(node)
        return TileKind.BANK if self._is_bank[node] else TileKind.SLICE

    def owner_of(self, node: int) -> Optional[str]:
        return self._owner.get(node)

    def is_free(self, node: int) -> bool:
        return node not in self._owner

    def tiles(self, kind: TileKind) -> List[int]:
        bank = kind is TileKind.BANK
        return [n for n, b in enumerate(self._is_bank) if b is bank]

    def free_count(self, kind: TileKind) -> int:
        """How many tiles of ``kind`` are free - O(1)."""
        if kind is TileKind.BANK:
            return self._free_banks
        return self._free_slices

    @property
    def bank_columns(self) -> List[int]:
        """Mesh columns made of bank tiles, ascending."""
        return [x for x, i in enumerate(self._col_index) if i < 0]

    @property
    def num_slices(self) -> int:
        return len(self._slice_cols) * self.mesh.height

    @property
    def num_banks(self) -> int:
        return self.mesh.num_nodes - self.num_slices

    def utilization(self) -> float:
        return len(self._owner) / self.mesh.num_nodes

    def max_free_run(self) -> int:
        """Longest contiguous free Slice run on the chip - O(1)."""
        return self._row_tree.tree[1]

    def slice_fragmentation(self) -> float:
        """How scattered the free Slice capacity is, in [0, 1].

        ``1 - max_free_run / best_possible_run`` where the best possible
        run is bounded by the row width (runs cannot span rows): 0 when
        some row offers the longest run the free capacity could ever
        form, approaching 1 when capacity is shredded into single-tile
        fragments.  This is the metric the streaming allocation service
        watches to trigger opportunistic compaction (paper Section 3:
        "fixing fragmentation problems is as simple as rescheduling
        Slices to VCores").
        """
        free = self._free_slices
        if free == 0:
            return 0.0
        best = min(free, len(self._slice_cols))
        return 1.0 - self.max_free_run() / best

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------

    def find_contiguous_slices(self, count: int) -> Optional[List[int]]:
        """A horizontal run of ``count`` free Slice tiles, if one exists.

        Contiguity here means consecutive slice tiles of one row - bank
        columns interleave physically but the slice-to-slice operand
        distance remains proportional to position, which is what the
        latency model charges.  First fit: lowest row, leftmost run.
        """
        if count < 1:
            raise ValueError("need at least one Slice")
        y = self._row_tree.first_row_with(count)
        if y is None:
            return None
        start = self._rows[y].find(b"\x01" * count)
        base = y * self.mesh.width
        cols = self._slice_cols
        return [base + cols[p] for p in range(start, start + count)]

    def find_nearest_banks(self, anchor: int, count: int) -> List[int]:
        """The ``count`` free bank tiles nearest to ``anchor``.

        Ties at equal Manhattan distance break by ascending node id
        (the stable-sort order of the original full-chip scan).
        """
        if count <= 0:
            return []
        if self._free_banks < count:
            raise AllocationError(
                f"need {count} banks, only {self._free_banks} free"
            )
        order = self._bank_orders[anchor]
        return order[self._free.take(order)][:count].tolist()

    def claim(self, nodes: Sequence[int], owner: str) -> None:
        """Give every tile of ``nodes`` to ``owner``: all or nothing.

        Raises :class:`AllocationError`, leaving the fabric unchanged,
        if a node is off the fabric, already owned, or listed twice.
        """
        owner_map = self._owner
        num_nodes = self.mesh.num_nodes
        for node in nodes:
            if not 0 <= node < num_nodes:
                raise AllocationError(f"tile {node} is not on the fabric")
            if node in owner_map:
                raise AllocationError(f"tile {node} already owned")
        if len(set(nodes)) != len(nodes):
            raise AllocationError("a tile is listed twice")
        self._owner_nodes.setdefault(owner, []).extend(nodes)
        for node in nodes:
            owner_map[node] = owner
        self._mark(nodes, 0)

    def release(self, owner: str) -> List[int]:
        """Free every tile owned by ``owner``; returns the freed nodes."""
        freed = self._owner_nodes.pop(owner, [])
        owner_map = self._owner
        for node in freed:
            del owner_map[node]
        self._mark(freed, 1)
        return freed

    def _mark(self, nodes: Sequence[int], free: int) -> None:
        """Set the free bytes of ``nodes`` to ``free`` and move the free
        counts, updating the row tree once per touched row."""
        is_bank = self._is_bank
        width = self.mesh.width
        col_index = self._col_index
        rows = self._rows
        mask = self._free
        touched = set()
        banks = 0
        for node in nodes:
            mask[node] = free
            if is_bank[node]:
                banks += 1
            else:
                y, x = divmod(node, width)
                rows[y][col_index[x]] = free
                touched.add(y)
        step = 1 if free else -1
        self._free_banks += step * banks
        self._free_slices += step * (len(nodes) - banks)
        for y in touched:
            self._row_tree.update(y, _max_run(rows[y]))

    def owned_by(self, owner: str) -> List[int]:
        return sorted(self._owner_nodes.get(owner, []))

    def snapshot_owners(self) -> Dict[str, List[int]]:
        """Every owner's claimed nodes, in claim order.

        JSON-stable (string keys, int lists) and ordered so that
        replaying ``claim(nodes, owner)`` per entry reconstructs the
        internal bookkeeping - including release order - bit-exactly.
        This is the fabric's contribution to
        :meth:`repro.cloud.service.AllocationService.snapshot`.
        """
        return {owner: list(nodes)
                for owner, nodes in self._owner_nodes.items()}
