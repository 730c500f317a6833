"""The manycore fabric: a 2-D array of Slice and Cache Bank tiles.

Paper Figure 3: Slices and Cache Banks sit on a single switched fabric;
"a full chip will have 100's of Slices and Cache Banks".  Slices of a
VCore must be contiguous within a row (operand latency); banks may be
anywhere, with latency set by Manhattan distance.

Allocation is indexed, not scanned.  Each row keeps its free slice
positions as sorted maximal intervals (in slice-column index space, so
interleaved bank columns neither break nor count toward a run), and a
segment tree over per-row maximum run lengths answers "lowest row with a
free run of ``count``" in O(log height).  Free banks are found by
walking a lazily-built per-anchor visit order - every bank sorted once
by ``(manhattan_distance, node_id)`` - and filtering occupied tiles,
which is exactly the order a Manhattan-ring expansion (or a full-chip
stable sort) emits.  Both paths return bit-identical placements to the
original linear scans: first-fit lowest row, leftmost run; nearest
banks with ties broken by ascending node id.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.network.topology import Mesh2D


class TileKind(enum.Enum):
    SLICE = "slice"
    BANK = "bank"


class AllocationError(RuntimeError):
    """The fabric cannot satisfy an allocation request."""


@dataclass(frozen=True)
class TileAssignment:
    """Who owns a tile."""

    owner: str  # VCore id


class _RowRuns:
    """One row's free slice positions as sorted maximal intervals.

    Positions are slice-column *indices* (0..S-1), not x coordinates:
    a bank column between two slice columns does not interrupt a run,
    matching the original scan's ``continue`` over bank tiles.
    """

    __slots__ = ("starts", "ends")

    def __init__(self, num_positions: int):
        if num_positions > 0:
            self.starts = [0]
            self.ends = [num_positions]
        else:
            self.starts = []
            self.ends = []

    def max_run(self) -> int:
        starts = self.starts
        if not starts:
            return 0
        ends = self.ends
        best = 0
        for i in range(len(starts)):
            length = ends[i] - starts[i]
            if length > best:
                best = length
        return best

    def first_run(self, count: int) -> Optional[int]:
        """Start position of the leftmost free run of >= ``count``."""
        for s, e in zip(self.starts, self.ends):
            if e - s >= count:
                return s
        return None

    def _locate(self, pos: int) -> int:
        i = bisect_right(self.starts, pos) - 1
        if i < 0 or pos >= self.ends[i]:
            raise AllocationError(f"slice position {pos} is not free")
        return i

    def remove(self, pos: int) -> None:
        """Mark ``pos`` occupied, splitting its interval as needed."""
        i = self._locate(pos)
        s, e = self.starts[i], self.ends[i]
        if s == pos and e == pos + 1:
            del self.starts[i]
            del self.ends[i]
        elif s == pos:
            self.starts[i] = pos + 1
        elif e == pos + 1:
            self.ends[i] = pos
        else:  # split interior
            self.ends[i] = pos
            self.starts.insert(i + 1, pos + 1)
            self.ends.insert(i + 1, e)

    def add(self, pos: int) -> None:
        """Mark ``pos`` free again, merging with neighbours."""
        i = bisect_right(self.starts, pos) - 1
        left = i >= 0 and self.ends[i] == pos
        right = (i + 1 < len(self.starts)
                 and self.starts[i + 1] == pos + 1)
        if i >= 0 and pos < self.ends[i]:
            raise AllocationError(f"slice position {pos} already free")
        if left and right:
            self.ends[i] = self.ends[i + 1]
            del self.starts[i + 1]
            del self.ends[i + 1]
        elif left:
            self.ends[i] = pos + 1
        elif right:
            self.starts[i + 1] = pos
        else:
            self.starts.insert(i + 1, pos)
            self.ends.insert(i + 1, pos + 1)


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
            bank_columns = [x for x in range(width) if x % 2 == 1]
        bank_cols: Set[int] = set(bank_columns)
        self._kind: Dict[int, TileKind] = {}
        for node in range(self.mesh.num_nodes):
            x, _ = self.mesh.coords(node)
            self._kind[node] = (
                TileKind.BANK if x in bank_cols else TileKind.SLICE
            )
        self._owner: Dict[int, str] = {}
        #: Claimed nodes per owner, in claim order (release order).
        self._owner_nodes: Dict[str, List[int]] = {}
        #: Slice columns ascending, and x -> slice-column index.
        self._slice_cols: List[int] = sorted(
            x for x in range(width) if x not in bank_cols
        )
        self._col_index: Dict[int, int] = {
            x: i for i, x in enumerate(self._slice_cols)
        }
        self._rows: List[_RowRuns] = [
            _RowRuns(len(self._slice_cols)) for _ in range(height)
        ]
        self._row_tree = _RowMaxTree(
            height, [r.max_run() for r in self._rows]
        )
        self._free_counts: Dict[TileKind, int] = {
            TileKind.SLICE: len(self._slice_cols) * height,
            TileKind.BANK: len(bank_cols & set(range(width))) * height,
        }
        #: All bank node ids, ascending.
        self._bank_nodes: List[int] = [
            n for n, k in self._kind.items() if k is TileKind.BANK
        ]
        #: anchor -> every bank sorted by (manhattan distance, node id).
        #: Occupancy-independent, so never invalidated; built lazily on
        #: first placement from each anchor.
        self._bank_order_cache: Dict[int, List[int]] = {}

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def kind(self, node: int) -> TileKind:
        return self._kind[node]

    def owner_of(self, node: int) -> Optional[str]:
        return self._owner.get(node)

    def is_free(self, node: int) -> bool:
        return node not in self._owner

    def tiles(self, kind: TileKind) -> List[int]:
        return [n for n, k in self._kind.items() if k is kind]

    def free_tiles(self, kind: TileKind) -> List[int]:
        return [n for n in self.tiles(kind) if self.is_free(n)]

    def free_count(self, kind: TileKind) -> int:
        """How many tiles of ``kind`` are free - O(1)."""
        return self._free_counts[kind]

    @property
    def bank_columns(self) -> List[int]:
        """Mesh columns made of bank tiles, ascending."""
        return [x for x in range(self.mesh.width)
                if x not in self._col_index]

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
        free = self._free_counts[TileKind.SLICE]
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
        start = self._rows[y].first_run(count)
        assert start is not None
        base = y * self.mesh.width
        cols = self._slice_cols
        return [base + cols[p] for p in range(start, start + count)]

    def _bank_order(self, anchor: int) -> List[int]:
        """Every bank, sorted by ``(manhattan distance, node id)``.

        Expanding Manhattan rings and taking node ids ascending within
        each ring emits banks in exactly this order, so walking it and
        skipping occupied tiles reproduces the ring expansion (and the
        original full-chip stable sort) bit-for-bit.  The order depends
        only on geometry, never on occupancy, so one sort per anchor is
        amortized over every placement anchored there.
        """
        order = self._bank_order_cache.get(anchor)
        if order is None:
            width = self.mesh.width
            ay, ax = divmod(anchor, width)
            order = sorted(
                self._bank_nodes,
                key=lambda n: (
                    abs(n % width - ax) + abs(n // width - ay), n
                ),
            )
            self._bank_order_cache[anchor] = order
        return order

    def find_nearest_banks(self, anchor: int, count: int) -> List[int]:
        """The ``count`` free bank tiles nearest to ``anchor``.

        Ties at equal Manhattan distance break by ascending node id
        (the stable-sort order of the original full-chip scan).
        """
        if count <= 0:
            return []
        if self._free_counts[TileKind.BANK] < count:
            raise AllocationError(
                f"need {count} banks, only "
                f"{self._free_counts[TileKind.BANK]} free"
            )
        owner = self._owner
        chosen: List[int] = []
        append = chosen.append
        for node in self._bank_order(anchor):
            if node not in owner:
                append(node)
                if len(chosen) == count:
                    return chosen
        raise AllocationError(  # pragma: no cover - guarded by the count
            f"need {count} banks, ran out of fabric"
        )

    def claim(self, nodes: Sequence[int], owner: str) -> None:
        owner_map = self._owner
        for node in nodes:
            if node in owner_map:
                raise AllocationError(f"tile {node} already owned")
        claimed = self._owner_nodes.setdefault(owner, [])
        kinds = self._kind
        counts = self._free_counts
        for node in nodes:
            owner_map[node] = owner
            claimed.append(node)
            kind = kinds[node]
            counts[kind] -= 1
            if kind is TileKind.SLICE:
                self._slice_freed(node, free=False)

    def release(self, owner: str) -> List[int]:
        """Free every tile owned by ``owner``; returns the freed nodes."""
        freed = self._owner_nodes.pop(owner, [])
        owner_map = self._owner
        kinds = self._kind
        counts = self._free_counts
        for node in freed:
            del owner_map[node]
            kind = kinds[node]
            counts[kind] += 1
            if kind is TileKind.SLICE:
                self._slice_freed(node, free=True)
        return freed

    def _slice_freed(self, node: int, free: bool) -> None:
        y, x = divmod(node, self.mesh.width)
        row = self._rows[y]
        pos = self._col_index[x]
        if free:
            row.add(pos)
        else:
            row.remove(pos)
        self._row_tree.update(y, row.max_run())

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

    def defragment_candidates(self, count: int) -> bool:
        """Would ``count`` Slices fit after rescheduling (total capacity)?

        Paper Section 3: "fixing fragmentation problems is as simple as
        rescheduling Slices to VCores" - all Slices are interchangeable,
        so capacity, not layout, is the real constraint.
        """
        return self._free_counts[TileKind.SLICE] >= count
