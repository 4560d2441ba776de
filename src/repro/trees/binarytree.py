"""The binary tree of quadrants and semi-quadrants (paper §V).

Casper [23] improved cloak utility by allowing *semi-quadrants* —
half-quadrants obtained by splitting a quadrant in two — as cloaks.  The
paper turns the same idea into a runtime optimization: the quad tree is
re-expressed as a **binary** tree in which each square quadrant is the
parent of its two vertical semi-quadrants, and each semi-quadrant is the
parent of the two square quadrants it contains.  The DP over this tree
combines only *two* children per node instead of four, dropping the
per-node cost from O(|D|^4) to O(|D|^2) before the Lemma-5 pruning.

The tree is **lazily materialized**: a node is split only while it holds
at least ``split_threshold`` (= k) locations — a node with fewer can
never cloak anything, so its subtree is irrelevant to the optimum — and
its depth is below ``max_depth`` (the minimum-cloak-granularity knob).

The tree also supports **in-place point movement** between location
snapshots (:meth:`apply_moves`), maintaining the lazy-materialization
invariant by re-splitting and collapsing nodes, and reporting the set of
*dirty* nodes whose DP entries must be recomputed — the substrate of the
incremental-maintenance experiment (Figure 5(b)).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Set, Tuple

import numpy as np

from ..core.errors import TreeError
from ..core.geometry import Point, Rect
from ..core.locationdb import LocationDatabase
from .node import SpatialNode, SpatialTree

__all__ = ["BinaryTree"]


def _classify_root(region: Rect) -> bool:
    """Decide whether a root rectangle is a quadrant or a semi-quadrant.

    Jurisdictions handed out by the greedy partitioner may be
    semi-quadrants (1:2 rectangles, tall or wide depending on the tree
    orientation); a per-jurisdiction tree must resume the split
    alternation from the right phase.  Square → quadrant; 1:2 aspect in
    either direction → semi-quadrant.
    """
    long_side = max(region.width, region.height)
    short_side = min(region.width, region.height)
    if abs(region.width - region.height) <= 1e-9 * max(long_side, 1.0):
        return False
    if abs(long_side - 2.0 * short_side) <= 1e-9 * max(long_side, 1.0):
        return True
    raise TreeError(
        f"binary tree root must be square or a 1:2 semi-quadrant, got {region}"
    )


class BinaryTree(SpatialTree):
    """Lazy binary tree of quadrants / semi-quadrants.

    With the default ``orientation='vertical'`` (the paper's static
    choice), square nodes split vertically into West/East semi-quadrants
    and the tall semi-quadrants split horizontally into two squares;
    ``orientation='horizontal'`` mirrors this (North/South wide semis).
    The paper notes its implementation "can choose dynamically between
    binary trees with vertical and horizontal semi-quadrants at
    run-time" — :func:`repro.core.binary_dp.solve_best_orientation`
    provides that choice by solving both static trees.

    ``depth`` counts binary levels (two binary levels = one quad level),
    matching the ``h(m)`` of Lemma 5.
    """

    def __init__(
        self,
        region: Rect,
        db: LocationDatabase,
        split_threshold: int,
        max_depth: int = 40,
        orientation: str = "vertical",
    ):
        root_is_semi = _classify_root(region)
        if split_threshold < 1:
            raise TreeError("split_threshold must be ≥ 1")
        if orientation not in ("vertical", "horizontal"):
            raise TreeError(
                f"orientation must be 'vertical' or 'horizontal', "
                f"got {orientation!r}"
            )
        self.region = region
        self.db = db
        self.split_threshold = split_threshold
        self.max_depth = max_depth
        self.orientation = orientation
        # Rows are the snapshot's own: the id table is shared with it
        # (and with every snapshot apply_moves derives from it), the
        # coordinates are copied because apply_moves mutates them.
        self.user_ids = db.id_column()
        self.coords = db.coords_array()
        self._next_id = 0
        self.nodes: Dict[int, SpatialNode] = {}
        self.root = self._new_node(region, depth=0, parent=None, is_semi=root_is_semi)
        self.root.count = len(self.user_ids)
        self.root.point_index = set(range(len(self.user_ids)))
        #: row index → leaf node currently holding that point.
        self._leaf_of: List[SpatialNode] = [self.root] * len(self.user_ids)
        self._materialize(self.root)

    @property
    def user_row(self) -> Dict[str, int]:
        """User id → row: the id table's map, built on first use (a
        bulk solve never looks a user up)."""
        return self.db.index()[1]

    # -- construction ----------------------------------------------------------

    @classmethod
    def build(
        cls,
        region: Rect,
        db: LocationDatabase,
        k: int,
        max_depth: int = 40,
        orientation: str = "vertical",
    ) -> "BinaryTree":
        """Build the tree for anonymity degree ``k`` (threshold = k)."""
        return cls(
            region,
            db,
            split_threshold=k,
            max_depth=max_depth,
            orientation=orientation,
        )

    def _new_node(
        self,
        rect: Rect,
        depth: int,
        parent: Optional[SpatialNode],
        is_semi: bool,
    ) -> SpatialNode:
        node = SpatialNode(self._next_id, rect, depth, parent, is_semi=is_semi)
        self._next_id += 1
        self.nodes[node.node_id] = node
        return node

    def _should_split(self, node: SpatialNode) -> bool:
        return (
            node.count >= self.split_threshold and node.depth < self.max_depth
        )

    def _child_rects(self, node: SpatialNode) -> Tuple[Rect, Rect]:
        """Squares split per the tree's orientation; semi-quadrants are
        always split across their long axis (yielding two squares)."""
        if node.is_semi:
            if node.rect.height > node.rect.width:
                return node.rect.halves_horizontal()
            return node.rect.halves_vertical()
        if self.orientation == "vertical":
            return node.rect.halves_vertical()
        return node.rect.halves_horizontal()

    def _split(
        self, node: SpatialNode, rows: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Turn leaf ``node`` into an internal node with two children.

        Children receive counts only; their ``point_index`` sets and the
        ``_leaf_of`` entries are finalized by :meth:`_materialize` once a
        leaf *settles* — a split cascade then costs one vectorized mask
        per node instead of per-row Python set/dict churn.  Returns the
        two child row arrays.
        """
        if not node.is_leaf:
            raise TreeError(f"node {node.node_id} is already split")
        rect_a, rect_b = self._child_rects(node)
        child_semi = not node.is_semi
        child_a = self._new_node(rect_a, node.depth + 1, node, child_semi)
        child_b = self._new_node(rect_b, node.depth + 1, node, child_semi)
        if rows is None:
            rows = np.fromiter(
                node.point_index, dtype=np.int64, count=len(node.point_index)
            )
        node.point_index = None
        # Points exactly on the split line go to the first child (West /
        # South), matching SpatialNode.child_for's first-match descent.
        # The cut axis is read off the child rectangles themselves, so
        # both tree orientations share this code.
        if rect_a.x2 < node.rect.x2:  # vertical cut: West | East
            mask = self.coords[rows, 0] <= rect_a.x2
        else:  # horizontal cut: South | North
            mask = self.coords[rows, 1] <= rect_a.y2
        rows_a, rows_b = rows[mask], rows[~mask]
        child_a.count = len(rows_a)
        child_b.count = len(rows_b)
        node.children = [child_a, child_b]
        return rows_a, rows_b

    def _materialize(self, start: SpatialNode) -> List[SpatialNode]:
        """Split ``start`` and descendants while the lazy rule demands it.

        Returns every node created (used for dirty tracking).  Row
        bookkeeping is deferred: rows travel down the cascade as numpy
        arrays and each settled leaf converts to its point set (and
        claims its ``_leaf_of`` entries) exactly once.
        """
        created: List[SpatialNode] = []
        if not start.is_leaf or not self._should_split(start):
            return created
        frontier: List[Tuple[SpatialNode, Optional[np.ndarray]]] = [(start, None)]
        while frontier:
            node, rows = frontier.pop()
            if not self._should_split(node):
                node.point_index = set(rows.tolist())
                for row in node.point_index:
                    self._leaf_of[row] = node
                continue
            rows_a, rows_b = self._split(node, rows)
            created.extend(node.children)
            frontier.append((node.children[0], rows_a))
            frontier.append((node.children[1], rows_b))
        return created

    def _collapse(self, node: SpatialNode) -> List[int]:
        """Make ``node`` a leaf again, absorbing its subtree's points.

        Returns the ids of the removed descendant nodes.
        """
        if node.is_leaf:
            return []
        removed: List[int] = []
        rows: Set[int] = set()
        for desc in node.iter_subtree():
            if desc is node:
                continue
            removed.append(desc.node_id)
            if desc.is_leaf:
                rows.update(desc.point_index)
            del self.nodes[desc.node_id]
        node.children = []
        node.point_index = rows
        for row in rows:
            self._leaf_of[row] = node
        return removed

    # -- queries ---------------------------------------------------------------

    def leaves(self) -> List[SpatialNode]:
        return [node for node in self.nodes.values() if node.is_leaf]

    def leaf_of_user(self, user_id: str) -> SpatialNode:
        """The leaf currently holding ``user_id``'s location."""
        row = self.user_row.get(user_id)
        if row is None:
            raise TreeError(f"unknown user {user_id!r}")
        return self._leaf_of[row]

    def rows_of(self, node: SpatialNode) -> List[int]:
        """Sorted point rows inside ``node`` (deterministic order)."""
        if node.is_leaf:
            return sorted(node.point_index)
        rows: List[int] = []
        for leaf in node.iter_subtree():
            if leaf.is_leaf:
                rows.extend(leaf.point_index)
        return sorted(rows)

    def users_of(self, node: SpatialNode) -> List[str]:
        """User ids inside ``node``, in row order."""
        return [self.user_ids[row] for row in self.rows_of(node)]

    def depth_histogram(self) -> Dict[int, int]:
        """Leaf count per depth — the grey-scale data of Figure 3(a)."""
        hist: Dict[int, int] = {}
        for leaf in self.leaves():
            hist[leaf.depth] = hist.get(leaf.depth, 0) + 1
        return dict(sorted(hist.items()))

    # -- snapshot evolution ------------------------------------------------------

    def apply_moves(self, moves: Mapping[str, Point]) -> Set[int]:
        """Relocate users in place, preserving the lazy invariant.

        Returns the ids of *dirty* nodes: every surviving node whose
        count or structure changed (ancestors of any change included),
        i.e. exactly the nodes whose DP entries must be recomputed.
        Removed nodes are not reported — they no longer exist.

        The batch is atomic: a move of an unknown or off-map user raises
        :class:`TreeError` before any user has moved.
        """
        rows = []
        user_row = self.user_row
        for user_id, new_point in moves.items():
            row = user_row.get(str(user_id))
            if row is None:
                raise TreeError(f"cannot move unknown user {user_id!r}")
            if not self.region.contains(new_point):
                raise TreeError(
                    f"user {user_id!r} moved outside the map: {new_point}"
                )
            rows.append((row, new_point))
        dirty: Set[int] = set()
        for row, new_point in rows:
            old_leaf = self._leaf_of[row]
            old_leaf.point_index.discard(row)
            for node in old_leaf.path_to_root():
                node.count -= 1
                dirty.add(node.node_id)
            self.coords[row] = (new_point.x, new_point.y)
            new_leaf = self.root.leaf_for(new_point)
            new_leaf.point_index.add(row)
            self._leaf_of[row] = new_leaf
            for node in new_leaf.path_to_root():
                node.count += 1
                dirty.add(node.node_id)
        # Keep the snapshot view consistent with the moved coordinates,
        # so policies extracted after the move validate as masking.
        self.db = self.db.with_moves(
            {str(uid): p for uid, p in moves.items()}
        )
        self._restructure(dirty)
        return {node_id for node_id in dirty if node_id in self.nodes}

    def _restructure(self, dirty: Set[int]) -> None:
        """Re-establish: leaf ⟺ (count < threshold or depth = max)."""
        # Collapse first (an underfull internal node may contain leaves
        # that would otherwise be considered for splitting).
        for node_id in sorted(dirty):
            node = self.nodes.get(node_id)
            if node is None or node.is_leaf:
                continue
            if node.count < self.split_threshold:
                removed = self._collapse(node)
                dirty.difference_update(removed)
        for node_id in sorted(dirty):
            node = self.nodes.get(node_id)
            if node is None or not node.is_leaf:
                continue
            created = self._materialize(node)
            dirty.update(child.node_id for child in created)

    def check_invariants(self) -> None:
        """Validate structural invariants (test hook).

        Raises :class:`TreeError` on the first violation found.
        """
        total = 0
        for node in self.root.iter_subtree():
            if self.nodes.get(node.node_id) is not node:
                raise TreeError(f"node registry out of sync at {node.node_id}")
            if node.is_leaf:
                total += len(node.point_index)
                if node.count != len(node.point_index):
                    raise TreeError(f"count mismatch at leaf {node.node_id}")
                if self._should_split(node):
                    raise TreeError(
                        f"leaf {node.node_id} violates lazy split invariant"
                    )
                for row in node.point_index:
                    if self._leaf_of[row] is not node:
                        raise TreeError(f"leaf assignment stale for row {row}")
                    x, y = self.coords[row]
                    if not node.rect.contains(Point(x, y)):
                        raise TreeError(
                            f"row {row} outside its leaf {node.node_id}"
                        )
            else:
                if node.count != sum(c.count for c in node.children):
                    raise TreeError(f"count mismatch at node {node.node_id}")
                if node.count < self.split_threshold:
                    raise TreeError(
                        f"internal node {node.node_id} should have collapsed"
                    )
        if total != len(self.user_ids):
            raise TreeError(f"point leakage: {total} != {len(self.user_ids)}")
