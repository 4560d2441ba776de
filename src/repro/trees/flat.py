"""Structure-of-arrays compilation of the binary tree (§V engine).

The object tree of :mod:`repro.trees.binarytree` is the *mutable* data
structure — lazy splits, point moves, collapses.  The DP, by contrast,
only ever reads four per-node facts: count, area, depth and the two
child links.  :class:`FlatTree` compiles those facts into contiguous
numpy arrays, **level-major** (all nodes of depth ``h`` are contiguous),
so the solver of :mod:`repro.core.flat_dp` can process a whole level
with a handful of fused numpy kernels instead of one Python call per
node.

Three use sites:

* bulk solve — compile once, solve level-synchronously;
* incremental repair — :meth:`FlatTree.refresh` re-uses the compiled
  arrays across snapshots: when :meth:`BinaryTree.apply_moves` changed
  only counts (no splits/collapses) the arrays are patched in place,
  otherwise the tree is recompiled (O(|B|), no point data touched);
* extraction — a payload compile (``with_payload=True``: geometry plus
  the leaf→point index) is all :func:`~repro.core.flat_dp.extract_cloaks`
  needs.  ``FlatTreeSolution.policy()`` compiles its own tree this way,
  and the parallel engine compiles each jurisdiction or hand-off shard
  *subtree* (``root=``, depths rebased): a small bundle of arrays that
  pickles in microseconds or publishes to shared memory, so workers
  receive the already-built spatial structure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.errors import TreeError

__all__ = ["FlatTree", "SharedFlatTree", "SharedTreeHandle"]


@dataclass
class FlatTree:
    """A binary spatial tree as parallel arrays, level-major order.

    ``ids[i]`` is the object tree's node id for flat index ``i``; nodes
    are sorted by ``(depth, node_id)`` so ``level_offsets[h] ..
    level_offsets[h+1]`` spans exactly the nodes of depth ``h`` (the
    root is always flat index 0).  ``left``/``right`` hold child flat
    indices, −1 at leaves.

    The payload block (``rects``/``leaf_ptr``/``leaf_rows``/
    ``user_ids``/``coords``) is attached only when the flat tree must
    stand alone — i.e. when it is shipped to a worker process that has
    no object tree to fall back on; ``tree_rows`` (each local row's tree
    row, kept off the wire) lets the master restrict the tree's snapshot
    by rows.  ``cloaks`` is set by a publisher that has already
    extracted the policy, so readers need no solve.
    """

    ids: np.ndarray            # (n,) int64
    left: np.ndarray           # (n,) int64, -1 for leaves
    right: np.ndarray          # (n,) int64, -1 for leaves
    count: np.ndarray          # (n,) int64 — d(m)
    area: np.ndarray           # (n,) float64 — cloak cost unit
    depth: np.ndarray          # (n,) int64 — h(m), rebased when sliced
    level_offsets: np.ndarray  # (height+2,) int64 prefix offsets
    index_of: Dict[int, int] = field(default_factory=dict)
    # -- standalone payload (worker transport) ----------------------------
    rects: Optional[np.ndarray] = None      # (n, 4) float64 x1,y1,x2,y2
    leaf_ptr: Optional[np.ndarray] = None   # (n+1,) int64 CSR offsets
    leaf_rows: Optional[np.ndarray] = None  # (#points,) int64 local rows
    user_ids: Optional[List[str]] = None    # local row -> user id
    coords: Optional[np.ndarray] = None     # (#points, 2) local row -> x, y
    cloaks: Optional[np.ndarray] = None     # (#points, 4) local row -> cloak
    tree_rows: Optional[np.ndarray] = field(  # (#points,) local -> tree row
        default=None, repr=False, compare=False
    )

    @property
    def n_nodes(self) -> int:
        return len(self.ids)

    @property
    def height(self) -> int:
        return len(self.level_offsets) - 2

    def level(self, h: int) -> Tuple[int, int]:
        """The ``[lo, hi)`` flat-index span of depth ``h``."""
        return int(self.level_offsets[h]), int(self.level_offsets[h + 1])

    def rows_of(self, idx: int) -> np.ndarray:
        """Local point rows of leaf ``idx`` (payload trees only)."""
        return self.leaf_rows[self.leaf_ptr[idx] : self.leaf_ptr[idx + 1]]

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        state.pop("tree_rows", None)  # master-side only
        return state

    # -- compilation -----------------------------------------------------------

    @classmethod
    def compile(
        cls,
        tree,
        root=None,
        with_payload: bool = False,
    ) -> "FlatTree":
        """Compile ``tree`` (or the subtree under ``root``) to arrays.

        With ``root`` given, depths are rebased so the subtree root sits
        at depth 0 — exactly what a jurisdiction server solving the
        subtree as *its* map would see (the Lemma-5 cap is relative to
        the solved root).  ``with_payload`` additionally attaches the
        geometry and the leaf→point CSR index needed for standalone
        policy extraction; point rows are renumbered to a local, sorted
        0..n−1 range whose order matches ``BinaryTree.users_of``.
        """
        start = tree.root if root is None else root
        base_depth = start.depth
        nodes = sorted(
            start.iter_subtree(), key=lambda m: (m.depth - base_depth, m.node_id)
        )
        n = len(nodes)
        index_of = {m.node_id: i for i, m in enumerate(nodes)}
        ids = np.fromiter((m.node_id for m in nodes), dtype=np.int64, count=n)
        count = np.fromiter((m.count for m in nodes), dtype=np.int64, count=n)
        area = np.fromiter((m.rect.area for m in nodes), dtype=np.float64, count=n)
        depth = np.fromiter(
            (m.depth - base_depth for m in nodes), dtype=np.int64, count=n
        )
        left = np.full(n, -1, dtype=np.int64)
        right = np.full(n, -1, dtype=np.int64)
        for i, m in enumerate(nodes):
            if m.children:
                if len(m.children) != 2:
                    raise TreeError(
                        f"flat compilation requires a binary tree; node "
                        f"{m.node_id} has {len(m.children)} children"
                    )
                left[i] = index_of[m.children[0].node_id]
                right[i] = index_of[m.children[1].node_id]
        height = int(depth[-1]) if n else 0
        level_offsets = np.searchsorted(
            depth, np.arange(height + 2), side="left"
        ).astype(np.int64)
        flat = cls(
            ids=ids,
            left=left,
            right=right,
            count=count,
            area=area,
            depth=depth,
            level_offsets=level_offsets,
            index_of=index_of,
        )
        if with_payload:
            flat.rects = np.array(
                [m.rect.as_tuple() for m in nodes], dtype=np.float64
            ).reshape(n, 4)
            ptr = np.zeros(n + 1, dtype=np.int64)
            chunks: List[np.ndarray] = []
            for i, m in enumerate(nodes):
                if m.is_leaf and m.point_index:
                    rows = np.fromiter(
                        m.point_index, dtype=np.int64, count=len(m.point_index)
                    )
                    rows.sort()
                    chunks.append(rows)
                    ptr[i + 1] = ptr[i] + len(rows)
                else:
                    ptr[i + 1] = ptr[i]
            all_rows = (
                np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
            )
            # Renumber global tree rows to a local dense range ordered by
            # global row — the same deterministic order users_of() uses.
            order = np.sort(all_rows)
            local = np.searchsorted(order, all_rows)
            flat.leaf_ptr = ptr
            flat.leaf_rows = local
            flat.tree_rows = order
            flat.user_ids = list(map(tree.user_ids.__getitem__, order.tolist()))
            flat.coords = np.ascontiguousarray(tree.coords[order], np.float64)
        return flat

    # -- incremental maintenance ----------------------------------------------

    def refresh(self, tree, dirty) -> Tuple["FlatTree", bool]:
        """Bring the arrays up to date after ``tree.apply_moves``.

        Returns ``(flat, structure_changed)``.  When the move batch
        neither split nor collapsed any node (every dirty id is a node
        we already know and the node census is unchanged) only the
        ``count`` column needs patching — done in place, O(|dirty|).
        Any structural change falls back to a full recompile, which is
        still O(|B|) and touches no point data.
        """
        same_structure = len(tree.nodes) == self.n_nodes and all(
            nid in self.index_of for nid in dirty
        )
        if same_structure:
            for nid in dirty:
                self.count[self.index_of[nid]] = tree.nodes[nid].count
            return self, False
        return FlatTree.compile(tree), True


# -- zero-copy publication over shared memory --------------------------------

#: segment offsets are rounded up to this, so every published array
#: starts cache-line aligned regardless of the previous block's length.
_SHM_ALIGN = 64

#: numeric FlatTree columns in publication order; payload columns are
#: appended only when present.
_SHM_CORE_FIELDS = (
    "ids", "left", "right", "count", "area", "depth", "level_offsets",
)
_SHM_PAYLOAD_FIELDS = ("rects", "leaf_ptr", "leaf_rows", "coords")
#: pseudo-field carrying ``user_ids`` as UTF-8 JSON bytes (uint8 block).
_SHM_USER_FIELD = "__user_ids_json__"


def _tracker_pid() -> Optional[int]:
    """Pid of this process's resource-tracker daemon (None if unknown)."""
    try:
        return resource_tracker._resource_tracker._pid
    except Exception:
        return None


@dataclass(frozen=True)
class SharedTreeHandle:
    """Picklable descriptor of a published :class:`FlatTree`.

    This is what crosses process boundaries instead of the arrays
    themselves: the segment name plus a block table of
    ``(field, dtype, shape, byte offset)``.  It pickles in a few hundred
    bytes however large the tree is — the whole point of the shared
    transport.
    """

    segment: str
    size: int
    blocks: Tuple[Tuple[str, str, Tuple[int, ...], int], ...]
    #: pid of the publisher's resource-tracker process.  Attachers in
    #: the same tracker domain (fork children, same process) must *not*
    #: unregister — they would strip the owner's entry; attachers with
    #: their own tracker (spawn) must, or their tracker unlinks the
    #: owner's live segment when they exit (the pre-3.12 share bug).
    tracker_pid: Optional[int] = None

    @property
    def n_nodes(self) -> int:
        for name, __, shape, ___ in self.blocks:
            if name == "ids":
                return int(shape[0])
        return 0


class SharedFlatTree:
    """A compiled :class:`FlatTree` published once into POSIX shared
    memory and mapped zero-copy by any number of reader processes.

    Lifecycle contract (enforced, and linted by the RS001 rule):

    * the **publisher** owns the segment — only it may :meth:`unlink`,
      and it must do so (``finally`` or ``with``) or the segment
      outlives the process in ``/dev/shm``;
    * **attachers** only :meth:`close`; attaching after the owner
      unlinked fails closed with :class:`TreeError` — a reader can never
      silently solve over a stale private copy;
    * all views are read-only, and :meth:`close` invalidates them — on
      CPython the mapping is gone immediately, so callers must drop
      every array borrowed from :attr:`tree` *before* closing (the
      worker pattern: attach, solve, extract plain tuples, close).

    The attach path also unregisters the segment from
    :mod:`multiprocessing.resource_tracker`: Python 3.9–3.11 register
    attachments exactly like creations, so without this a reader
    process's tracker would unlink the owner's live segment at reader
    exit.
    """

    def __init__(
        self,
        handle: SharedTreeHandle,
        shm: shared_memory.SharedMemory,
        owner: bool,
    ) -> None:
        self.handle = handle
        self._shm: Optional[shared_memory.SharedMemory] = shm
        self.owner = owner
        self._unlinked = False
        self._tree: Optional[FlatTree] = None

    # -- publication ---------------------------------------------------------

    @classmethod
    def publish(cls, flat: FlatTree, verify: bool = True) -> "SharedFlatTree":
        """Copy ``flat``'s arrays into one fresh segment (the only copy
        ever made) and return the owning wrapper.

        With ``verify=True`` the segment is re-attached through its own
        handle and every block compared bit-for-bit against the source —
        the buffer round-trip equality check that makes the transport
        trustworthy enough to retire pickling.
        """
        arrays: List[Tuple[str, np.ndarray]] = []
        for name in _SHM_CORE_FIELDS:
            arrays.append((name, np.ascontiguousarray(getattr(flat, name))))
        if flat.rects is not None:
            for name in _SHM_PAYLOAD_FIELDS:
                column = getattr(flat, name)
                if column is None:
                    raise TreeError(
                        f"payload FlatTree missing column {name!r}; "
                        "compile(with_payload=True) before publishing"
                    )
                arrays.append((name, np.ascontiguousarray(column)))
            if flat.cloaks is not None:
                arrays.append(("cloaks", np.ascontiguousarray(flat.cloaks)))
            encoded = json.dumps(flat.user_ids or []).encode("utf-8")
            arrays.append((_SHM_USER_FIELD, np.frombuffer(encoded, np.uint8)))
        blocks: List[Tuple[str, str, Tuple[int, ...], int]] = []
        offset = 0
        for name, arr in arrays:
            offset = -(-offset // _SHM_ALIGN) * _SHM_ALIGN
            blocks.append((name, arr.dtype.str, tuple(arr.shape), offset))
            offset += arr.nbytes
        shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
        try:
            for (name, arr), (__, ___, ____, off) in zip(arrays, blocks):
                dst = np.ndarray(
                    arr.shape, dtype=arr.dtype, buffer=shm.buf, offset=off
                )
                dst[...] = arr
            handle = SharedTreeHandle(
                segment=shm.name,
                size=shm.size,
                blocks=tuple(blocks),
                tracker_pid=_tracker_pid(),
            )
            published = cls(handle, shm, owner=True)
            if verify:
                echo = cls.attach(handle)
                try:
                    if not echo._equal_blocks(arrays):
                        raise TreeError(
                            f"shared segment {shm.name} failed the "
                            "publish round-trip equality check"
                        )
                finally:
                    echo.close()
            return published
        except BaseException:
            shm.close()
            shm.unlink()
            raise

    def _equal_blocks(self, arrays: List[Tuple[str, np.ndarray]]) -> bool:
        views = self._block_views()
        return all(
            np.array_equal(views[name], arr) for name, arr in arrays
        )

    # -- attachment ----------------------------------------------------------

    @classmethod
    def attach(cls, handle: SharedTreeHandle) -> "SharedFlatTree":
        """Map an already-published segment read-only (fails closed)."""
        try:
            shm = shared_memory.SharedMemory(name=handle.segment)
        except FileNotFoundError as exc:
            raise TreeError(
                f"shared flat tree segment {handle.segment!r} is gone "
                "(owner unlinked, or it never existed); refusing to "
                "serve without the published arrays"
            ) from exc
        if handle.tracker_pid is None or _tracker_pid() != handle.tracker_pid:
            # Pre-3.12 registers attachments like creations.  In a
            # foreign tracker domain that registration must be undone or
            # this reader's tracker unlinks the owner's segment at exit;
            # in the owner's own domain it is a harmless duplicate that
            # must be *kept* (unregistering would strip the owner's).
            try:
                resource_tracker.unregister(shm._name, "shared_memory")
            except Exception:
                pass  # best effort; worst case is a benign tracker warning
        return cls(handle, shm, owner=False)

    def _block_views(self) -> Dict[str, np.ndarray]:
        if self._shm is None:
            raise TreeError(
                f"shared flat tree segment {self.handle.segment!r} is "
                "closed; its views are invalid"
            )
        views: Dict[str, np.ndarray] = {}
        for name, dtype, shape, off in self.handle.blocks:
            view = np.ndarray(
                shape, dtype=np.dtype(dtype), buffer=self._shm.buf, offset=off
            )
            view.flags.writeable = False
            views[name] = view
        return views

    @property
    def tree(self) -> FlatTree:
        """The zero-copy :class:`FlatTree` over the mapped blocks.

        ``index_of`` is left empty (attached trees are immutable —
        :meth:`FlatTree.refresh` belongs to the mutable original), and
        every array is read-only.  Valid until :meth:`close`.
        """
        if self._tree is None:
            views = self._block_views()
            user_ids: Optional[List[str]] = None
            if _SHM_USER_FIELD in views:
                user_ids = json.loads(bytes(views[_SHM_USER_FIELD]).decode("utf-8"))
            self._tree = FlatTree(
                ids=views["ids"],
                left=views["left"],
                right=views["right"],
                count=views["count"],
                area=views["area"],
                depth=views["depth"],
                level_offsets=views["level_offsets"],
                rects=views.get("rects"),
                leaf_ptr=views.get("leaf_ptr"),
                leaf_rows=views.get("leaf_rows"),
                user_ids=user_ids,
                coords=views.get("coords"),
                cloaks=views.get("cloaks"),
            )
        return self._tree

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Drop all views and unmap the segment (idempotent).

        After this, arrays previously borrowed from :attr:`tree` are
        dangling — the caller must not touch them.
        """
        if self._shm is None:
            return
        self._tree = None
        self._shm.close()
        self._shm = None

    def unlink(self) -> None:
        """Destroy the segment (owner only, idempotent).

        Attachers calling this is a bug — they would tear the mapping
        out from under the publisher and every sibling reader.
        """
        if not self.owner:
            raise TreeError(
                f"segment {self.handle.segment!r} can only be unlinked "
                "by its publisher; attachers just close()"
            )
        if self._unlinked:
            return
        shm = self._shm
        if shm is None:
            # closed before unlinking: reopen purely to destroy the name
            # (the reopen registers with the tracker, unlink unregisters).
            try:
                shm = shared_memory.SharedMemory(name=self.handle.segment)
            except FileNotFoundError:
                self._unlinked = True
                return
            shm.unlink()
            shm.close()
            self._unlinked = True
            return
        shm.unlink()
        self._unlinked = True

    def __enter__(self) -> "SharedFlatTree":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        if self.owner:
            self.unlink()
        self.close()
        return False
