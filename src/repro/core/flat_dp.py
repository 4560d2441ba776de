"""Level-synchronous flat-array DP engine (§V, Theorem 2).

Same recurrence as :mod:`repro.core.binary_dp` — Lemma-5-capped cost
vectors, min-plus child combine, suffix-minima answer for the parent —
but evaluated over the :class:`~repro.trees.flat.FlatTree`
structure-of-arrays representation, one *level* at a time:

* all leaves of a level initialize in one broadcast expression;
* all internal nodes of a level run a single **batched min-plus**
  (children vectors padded to the level's Lemma-5 width — ``kh`` is
  small, so pad-to-max batching is cheap) and a single batched
  suffix-minima pass per ``temp`` piece.

Every floating-point candidate is produced by the *same* arithmetic
expression the object solver uses (one add for min-plus terms, one
multiply-by-area per cloak term), and minima are order-independent, so
the engine is **bit-identical** to the object solver — enforced by the
property tests and relied on by the ``engine="flat"`` default switch.

A :class:`SubtreeMemo` hash-conses solved subtrees: two subtrees with
equal ``(count, Lemma-5 cap, area, child fingerprints)`` have equal
cost vectors by configuration equivalence (Lemma 1 — the DP never looks
at *which* points are where, only how many per node of what area), so
identical subtrees — ubiquitous in uniform regions, and re-materialized
constantly by ``resolve_dirty`` — are solved once and shared.

Extraction (§IV, Lemma 1) runs over the arrays too: a payload-carrying
flat tree turns straight into policy rows (user, coordinates, cloak
group).  Every production policy comes out of :func:`_extract_rows` —
parallel workers run it on their shipped subtrees, and
:meth:`FlatTreeSolution.policy` on a payload compile of its own tree —
and is checked by :meth:`CloakingPolicy.from_rows`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..trees.flat import FlatTree
from .binary_dp import NodeSolution, TreeSolution
from .errors import NoFeasiblePolicyError, ReproError
from .policy import CloakingPolicy

__all__ = [
    "SubtreeMemo",
    "FlatTreeSolution",
    "solve_flat",
    "resolve_dirty_flat",
    "solve_arrays",
    "rehydrate_solution",
    "extract_cloaks",
    "is_binary_tree",
]

_INF = float("inf")


def is_binary_tree(tree) -> bool:
    """True when every node has 0 or 2 children (flat-engine eligible)."""
    return all(
        len(node.children) in (0, 2) for node in tree.root.iter_subtree()
    )


class SubtreeMemo:
    """Hash-consed subtree fingerprints → solved cost vectors.

    A fingerprint token is a small int; the key interning makes nested
    fingerprints O(1) to hash (child tokens instead of child tuples).
    Keys carry the **exact** float64 area — the finest quantization that
    preserves the bit-identity contract: sharing between areas that are
    merely close would smuggle one subtree's rounding into another's
    optimum.  One memo is valid for one ``(k, prune)`` pair.
    """

    def __init__(self, k: int, prune: bool):
        self.k = k
        self.prune = prune
        self._tokens: Dict[tuple, int] = {}
        self._vecs: Dict[int, np.ndarray] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._vecs)

    def token_for(self, key: tuple) -> int:
        token = self._tokens.get(key)
        if token is None:
            token = len(self._tokens)
            self._tokens[key] = token
        return token

    def lookup(self, token: int) -> Optional[np.ndarray]:
        vec = self._vecs.get(token)
        if vec is not None:
            self.hits += 1
        return vec

    def store(self, token: int, vec: np.ndarray) -> None:
        vec.setflags(write=False)  # shared across nodes/snapshots
        self.misses += 1
        self._vecs[token] = vec


def _caps_for(flat: FlatTree, k: int, prune: bool) -> np.ndarray:
    """Vectorized :func:`binary_dp._cap_for` over the whole tree."""
    caps = flat.count - k
    if prune:
        caps = np.minimum(caps, (k + 1) * flat.depth)
    return caps


def _min_plus_batch(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Row-wise min-plus convolution of INF-padded batches.

    ``C[r, j] = min_i A[r, i] + B[r, j-i]`` — the object solver's
    ``_min_plus`` with the Python loop hoisted out of the per-node path:
    one iteration per *column of the batch's shorter child* (addition
    commutes exactly, so swapping operands is bit-safe), not per
    (node, entry).  Padding is INF, and INF + x = INF never wins a min.
    """
    if A.shape[1] > B.shape[1]:
        A, B = B, A
    m, la = A.shape
    lb = B.shape[1]
    C = np.empty((m, la + lb - 1))
    C[:, :lb] = A[:, :1] + B
    C[:, lb:] = _INF
    tmp = np.empty((m, lb))
    for i in range(1, la):
        seg = C[:, i : i + lb]
        np.add(A[:, i : i + 1], B, out=tmp)
        np.minimum(seg, tmp, out=seg)
    return C


def _apply_piece(
    vec: np.ndarray,
    P: np.ndarray,
    off: Optional[np.ndarray],
    area: np.ndarray,
    us: np.ndarray,
    k: int,
) -> None:
    """Fold one batched ``temp`` piece into the parents' vectors.

    Exactly the two contributions of :func:`binary_dp._node_step`,
    batched: the equality term ``temp[u]`` and the cloak-here term
    answered from suffix minima of ``g[j] = piece[j] + (offset+j)·area``.
    Rows shorter than the batch width arrive INF-padded (and INF + x
    never wins a min), so only indices outside the array need masking.
    ``off=None`` marks the all-zero-offset (min-plus) piece, whose
    gathers degenerate to a slice and a column take.
    """
    if P.shape[1] == 0:
        return
    m, L = P.shape
    usr = us[None, :]
    areac = area[:, None]
    if off is None:
        # Equality: temp[u] is just column u.
        w = min(L, len(us))
        np.minimum(vec[:, :w], P[:, :w], out=vec[:, :w])
        # Cloak-here: one suffix-minima query column per u, same for
        # every row of the batch.
        g = P + np.arange(L)[None, :] * areac
        suffix = np.minimum.accumulate(g[:, ::-1], axis=1)[:, ::-1]
        idx2 = us + k
        inb2 = idx2 < L
        best = suffix[:, np.where(inb2, idx2, 0)]
        np.minimum(
            vec, np.where(inb2[None, :], best - usr * areac, _INF), out=vec
        )
        return
    rows = np.arange(m)[:, None]
    offc = off[:, None]
    # Equality contribution: vec[u] ≤ temp[u].
    idx = usr - offc
    inb = (idx >= 0) & (idx < L)
    gathered = P[rows, np.where(inb, idx, 0)]
    np.minimum(vec, np.where(inb, gathered, _INF), out=vec)
    # Cloak-here contribution via suffix minima of g.
    g = P + (offc + np.arange(L)[None, :]) * areac
    suffix = np.minimum.accumulate(g[:, ::-1], axis=1)[:, ::-1]
    idx2 = usr + k - offc
    inb2 = idx2 < L
    best = suffix[rows, np.where(inb2, np.maximum(idx2, 0), 0)]
    candidate = np.where(inb2, best - usr * areac, _INF)
    np.minimum(vec, candidate, out=vec)


def _pad_rows(vec_list: Sequence[np.ndarray], width: int) -> np.ndarray:
    m = len(vec_list)
    out = np.full((m, max(width, 0)), _INF)
    if m and width > 0:
        lens = np.fromiter((len(v) for v in vec_list), np.int64, m)
        mask = np.arange(width)[None, :] < lens[:, None]
        out[mask] = np.concatenate(vec_list)
    return out


def _solve_levels(
    flat: FlatTree,
    k: int,
    prune: bool,
    memo: Optional[SubtreeMemo] = None,
    vecs: Optional[List[Optional[np.ndarray]]] = None,
    tokens: Optional[List[Optional[int]]] = None,
    todo: Optional[np.ndarray] = None,
) -> Tuple[List[np.ndarray], List[int]]:
    """Run the DP bottom-up, one level per kernel batch.

    ``vecs``/``tokens``/``todo`` support incremental repair: indices
    with ``todo[i] = False`` must arrive pre-filled (clean nodes carried
    over from the previous snapshot) and are left untouched.
    """
    n = flat.n_nodes
    caps = _caps_for(flat, k, prune)
    if vecs is None:
        vecs = [None] * n
    if tokens is None:
        tokens = [None] * n
    if todo is None:
        todo = np.ones(n, dtype=bool)
    empty = np.empty(0, dtype=float)
    left_l = flat.left.tolist()
    right_l = flat.right.tolist()
    caps_l = caps.tolist()
    full = bool(todo.all())
    for h in range(flat.height, -1, -1):
        lo, hi = flat.level(h)
        if full:
            pending = range(lo, hi)
        else:
            pending = [i for i in range(lo, hi) if todo[i]]
            if not pending:
                continue
        # Fingerprint every pending node; serve memo hits immediately.
        miss_leaves: List[int] = []
        miss_internal: List[int] = []
        for i in pending:
            li = left_l[i]
            if memo is not None:
                if li < 0:
                    key = (flat.count[i], caps[i], flat.area[i])
                else:
                    key = (
                        flat.count[i],
                        caps[i],
                        flat.area[i],
                        tokens[li],
                        tokens[right_l[i]],
                    )
                token = memo.token_for(key)
                tokens[i] = token
                cached = memo.lookup(token)
                if cached is not None:
                    vecs[i] = cached
                    continue
            if caps_l[i] < 0:
                vecs[i] = empty
                if memo is not None:
                    memo.store(tokens[i], empty)
            elif li < 0:
                miss_leaves.append(i)
            else:
                miss_internal.append(i)
        if miss_leaves:
            sel = np.asarray(miss_leaves)
            width = int(caps[sel].max()) + 1
            us = np.arange(width)
            batch = (flat.count[sel, None] - us[None, :]) * flat.area[sel, None]
            for r, i in enumerate(miss_leaves):
                vecs[i] = batch[r, : caps_l[i] + 1].astype(float)
                if memo is not None:
                    memo.store(tokens[i], vecs[i])
        if miss_internal:
            # Bucket by child-width class (powers of two): pad-to-max
            # batching is only cheap among similarly sized nodes, and a
            # level mixes kh-wide near-root nodes with near-empty ones.
            buckets: Dict[Tuple[int, int], List[int]] = {}
            for i in miss_internal:
                key = (
                    len(vecs[left_l[i]]).bit_length(),
                    len(vecs[right_l[i]]).bit_length(),
                )
                buckets.setdefault(key, []).append(i)
            for bucket in buckets.values():
                _solve_internal_batch(
                    flat, bucket, caps, k, vecs, tokens, memo
                )
    return vecs, tokens


def _solve_internal_batch(
    flat: FlatTree,
    batch: List[int],
    caps: np.ndarray,
    k: int,
    vecs: List[Optional[np.ndarray]],
    tokens: List[Optional[int]],
    memo: Optional[SubtreeMemo],
) -> None:
    """Solve one batch of same-width-class internal nodes in fused kernels."""
    sel = np.asarray(batch)
    ls, rs = flat.left[sel], flat.right[sel]
    lvecs = [vecs[i] for i in ls]
    rvecs = [vecs[i] for i in rs]
    la = np.fromiter((len(v) for v in lvecs), np.int64, len(sel))
    lb = np.fromiter((len(v) for v in rvecs), np.int64, len(sel))
    da, db = flat.count[ls], flat.count[rs]
    area = flat.area[sel]
    width = int(caps[sel].max()) + 1
    us = np.arange(width)
    vec = np.full((len(sel), width), _INF)
    A = _pad_rows(lvecs, int(la.max()))
    B = _pad_rows(rvecs, int(lb.max()))
    if A.shape[1] and B.shape[1]:
        C = _min_plus_batch(A, B)
        _apply_piece(vec, C, None, area, us, k)
    _apply_piece(vec, A, db, area, us, k)
    _apply_piece(vec, B, da, area, us, k)
    _apply_piece(vec, np.zeros((len(sel), 1)), da + db, area, us, k)
    for r, i in enumerate(batch):
        vecs[i] = vec[r, : caps[i] + 1].copy()
        if memo is not None:
            memo.store(tokens[i], vecs[i])


def solve_arrays(
    flat: FlatTree, k: int, prune: bool = True, memo: Optional[SubtreeMemo] = None
) -> List[np.ndarray]:
    """Solve a compiled flat tree; returns per-node cost vectors.

    The standalone entry point used by parallel workers (and the
    orientation pool): no object tree required.
    """
    if k < 1:
        raise ReproError(f"k must be ≥ 1, got {k}")
    vecs, __ = _solve_levels(flat, k, prune, memo=memo)
    return vecs


class FlatTreeSolution(TreeSolution):
    """A :class:`TreeSolution` produced by the flat engine.

    Fully API-compatible (extraction, cost queries) — it carries the
    compiled arrays and the subtree memo so incremental repair can keep
    batching and keep sharing across snapshots.  Extraction runs
    :func:`_extract_rows` over the arrays; the object walk of
    :meth:`TreeSolution.configuration` stays the ``engine="object"``
    oracle.
    """

    def __init__(
        self,
        tree,
        k: int,
        prune: bool,
        solutions: Dict[int, NodeSolution],
        flat: FlatTree,
        memo: SubtreeMemo,
        tokens: Dict[int, int],
    ):
        super().__init__(tree, k, prune, solutions)
        self.flat = flat
        self.memo = memo
        self.tokens = tokens

    def extract(
        self, name: str = "policy-aware-optimal"
    ) -> Tuple[CloakingPolicy, FlatTree]:
        """The optimal policy, plus the payload compile of the tree it
        was extracted from, whose ``cloaks`` column holds every row's
        cloak — what an epoch publisher ships to readers.

        Each cloak is the object tree's own node rectangle, so the
        policy equals the object walk's cloak for cloak.  Masking is
        checked against the payload's coordinates, which the tree copied
        from ``tree.db``.
        """
        flat = FlatTree.compile(self.tree, with_payload=True)
        ids = flat.ids.tolist()
        vecs = [self.solutions[nid].vec for nid in ids]
        rows, group, cloaking, boxes = _extract_rows(flat, vecs, self.k)
        flat.cloaks = np.empty((len(flat.coords), 4))
        flat.cloaks[rows] = boxes[group]  # every row is cloaked
        nodes = self.tree.nodes
        policy = CloakingPolicy.from_rows(
            flat.tree_rows[rows],
            flat.coords[rows],
            group,
            [nodes[ids[i]].rect for i in cloaking.tolist()],
            self.tree.db,
            name=name,
        )
        return policy, flat

    def policy(self, name: str = "policy-aware-optimal") -> CloakingPolicy:
        return self.extract(name)[0]


def rehydrate_solution(
    tree, flat: FlatTree, vecs: Sequence[np.ndarray], k: int, prune: bool
) -> FlatTreeSolution:
    """Rebuild a full :class:`FlatTreeSolution` from cost vectors
    computed elsewhere.

    Two callers hold vectors without the subtree memo or the fingerprint
    tokens, which only ever live in the solving process: a restarted
    process reading its journalled vectors (the recovery subsystem's
    warm restart), and the orientation pool getting ``solve_arrays``
    output back from its workers.  This recomputes every node's
    fingerprint bottom-up exactly as ``_solve_levels`` would and seeds
    the memo with the given vectors — so a subsequent
    :func:`resolve_dirty_flat` batches and shares exactly as if the
    vectors had been solved here.
    """
    memo = SubtreeMemo(k, prune)
    caps = _caps_for(flat, k, prune)
    n = flat.n_nodes
    tokens: List[Optional[int]] = [None] * n
    left_l = flat.left.tolist()
    right_l = flat.right.tolist()
    for h in range(flat.height, -1, -1):
        lo, hi = flat.level(h)
        for i in range(lo, hi):
            li = left_l[i]
            if li < 0:
                key = (flat.count[i], caps[i], flat.area[i])
            else:
                key = (
                    flat.count[i],
                    caps[i],
                    flat.area[i],
                    tokens[li],
                    tokens[right_l[i]],
                )
            token = memo.token_for(key)
            tokens[i] = token
            if memo._vecs.get(token) is None:
                memo.store(token, np.asarray(vecs[i], dtype=float))
    solutions = {
        int(flat.ids[i]): NodeSolution(
            int(flat.ids[i]),
            int(flat.count[i]),
            np.asarray(vecs[i], dtype=float),
        )
        for i in range(n)
    }
    token_map = {int(flat.ids[i]): tokens[i] for i in range(n)}
    return FlatTreeSolution(tree, k, prune, solutions, flat, memo, token_map)


def solve_flat(
    tree, k: int, prune: bool = True, memo: Optional[SubtreeMemo] = None
) -> FlatTreeSolution:
    """Compile ``tree`` and run the level-batched DP over it."""
    if k < 1:
        raise ReproError(f"k must be ≥ 1, got {k}")
    flat = FlatTree.compile(tree)
    memo = memo or SubtreeMemo(k, prune)
    vecs, tokens = _solve_levels(flat, k, prune, memo=memo)
    solutions = {
        int(flat.ids[i]): NodeSolution(int(flat.ids[i]), int(flat.count[i]), vecs[i])
        for i in range(flat.n_nodes)
    }
    token_map = {int(flat.ids[i]): tokens[i] for i in range(flat.n_nodes)}
    return FlatTreeSolution(tree, k, prune, solutions, flat, memo, token_map)


def resolve_dirty_flat(
    solution: FlatTreeSolution, dirty: Set[int]
) -> Tuple[FlatTreeSolution, int]:
    """Incremental repair on the flat engine (§IV over arrays).

    Recomputes exactly the nodes the object path would — dirty ids plus
    newly materialized ones — but level-batched, and with every
    recomputation first probing the subtree memo: a node whose subtree
    fingerprint was ever solved before (same counts/areas/shape) reuses
    the stored vector outright.
    """
    tree, k, prune = solution.tree, solution.k, solution.prune
    memo = solution.memo
    flat, __ = solution.flat.refresh(tree, dirty)
    n = flat.n_nodes
    vecs: List[Optional[np.ndarray]] = [None] * n
    tokens: List[Optional[int]] = [None] * n
    todo = np.ones(n, dtype=bool)
    for i in range(n):
        nid = int(flat.ids[i])
        if nid in dirty:
            continue
        prev = solution.solutions.get(nid)
        if prev is None:
            continue
        vecs[i] = prev.vec
        tokens[i] = solution.tokens.get(nid)
        todo[i] = False
    recomputed = int(todo.sum())
    _solve_levels(flat, k, prune, memo=memo, vecs=vecs, tokens=tokens, todo=todo)
    solutions: Dict[int, NodeSolution] = {}
    token_map: Dict[int, int] = {}
    for i in range(n):
        nid = int(flat.ids[i])
        if todo[i]:
            solutions[nid] = NodeSolution(nid, int(flat.count[i]), vecs[i])
        else:
            solutions[nid] = solution.solutions[nid]
        token_map[nid] = tokens[i]
    return (
        FlatTreeSolution(tree, k, prune, solutions, flat, memo, token_map),
        recomputed,
    )


# -- extraction over arrays -----------------------------------------------------


def _pad_domains(
    vec_list: Sequence[np.ndarray], ds: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batch the extraction domains of many nodes: INF-padded cost rows
    (dense vector entries followed by the 0-cost sentinel) plus the
    matching ``j`` values (column index, except the sentinel slot which
    holds ``d``).  Returns ``(costs, js, domain_lengths)``."""
    m = len(vec_list)
    lens = np.fromiter((len(v) for v in vec_list), np.int64, m)
    na = lens + 1
    width = int(na.max())
    cols = np.arange(width)[None, :]
    costs = np.full((m, width), _INF)
    costs[cols < lens[:, None]] = np.concatenate(vec_list)
    costs[np.arange(m), lens] = 0.0
    js = np.where(cols == lens[:, None], ds[:, None], cols)
    return costs, js, na


def _batch_split_scan(
    us: np.ndarray,
    ca: np.ndarray,
    ja: np.ndarray,
    cb: np.ndarray,
    jb: np.ndarray,
    nb: np.ndarray,
    db: np.ndarray,
    areas: np.ndarray,
    k: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`binary_dp._split_scan` batched over one level of nodes.

    ``ca``/``ja`` (and ``cb``/``jb``) are the padded domain batches from
    :func:`_pad_domains`; a row's padding carries INF costs, so padded
    slots never win a minimum.  The domain ``j`` values are structured
    (``j = column`` for dense slots, the sentinel ``d`` last), so the
    partner search ``first j_b ≥ u + k − j_a`` is pure arithmetic — no
    per-row ``searchsorted``.  Returns per-row ``(best, u_a, u_b)``.
    """
    m, NB = cb.shape
    rows = np.arange(m)[:, None]
    cols_b = np.arange(NB)[None, :]
    areac = areas[:, None]
    usc = us[:, None]
    nbc = nb[:, None]
    dbc = db[:, None]
    # Suffix minima of h_b = c_b + j_b·area with leftmost achiever.
    hb = cb + jb * areac
    suffix = np.minimum.accumulate(hb[:, ::-1], axis=1)[:, ::-1]
    achiever = np.where(hb == suffix, cols_b, NB)
    suffix_arg = np.minimum.accumulate(achiever[:, ::-1], axis=1)[:, ::-1]
    # Cloak-at-parent partner: first j_b ≥ t.  Dense slots self-index
    # (j = column), anything past the dense range lands on the sentinel,
    # and t beyond d_b has no partner.
    t = usc + k - ja
    ib0 = np.where(t > dbc, nbc, np.minimum(np.maximum(t, 0), nbc - 1))
    has_partner = ib0 < nbc
    ib0c = np.minimum(ib0, NB - 1)
    sval = suffix[rows, ib0c]
    sarg = suffix_arg[rows, ib0c]
    cand = np.where(
        has_partner, ca + (ja - usc) * areac + sval, _INF
    )
    # Equality partner: j_b = u − j_a exactly.
    target = usc - ja
    eq_dense = (target >= 0) & (target < nbc - 1)
    eq_ib = np.where(
        eq_dense,
        np.minimum(np.maximum(target, 0), NB - 1),
        np.where(target == dbc, nbc - 1, -1),
    )
    eq_val = np.where(
        eq_ib >= 0,
        ca + cb[rows, np.maximum(eq_ib, 0)],
        _INF,
    )
    use_eq = eq_val < cand
    best = np.where(use_eq, eq_val, cand)
    best_ib = np.where(use_eq, eq_ib, sarg)
    ia = np.argmin(best, axis=1)
    r1 = np.arange(m)
    best_val = best[r1, ia]
    ua = ja[r1, ia]
    ib = np.minimum(np.maximum(best_ib[r1, ia], 0), NB - 1)
    ub = jb[r1, ib]
    return best_val, ua, ub


def _extract_rows(
    flat: FlatTree, vecs: Sequence[np.ndarray], k: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One optimal policy over flat state, as rows.

    The §IV extraction over arrays: re-derive each node's pass-up count
    top-down (``TreeSolution.configuration()``), then materialize it by
    Lemma 1, cloaking the lowest rows first.  Returns ``(rows, group,
    nodes, boxes)``: local point rows in the object walk's insertion
    order, each row's cloak as an index into ``nodes``, the cloaking
    flat nodes in walk order and their rects.  Requires a
    payload-carrying flat tree (rects + leaf rows).
    """
    if flat.rects is None or flat.leaf_ptr is None:
        raise ReproError("extract_cloaks needs a payload-carrying FlatTree")
    n = flat.n_nodes
    if n == 0 or flat.count[0] == 0:
        none = np.empty(0, dtype=np.int64)
        return none, none, none, np.empty((0, 4), dtype=np.float64)
    root_vec = vecs[0]
    if len(root_vec) == 0 or not np.isfinite(root_vec[0]):
        raise NoFeasiblePolicyError(
            f"no policy-aware {k}-anonymous policy exists "
            f"(|D| = {int(flat.count[0])})"
        )
    # Top-down assignment, one level at a time: nodes whose u hit the
    # sentinel forward everything; all remaining splits of the level are
    # re-derived in one batched suffix-minima scan.
    values = np.zeros(n, dtype=np.int64)
    for h in range(flat.height + 1):
        lo, hi = flat.level(h)
        internal = lo + np.nonzero(flat.left[lo:hi] >= 0)[0]
        if internal.size == 0:
            continue
        # Sentinel nodes (u = d) forward everything to both children —
        # level order is irrelevant, parents and children never share a
        # level, so the whole level resolves in two fancy assignments.
        sentinel = values[internal] == flat.count[internal]
        for side in (flat.left, flat.right):
            kids = side[internal[sentinel]]
            values[kids] = flat.count[kids]
        split = internal[~sentinel]
        if split.size == 0:
            continue
        sel = split
        ls, rs = flat.left[sel], flat.right[sel]
        ca, ja, __ = _pad_domains([vecs[i] for i in ls], flat.count[ls])
        cb, jb, nb = _pad_domains([vecs[i] for i in rs], flat.count[rs])
        best, ua, ub = _batch_split_scan(
            values[sel], ca, ja, cb, jb, nb, flat.count[rs], flat.area[sel], k
        )
        bad = ~(best < _INF)
        if bad.any():
            i = sel[int(np.argmax(bad))]
            raise ReproError(
                f"extraction failed at node {int(flat.ids[i])} "
                f"(u = {int(values[i])})"
            )
        values[ls] = ua
        values[rs] = ub
    # Materialize: bottom-up pools, cloak the lowest rows at each node.
    # Nodes go in the object walk's post-order (left subtree, right
    # subtree, node), so users are inserted in its order too.  Rows
    # record which node cloaks them; the user dict is built once at the
    # end (a per-row Python loop over 10^5 users is the extraction
    # bottleneck otherwise).
    left_l = flat.left.tolist()
    right_l = flat.right.tolist()
    walk: List[int] = []
    stack = [0]
    while stack:  # node, right, left pre-order: post-order reversed
        i = stack.pop()
        walk.append(i)
        if left_l[i] >= 0:
            stack += (left_l[i], right_l[i])
    cloaked: Dict[int, np.ndarray] = {}
    leftovers: Dict[int, np.ndarray] = {}
    values_l = values.tolist()
    for i in reversed(walk):
        li = left_l[i]
        if li < 0:
            pool = flat.rows_of(i)
        else:
            pool = np.concatenate(
                [leftovers.pop(li), leftovers.pop(right_l[i])]
            )
        n_cloak = len(pool) - values_l[i]
        if n_cloak < 0:
            raise ReproError(
                f"flat extraction asked node {int(flat.ids[i])} to pass up "
                f"{values_l[i]} of only {len(pool)} locations"
            )
        if n_cloak:
            cloaked[i] = pool[:n_cloak]
        leftovers[i] = pool[n_cloak:]
    if len(leftovers.get(0, ())) != 0:
        raise ReproError("flat extraction left users uncloaked")
    # Every row is assigned (the root-leftover check above); a node's
    # rows are contiguous in walk order, so its group is its position.
    pools = list(cloaked.values())
    group = np.repeat(
        np.arange(len(pools)), np.fromiter(map(len, pools), np.int64, len(pools))
    )
    nodes = np.fromiter(cloaked, np.int64, len(pools))
    return np.concatenate(pools), group, nodes, flat.rects[nodes]


def extract_cloaks(
    flat: FlatTree, vecs: Sequence[np.ndarray], k: int
) -> Dict[str, Tuple[float, float, float, float]]:
    """Extract one optimal ``{user: cloak box}`` policy from flat state.

    The mapping equals the object walk's cloak for cloak and in
    insertion order; a node's whole group shares one box tuple.  The
    production paths take the same extraction as rows
    (:func:`_extract_rows`) and check it with
    :meth:`CloakingPolicy.from_rows`.
    """
    rows, group, __, boxes = _extract_rows(flat, vecs, k)
    cloaks = list(map(tuple, boxes.tolist()))
    users = map(flat.user_ids.__getitem__, rows.tolist())
    return dict(zip(users, map(cloaks.__getitem__, group.tolist())))
