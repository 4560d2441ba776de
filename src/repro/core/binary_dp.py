"""The optimized bottom-up dynamic program of §V.

This is the production solver: ``Bulk_dp`` (Algorithm 1) restated over
the binary tree of quadrants/semi-quadrants, with the paper's three
optimizations applied:

1. **Binary tree** — each combine step involves two children, not four
   (§V "From Quad to Binary Trees").  The solver is nevertheless written
   generically over n-ary trees so the same code runs on quad trees for
   cross-validation and ablation.
2. **Lemma 5 pruning** — a node at depth ``h`` never passes up more than
   ``(k+1)·h`` locations (except "everything"), so per-node cost vectors
   have length O(kh) instead of O(|D|).
3. **Two-stage combine** (§V "From O(|B|(kh)^3) to O(|B|(kh)^2)") — the
   children's vectors are merged with a min-plus convolution into a
   ``temp`` structure once, and every parent entry is then answered from
   ``temp``'s suffix minima in O(1).

Per-node state is a :class:`NodeSolution`: ``vec[u]`` is the minimum
subtree cost over all k-summation configurations that pass ``u``
locations up to the ancestors, and the sentinel ``u = d(m)`` ("cloak
nothing anywhere below") always costs 0.  The optimum for the snapshot
is ``vec[0]`` at the root — the cheapest *complete* configuration.

Extraction re-derives, top-down, the child split that achieved each
chosen entry (recomputing the argmin is cheaper than storing
backpointers for every ``(m, u)`` pair) and produces a
:class:`~repro.core.configuration.Configuration`, from which a concrete
:class:`~repro.core.policy.CloakingPolicy` is materialized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .configuration import Configuration, policy_from_configuration
from .errors import NoFeasiblePolicyError, ReproError
from .policy import CloakingPolicy

__all__ = ["NodeSolution", "TreeSolution", "solve", "resolve_dirty"]

_INF = float("inf")


@dataclass
class NodeSolution:
    """DP state for one tree node.

    ``vec[u]`` = minimum cost of cloaking, within this subtree and in
    k-summation discipline, all but ``u`` of the subtree's locations
    (those ``u`` are passed up).  ``u = d`` is represented implicitly:
    passing everything up cloaks nothing below and costs exactly 0.
    """

    node_id: int
    d: int
    vec: np.ndarray  # shape (cap+1,); empty when d < k
    _domain: Optional[Tuple[np.ndarray, np.ndarray]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def cap(self) -> int:
        return len(self.vec) - 1

    def cost_at(self, u: int) -> float:
        """Cost for passing up exactly ``u`` locations (inf if impossible)."""
        if u == self.d:
            return 0.0
        if 0 <= u < len(self.vec):
            return float(self.vec[u])
        return _INF

    def domain(self) -> Tuple[np.ndarray, np.ndarray]:
        """All candidate ``u`` values with their costs (extraction helper).

        Cached: extraction calls this once per ``_choose_split`` along
        the descent, and a node can be consulted by every ancestor split.
        """
        if self._domain is None:
            js = np.concatenate([np.arange(len(self.vec)), [self.d]])
            costs = np.concatenate([self.vec, [0.0]])
            self._domain = (js.astype(np.int64), costs)
        return self._domain


def _cap_for(node, k: int, prune: bool) -> int:
    """Largest explicit ``u`` worth tracking for ``node``.

    ``u`` beyond ``d - k`` (other than the sentinel ``d``) is ruled out
    by k-summation; Lemma 5 additionally rules out ``u > (k+1)·h(m)``.
    Returns -1 when no explicit value is possible (then only the
    sentinel ``u = d`` exists).
    """
    cap = node.count - k
    if prune:
        cap = min(cap, (k + 1) * node.depth)
    return cap


def _min_plus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Min-plus (tropical) convolution: out[j] = min_i a[i] + b[j-i]."""
    if len(a) == 0 or len(b) == 0:
        return np.empty(0, dtype=float)
    if len(a) > len(b):
        a, b = b, a
    out = np.full(len(a) + len(b) - 1, _INF)
    for i, ai in enumerate(a):
        if ai == _INF:
            continue
        seg = out[i : i + len(b)]
        np.minimum(seg, ai + b, out=seg)
    return out


def _aggregate_children(
    solutions: Sequence[NodeSolution],
) -> List[Tuple[int, np.ndarray]]:
    """Fold children solutions into ``temp`` *pieces*.

    The conceptual ``temp[j]`` of the paper — minimum total children
    cost when ``j`` locations are passed up to the parent — is kept as a
    union of *(offset, array)* pieces: ``temp[offset+i] ≤ array[i]``.
    Each child contributes its dense vector (convolved in) and its
    sentinel (a pure offset shift of ``d``), so folding ``n`` children
    yields at most ``2^n`` pieces — 4 for the binary tree.
    """
    pieces: List[Tuple[int, np.ndarray]] = [(0, np.zeros(1))]
    for sol in solutions:
        folded: List[Tuple[int, np.ndarray]] = []
        for offset, arr in pieces:
            if len(sol.vec):
                folded.append((offset, _min_plus(arr, sol.vec)))
            folded.append((offset + sol.d, arr))
        pieces = folded
    return pieces


def _node_step(
    node, pieces: Sequence[Tuple[int, np.ndarray]], k: int, cap: int
) -> np.ndarray:
    """Compute ``vec[u]`` for ``u = 0..cap`` from the children ``temp``.

    ``vec[u] = min( temp[u],  min_{j ≥ u+k} temp[j] + (j-u)·area )`` —
    either the node cloaks nothing (u = j) or it cloaks ``j-u ≥ k``
    locations at its own area.  The second term is answered via suffix
    minima of ``g[j] = temp[j] + j·area``, the two-stage trick of §V.
    """
    if cap < 0:
        return np.empty(0, dtype=float)
    area = node.rect.area
    us = np.arange(cap + 1)
    vec = np.full(cap + 1, _INF)
    thresholds = us + k
    for offset, arr in pieces:
        if len(arr) == 0:
            continue
        # Equality contribution: temp[u] for u inside this piece.
        lo = max(offset, 0)
        hi = min(offset + len(arr), cap + 1)
        if lo < hi:
            np.minimum(
                vec[lo:hi], arr[lo - offset : hi - offset], out=vec[lo:hi]
            )
        # Cloak-here contribution via suffix minima of g.
        g = arr + (offset + np.arange(len(arr))) * area
        suffix = np.minimum.accumulate(g[::-1])[::-1]
        idx = thresholds - offset
        valid = idx < len(arr)
        if not valid.any():
            continue
        clipped = np.clip(idx, 0, len(arr) - 1)
        candidate = np.where(valid, suffix[clipped] - us * area, _INF)
        np.minimum(vec, candidate, out=vec)
    return vec


def _split_scan(
    u: int,
    ja: np.ndarray,
    ca: np.ndarray,
    jb: np.ndarray,
    cb: np.ndarray,
    area: float,
    k: int,
    node_id: Optional[int] = None,
) -> Tuple[int, int]:
    """Re-derive the ``(j_a, j_b)`` split behind a parent's ``vec[u]``.

    The admissible pairs satisfy ``j_a + j_b = u`` (nothing cloaked at
    the parent) or ``j_a + j_b ≥ u + k`` (``k``-summation cloak at the
    parent), minimizing ``c_a + c_b + (j_a + j_b − u)·area``.  Instead
    of the |dom_a|×|dom_b| outer product this scans dom_a once,
    answering each row's best partner from suffix minima of
    ``h_b = c_b + j_b·area`` — O(|dom_a| + |dom_b|) time *and* memory,
    which matters with ``prune=False`` where domains are O(|D|).
    """
    nb = len(jb)
    hb = cb + jb * area
    # Suffix minima of h_b, with the *leftmost* achieving index: a
    # position is an achiever when it equals its own suffix minimum, and
    # the first achiever ≥ i realizes min(h_b[i:]).
    suffix_val = np.minimum.accumulate(hb[::-1])[::-1]
    achiever = np.where(hb == suffix_val, np.arange(nb), nb)
    suffix_arg = np.minimum.accumulate(achiever[::-1])[::-1]
    suffix_val = np.append(suffix_val, _INF)
    suffix_arg = np.append(suffix_arg, nb)
    # Cloak-at-parent candidate per row: the first j_b ≥ u + k − j_a.
    ib0 = np.searchsorted(jb, u + k - ja, side="left")
    cand = ca + (ja - u) * area + suffix_val[ib0]
    cand_ib = suffix_arg[ib0]
    # Equality candidate per row: j_b = u − j_a exactly (dense entries
    # index themselves; the sentinel sits at the last domain slot).
    target = u - ja
    n_dense = nb - 1
    eq_ib = np.where(
        (target >= 0) & (target < n_dense),
        np.clip(target, 0, nb - 1),
        np.where(target == jb[-1], nb - 1, -1),
    )
    eq_val = np.where(eq_ib >= 0, ca + cb[np.clip(eq_ib, 0, nb - 1)], _INF)
    use_eq = eq_val < cand
    best = np.where(use_eq, eq_val, cand)
    best_ib = np.where(use_eq, eq_ib, cand_ib)
    ia = int(np.argmin(best))
    if not best[ia] < _INF:
        raise ReproError(
            f"extraction failed at node {node_id} (u = {u})"
        )
    return int(ja[ia]), int(jb[int(best_ib[ia])])


def _solve_node(node, child_solutions: Sequence[NodeSolution], k: int, prune: bool) -> NodeSolution:
    """DP step for a single node (leaf or internal)."""
    cap = _cap_for(node, k, prune)
    if node.is_leaf:
        if cap < 0:
            vec = np.empty(0, dtype=float)
        else:
            # Cloak d-u ≥ k locations here, at this leaf's area.
            us = np.arange(cap + 1)
            vec = (node.count - us) * node.rect.area
        return NodeSolution(node.node_id, node.count, vec.astype(float))
    pieces = _aggregate_children(child_solutions)
    vec = _node_step(node, pieces, k, cap)
    return NodeSolution(node.node_id, node.count, vec)


class TreeSolution:
    """The completed DP over a tree, ready for cost queries / extraction."""

    def __init__(self, tree, k: int, prune: bool, solutions: Dict[int, NodeSolution]):
        self.tree = tree
        self.k = k
        self.prune = prune
        self.solutions = solutions

    @property
    def root_solution(self) -> NodeSolution:
        return self.solutions[self.tree.root.node_id]

    @property
    def optimal_cost(self) -> float:
        """Cost of the cheapest policy-aware k-anonymous policy.

        Raises :class:`NoFeasiblePolicyError` when none exists (fewer
        than k users in the snapshot).
        """
        root = self.root_solution
        if root.d == 0:
            return 0.0
        cost = root.cost_at(0)
        if cost == _INF:
            raise NoFeasiblePolicyError(
                f"no policy-aware {self.k}-anonymous policy exists "
                f"(|D| = {root.d})"
            )
        return cost

    # -- extraction ---------------------------------------------------------------

    def configuration(self) -> Configuration:
        """Extract one minimum-cost complete configuration (top-down)."""
        __ = self.optimal_cost  # feasibility gate
        values: Dict[int, int] = {}

        def descend(node, u: int) -> None:
            values[node.node_id] = u
            if node.is_leaf:
                return
            if u == node.count:
                # Sentinel: every child passes everything up.
                for child in node.children:
                    descend(child, child.count)
                return
            split = self._choose_split(node, u)
            for child, child_u in zip(node.children, split):
                descend(child, child_u)

        descend(self.tree.root, 0)
        return Configuration(self.tree, values)

    def policy(self, name: str = "policy-aware-optimal") -> CloakingPolicy:
        """Materialize a concrete optimal policy (Lemma 1 lets us pick
        any member of the optimal equivalence class)."""
        return policy_from_configuration(self.tree, self.configuration(), name)

    def _choose_split(self, node, u: int) -> Tuple[int, ...]:
        """Re-derive the children's pass-up counts behind ``vec[u]``."""
        kids = [self.solutions[c.node_id] for c in node.children]
        if len(kids) == 2:
            return self._choose_split_binary(node, u, kids)
        return self._choose_split_nary(node, u, kids)

    def _choose_split_binary(
        self, node, u: int, kids: Sequence[NodeSolution]
    ) -> Tuple[int, int]:
        a, b = kids
        ja, ca = a.domain()
        jb, cb = b.domain()
        return _split_scan(
            u, ja, ca, jb, cb, node.rect.area, self.k, node_id=node.node_id
        )

    def _choose_split_nary(
        self, node, u: int, kids: Sequence[NodeSolution]
    ) -> Tuple[int, ...]:
        """Plain recursive search over children domains.

        Used only for quad trees, which this library restricts to small
        reference instances; the production path is binary.
        """
        area = node.rect.area
        best_cost = _INF
        best: Optional[Tuple[int, ...]] = None
        domains = []
        for sol in kids:
            js, cs = sol.domain()
            domains.append(list(zip(js.tolist(), cs.tolist())))

        def recurse(idx: int, chosen: List[int], j_acc: int, c_acc: float):
            nonlocal best_cost, best
            if c_acc >= best_cost:
                return
            if idx == len(domains):
                if j_acc == u:
                    total = c_acc
                elif j_acc >= u + self.k:
                    total = c_acc + (j_acc - u) * area
                else:
                    return
                if total < best_cost:
                    best_cost = total
                    best = tuple(chosen)
                return
            for j, c in domains[idx]:
                recurse(idx + 1, chosen + [j], j_acc + j, c_acc + c)

        recurse(0, [], 0, 0.0)
        if best is None:
            raise ReproError(
                f"extraction failed at node {node.node_id} (u = {u})"
            )
        return best


def _solve_object(tree, k: int, prune: bool) -> TreeSolution:
    """The node-at-a-time object-graph DP (cross-check oracle)."""
    solutions: Dict[int, NodeSolution] = {}
    for node in tree.iter_postorder():
        child_solutions = [solutions[c.node_id] for c in node.children]
        solutions[node.node_id] = _solve_node(node, child_solutions, k, prune)
    return TreeSolution(tree, k, prune, solutions)


def solve(tree, k: int, prune: bool = True, engine: str = "flat") -> TreeSolution:
    """Run the optimized DP over ``tree`` for anonymity degree ``k``.

    ``prune=True`` applies the Lemma-5 cap — proven for the binary tree,
    and the default production configuration.  Pass ``prune=False`` to
    get the unpruned reference behaviour (used by tests and the ablation
    benchmark).

    ``engine`` selects the evaluator: ``"flat"`` (default) compiles the
    tree to structure-of-arrays form and runs the level-batched kernels
    of :mod:`repro.core.flat_dp` — bit-identical costs, much faster;
    ``"object"`` forces the original node-at-a-time walk (the oracle the
    property tests compare against).  Non-binary trees (the quad-tree
    reference instances) always take the object path.
    """
    if k < 1:
        raise ReproError(f"k must be ≥ 1, got {k}")
    if engine not in ("flat", "object"):
        raise ReproError(f"unknown solver engine {engine!r}")
    if engine == "flat":
        from .flat_dp import is_binary_tree, solve_flat

        if is_binary_tree(tree):
            return solve_flat(tree, k, prune=prune)
    return _solve_object(tree, k, prune)


def solve_best_orientation(
    region,
    db,
    k: int,
    max_depth: int = 40,
    prune: bool = True,
    pool=None,
    engine: str = "flat",
) -> TreeSolution:
    """Solve both static binary-tree orientations and keep the cheaper.

    The paper statically partitions quadrants into *vertical*
    semi-quadrants "for simplicity" but notes the implementation can
    choose between vertical and horizontal trees at run time.  Both
    orientations embed every quad-tree policy, so either is a valid
    (optimal for its vocabulary) policy-aware anonymization; picking the
    cheaper of the two is a free utility win at 2× solve cost.

    Both builds read the snapshot's own id table; only the leaf
    partition differs per orientation.  With ``pool`` (any
    ``concurrent.futures`` executor, e.g. the parallel engine's process
    pool) the two DP runs execute concurrently: each orientation is
    compiled to flat arrays, shipped to a worker, and only the cost
    vectors come back.
    """
    from ..trees.binarytree import BinaryTree

    trees = [
        BinaryTree.build(region, db, k, max_depth=max_depth, orientation=o)
        for o in ("vertical", "horizontal")
    ]

    if pool is not None and engine == "flat":
        from ..trees.flat import FlatTree
        from .flat_dp import rehydrate_solution, solve_arrays

        flats = [FlatTree.compile(t) for t in trees]
        futures = [pool.submit(solve_arrays, f, k, prune) for f in flats]
        candidates = [
            rehydrate_solution(tree, flat, fut.result(), k, prune)
            for tree, flat, fut in zip(trees, flats, futures)
        ]
    else:
        candidates = [solve(t, k, prune=prune, engine=engine) for t in trees]

    best: Optional[TreeSolution] = None
    best_cost = float("inf")
    for solution in candidates:
        try:
            cost = solution.optimal_cost
        except NoFeasiblePolicyError:
            if best is None:
                best = solution
            continue
        if cost < best_cost:
            best, best_cost = solution, cost
    return best


def resolve_dirty(
    solution: TreeSolution, dirty: Set[int]
) -> Tuple[TreeSolution, int]:
    """Incrementally repair a solution after the tree changed (§IV
    "Incremental Maintenance of M").

    ``dirty`` is the node-id set reported by
    :meth:`~repro.trees.binarytree.BinaryTree.apply_moves`; it is closed
    under "ancestor of a change", so recomputing exactly those nodes in
    post-order restores a globally optimal DP.  Returns the repaired
    solution and the number of node recomputations performed.

    Flat-engine solutions are repaired by the level-batched, memoized
    path of :mod:`repro.core.flat_dp`; it recomputes exactly the same
    node set this object walk would.
    """
    from .flat_dp import FlatTreeSolution, resolve_dirty_flat

    if isinstance(solution, FlatTreeSolution):
        return resolve_dirty_flat(solution, dirty)
    tree, k, prune = solution.tree, solution.k, solution.prune
    live = {nid: sol for nid, sol in solution.solutions.items() if nid in tree.nodes}
    recomputed = 0
    for node in tree.iter_postorder():
        if node.node_id in live and node.node_id not in dirty:
            continue
        child_solutions = [live[c.node_id] for c in node.children]
        live[node.node_id] = _solve_node(node, child_solutions, k, prune)
        recomputed += 1
    return TreeSolution(tree, k, prune, live), recomputed
