"""Property tests for the flat-array DP engine (§V over arrays).

The flat engine's contract is *bit identity*: every per-node cost
vector — not just the optimum — must equal the object solver's, which
in turn matches the literal Algorithm 1.  The memoized incremental
path must preserve that identity across arbitrary move schedules while
recomputing no more nodes than the object path.
"""

import random
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.attacks.audit import audit_policy
from repro.core.binary_dp import (
    _solve_object,
    resolve_dirty,
    solve,
    solve_best_orientation,
)
from repro.core.bulk_dp import solve_naive
from repro.core.errors import NoFeasiblePolicyError
from repro.core.flat_dp import (
    FlatTreeSolution,
    SubtreeMemo,
    extract_cloaks,
    is_binary_tree,
    resolve_dirty_flat,
    solve_arrays,
    solve_flat,
)
from repro.core.geometry import Point, Rect
from repro.core.locationdb import LocationDatabase
from repro.data import uniform_users
from repro.lbs import random_moves
from repro.parallel import parallel_bulk_anonymize
from repro.trees.binarytree import BinaryTree
from repro.trees.flat import FlatTree

REGION = Rect(0, 0, 256, 256)


def _random_instance(rng, n_max=70):
    n = rng.randint(0, n_max)
    k = rng.randint(1, 6)
    rows = [
        (f"u{i}", rng.uniform(0, 256), rng.uniform(0, 256)) for i in range(n)
    ]
    return LocationDatabase(rows), k


def _cost_or_none(solution):
    try:
        return solution.optimal_cost
    except NoFeasiblePolicyError:
        return None


@pytest.mark.parametrize("seed", [101, 102, 103, 104, 105, 106])
def test_flat_matches_object_and_naive(seed):
    """Flat ≡ object (bit-identical vectors) ≡ Algorithm 1 (cost)."""
    rng = random.Random(seed)
    for __ in range(6):
        db, k = _random_instance(rng)
        tree = BinaryTree.build(REGION, db, k)
        for prune in (True, False):
            flat_sol = solve_flat(tree, k, prune=prune)
            obj_sol = _solve_object(tree, k, prune)
            cf, co = _cost_or_none(flat_sol), _cost_or_none(obj_sol)
            assert cf == co  # exact, including infeasibility
            for nid, ns in obj_sol.solutions.items():
                assert np.array_equal(ns.vec, flat_sol.solutions[nid].vec)
        naive_cost = _cost_or_none(solve_naive(tree, k))
        if cf is None:
            assert naive_cost is None
        else:
            assert naive_cost == pytest.approx(cf, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("seed", [201, 202, 203])
def test_flat_policy_is_k_anonymous(seed):
    """The extracted policy achieves the optimum and cloaks ≥ k users."""
    rng = random.Random(seed)
    for __ in range(4):
        db, k = _random_instance(rng)
        if len(db) < k:
            continue
        tree = BinaryTree.build(REGION, db, k)
        flat_sol = solve_flat(tree, k)
        cost = _cost_or_none(flat_sol)
        if cost is None:
            continue
        policy = flat_sol.policy()
        assert policy.cost() == pytest.approx(cost, rel=1e-9, abs=1e-9)
        assert len(policy) == len(db)
        report = audit_policy(policy, k)
        assert report.safe_policy_aware, report.summary()


@pytest.mark.parametrize("seed", [301, 302, 303, 304])
def test_standalone_extraction_matches_solution_policy(seed):
    """Flat extraction ≡ the ``engine="object"`` walk, cloak for cloak
    and in insertion order — on a fresh solve and across four
    incremental repairs — both through ``solution.policy()`` and through
    worker-side ``extract_cloaks`` on a standalone payload compile."""
    rng = random.Random(seed)
    for __ in range(4):
        db, k = _random_instance(rng)
        tree = BinaryTree.build(REGION, db, k)
        sol = solve(tree, k)
        for step in range(5):
            if step:
                moves = random_moves(
                    tree.db, 0.3, REGION, max_distance=60, seed=seed * 10 + step
                )
                sol, __ = resolve_dirty(sol, tree.apply_moves(moves))
            oracle = solve(tree, k, engine="object")
            flat = FlatTree.compile(tree, with_payload=True)
            vecs = solve_arrays(flat, k)
            if _cost_or_none(oracle) is None:
                with pytest.raises(NoFeasiblePolicyError):
                    sol.policy()
                with pytest.raises(NoFeasiblePolicyError):
                    extract_cloaks(flat, vecs, k)
                break
            expected = oracle.policy()
            assert list(sol.policy().items()) == list(expected.items())
            cloaks = extract_cloaks(flat, vecs, k)
            assert list(cloaks.items()) == [
                (uid, cloak.as_tuple()) for uid, cloak in expected.items()
            ]


@pytest.mark.parametrize("seed", [401, 402, 403, 404, 405])
def test_memoized_repair_equals_scratch_solve(seed):
    """resolve_dirty on the flat engine stays bit-identical to a from-
    scratch flat solve across random move schedules, and never
    recomputes more nodes than the object path."""
    rng = random.Random(seed)
    region = Rect(0, 0, 2048, 2048)
    db = uniform_users(rng.randint(40, 120), region, seed=seed)
    k = rng.randint(2, 6)
    tree_f = BinaryTree.build(region, db, k)
    tree_o = BinaryTree.build(region, db, k)
    sol_f = solve(tree_f, k, engine="flat")
    sol_o = solve(tree_o, k, engine="object")
    assert isinstance(sol_f, FlatTreeSolution)
    for step in range(5):
        moves = random_moves(
            tree_f.db, 0.3, region, max_distance=600, seed=seed * 10 + step
        )
        dirty_f = tree_f.apply_moves(moves)
        dirty_o = tree_o.apply_moves(moves)
        sol_f, rec_f = resolve_dirty(sol_f, dirty_f)
        sol_o, rec_o = resolve_dirty(sol_o, dirty_o)
        scratch = solve_flat(tree_f, k)
        assert rec_f <= rec_o
        assert _cost_or_none(sol_f) == _cost_or_none(scratch)
        assert _cost_or_none(sol_f) == _cost_or_none(sol_o)
        for nid, ns in scratch.solutions.items():
            assert np.array_equal(ns.vec, sol_f.solutions[nid].vec)


def test_memo_shares_across_identical_subtrees():
    """A 2×2 grid of identical leaves hash-conses: far fewer misses
    than nodes, and a re-solve with the same memo is all hits."""
    rows = []
    for qx in (32, 96):
        for qy in (32, 96):
            for i in range(4):
                rows.append((f"u{qx}-{qy}-{i}", qx + i, qy + i))
    db = LocationDatabase(rows)
    tree = BinaryTree.build(Rect(0, 0, 128, 128), db, 2)
    memo = SubtreeMemo(2, True)
    flat = FlatTree.compile(tree)
    first = solve_arrays(flat, 2, memo=memo)
    assert memo.hits > 0  # the four congruent quadrant subtrees share
    misses_after_first = memo.misses
    again = solve_arrays(flat, 2, memo=memo)
    assert memo.misses == misses_after_first  # everything served cached
    for a, b in zip(first, again):
        assert np.array_equal(a, b)


def _object_oracle(rect, db, k):
    """A from-scratch ``engine="object"`` solve of one territory."""
    tree = BinaryTree.build(rect, db, k)
    return solve(tree, k, engine="object").policy()


@pytest.mark.parametrize("transport", ["flat", "shm"])
def test_parallel_transports_agree(transport):
    """Every server's policy equals a per-jurisdiction solve by the
    ``engine="object"`` oracle, whichever way the arrays travel."""
    region = Rect(0, 0, 4096, 4096)
    db = uniform_users(600, region, seed=77)
    result = parallel_bulk_anonymize(region, db, 10, 4, transport=transport)
    solved = [s for s in result.master.servers if s.policy is not None]
    assert sum(len(s.policy) for s in solved) == len(db)
    for server in solved:
        expected = _object_oracle(
            server.jurisdiction.rect, server.policy.db, 10
        )
        assert list(server.policy.items()) == list(expected.items())
    report = audit_policy(result.master.merged, 10)
    assert report.safe_policy_aware, report.summary()


def test_orientation_pool_matches_serial():
    region = Rect(0, 0, 1024, 1024)
    db = uniform_users(300, region, seed=55)
    serial = solve_best_orientation(region, db, 8)
    with ThreadPoolExecutor(max_workers=2) as pool:
        pooled = solve_best_orientation(region, db, 8, pool=pool)
    obj = solve_best_orientation(region, db, 8, engine="object")
    assert serial.optimal_cost == pooled.optimal_cost
    assert serial.optimal_cost == obj.optimal_cost


def test_engine_validation_and_fallback():
    db = uniform_users(30, REGION, seed=9)
    tree = BinaryTree.build(REGION, db, 3)
    with pytest.raises(Exception):
        solve(tree, 3, engine="warp")
    assert is_binary_tree(tree)
    flat_sol = solve(tree, 3)  # default engine
    assert isinstance(flat_sol, FlatTreeSolution)
    obj_sol = solve(tree, 3, engine="object")
    assert flat_sol.optimal_cost == obj_sol.optimal_cost


def test_empty_and_tiny_instances():
    empty = LocationDatabase([])
    tree = BinaryTree.build(REGION, empty, 2)
    sol = solve_flat(tree, 2)
    assert sol.optimal_cost == 0.0
    assert sol.policy().cost() == 0.0
    flat = FlatTree.compile(tree, with_payload=True)
    assert extract_cloaks(flat, solve_arrays(flat, 2), 2) == {}
    # Fewer users than k: infeasible, consistently in both engines.
    two = LocationDatabase([("a", 1, 1), ("b", 2, 2)])
    tree2 = BinaryTree.build(REGION, two, 5)
    assert _cost_or_none(solve_flat(tree2, 5)) is None
    assert _cost_or_none(_solve_object(tree2, 5, True)) is None


def test_production_never_walks_the_object_tree(monkeypatch):
    """Every production policy comes out of the flat extraction: with
    the object walk disabled, the serving stack, the parallel engine
    (hand-off included) and the rebalancing pool all still work."""
    from repro.core.binary_dp import TreeSolution
    from repro.lbs import CSP, LBSProvider, generate_pois
    from repro.parallel import RebalancingPool
    from repro.robustness import FaultInjector, FaultPlan, FaultRule
    from repro.serving import FleetConfig, FleetDispatcher
    from repro.streaming import EpochManager

    def object_walk(self):
        raise AssertionError("production code walked the object tree")

    monkeypatch.setattr(TreeSolution, "configuration", object_walk)
    region = Rect(0, 0, 2048, 2048)
    db = uniform_users(300, region, seed=5)
    k = 5
    provider = LBSProvider(generate_pois(region, {"rest": 20}, seed=1))

    csp = CSP(region, k, db, provider)
    csp.advance_snapshot(random_moves(db, 0.1, region, seed=1))
    uid = db.user_ids()[0]
    assert csp.request(uid, [("poi", "rest")]) is not None

    with EpochManager(region, k, db) as manager:
        assert manager.advance(random_moves(db, 0.1, region, seed=2)).promoted

    with FleetDispatcher(
        region, k, db, provider, FleetConfig(n_workers=2, mode="simulated")
    ) as fleet:
        fleet.advance_epoch(random_moves(fleet.db, 0.1, region, seed=3))
        assert fleet.serve([(uid, [("poi", "rest")])])

    victim = parallel_bulk_anonymize(region, db, k, 4).jurisdictions[0]
    crash = FaultInjector(
        FaultPlan(
            rules=(FaultRule("solve", "crash", match=str(victim.node_id)),),
            seed=0,
        )
    )
    result = parallel_bulk_anonymize(
        region, db, k, 4, injector=crash, on_failure="handoff"
    )
    assert result.handoffs and len(result.master.merged) == len(db)

    pool = RebalancingPool(region, k, 4).fit(db)
    pool.advance(random_moves(db, 0.1, region, seed=4))
    assert len(pool.master_policy().merged) == len(db)
