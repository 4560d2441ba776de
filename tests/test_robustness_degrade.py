"""Fail-closed degradation primitives (repro.robustness.degrade)."""

import pytest

from repro import PolicyAwareAnonymizer, Point, Rect
from repro.attacks.audit import audit_policy
from repro.core.errors import ServiceUnavailableError
from repro.data import uniform_users
from repro.robustness import (
    coarsen_overrides,
    coarsening_ancestor,
    fallback_jurisdiction_policy,
    policy_with_overrides,
)

K = 10


@pytest.fixture(scope="module")
def fitted():
    region = Rect(0, 0, 4096, 4096)
    db = uniform_users(400, region, seed=77)
    return PolicyAwareAnonymizer(region, K).fit(db), db


class TestCoarseningAncestor:
    def test_without_location_returns_cloak_node(self, fitted):
        anonymizer, db = fitted
        uid = db.user_ids()[0]
        node = coarsening_ancestor(anonymizer.tree, anonymizer.policy, uid)
        assert node.rect == anonymizer.policy.cloak_for(uid)

    def test_ancestor_covers_displaced_location(self, fitted):
        anonymizer, db = fitted
        uid = db.user_ids()[1]
        cloak = anonymizer.policy.cloak_for(uid)
        # A point far from the cloak but still on the map.
        far = Point(
            4095.0 if cloak.center.x < 2048 else 1.0,
            4095.0 if cloak.center.y < 2048 else 1.0,
        )
        node = coarsening_ancestor(
            anonymizer.tree, anonymizer.policy, uid, location=far
        )
        assert node.rect.contains(far)
        assert node.rect.contains_rect(cloak)

    def test_off_map_location_rejects(self, fitted):
        anonymizer, db = fitted
        uid = db.user_ids()[2]
        with pytest.raises(ServiceUnavailableError, match="fail-closed"):
            coarsening_ancestor(
                anonymizer.tree,
                anonymizer.policy,
                uid,
                location=Point(9999.0, 9999.0),
            )


@pytest.mark.parametrize("seed", range(40))
def test_geometric_ancestor_matches_tree_walk(seed):
    """The serving path coarsens along the halving chain (pure geometry);
    the tree walk of ``coarsening_ancestor`` is its reference oracle.
    Both must pick the same ancestor, and both must reject a location
    outside every ancestor."""
    import random

    from repro.streaming import covering_ancestor

    rng = random.Random(seed)
    region = Rect(0, 0, 4096, 4096)
    db = uniform_users(rng.randrange(60, 400), region, seed=seed)
    anonymizer = PolicyAwareAnonymizer(region, rng.choice((3, 5, 10))).fit(db)
    orientation = anonymizer.tree.orientation
    users = db.user_ids()
    for __ in range(40):
        uid = rng.choice(users)
        if rng.random() < 0.2:
            location = Point(rng.uniform(4097.0, 9000.0), rng.uniform(-10.0, 4096.0))
        else:
            location = Point(rng.uniform(0.0, 4096.0), rng.uniform(0.0, 4096.0))
        cloak = anonymizer.policy.cloak_for(uid)
        try:
            expected = coarsening_ancestor(
                anonymizer.tree, anonymizer.policy, uid, location=location
            ).rect
        except ServiceUnavailableError as exc:
            assert exc.reason == "coarsen"
            with pytest.raises(ServiceUnavailableError) as err:
                covering_ancestor(region, orientation, cloak, location)
            assert err.value.reason == "coarsen"
            continue
        assert covering_ancestor(region, orientation, cloak, location) == expected


class TestCoarsenOverrides:
    def test_override_keeps_policy_aware_k(self, fitted):
        anonymizer, db = fitted
        uid = db.user_ids()[3]
        cloak = anonymizer.policy.cloak_for(uid)
        node = coarsening_ancestor(anonymizer.tree, anonymizer.policy, uid)
        # Coarsen to a strict ancestor, as the serving ladder would.
        ancestor = node.parent or node
        overrides = coarsen_overrides(anonymizer.policy, ancestor.rect)
        assert overrides.get(uid) == ancestor.rect
        merged = policy_with_overrides(
            anonymizer.policy, overrides, name="coarsened"
        )
        report = audit_policy(merged, K)
        assert report.safe_policy_aware, report.summary()
        assert report.breached_users == ()
        # The merged group holds at least the requester's old group.
        assert len(merged.groups()[ancestor.rect]) >= len(
            anonymizer.policy.groups()[cloak]
        )

    def test_untouched_users_keep_their_cloaks(self, fitted):
        anonymizer, db = fitted
        uid = db.user_ids()[4]
        node = coarsening_ancestor(anonymizer.tree, anonymizer.policy, uid)
        ancestor = node.parent or node
        overrides = coarsen_overrides(anonymizer.policy, ancestor.rect)
        merged = policy_with_overrides(anonymizer.policy, overrides)
        for user, region in anonymizer.policy.items():
            if user not in overrides:
                assert merged.cloak_for(user) == region

    def test_strict_ancestor_cloaks_not_pulled_down(self, fitted):
        anonymizer, db = fitted
        uid = db.user_ids()[5]
        node = coarsening_ancestor(anonymizer.tree, anonymizer.policy, uid)
        ancestor = node.parent or node
        overrides = coarsen_overrides(anonymizer.policy, ancestor.rect)
        for user, rect in overrides.items():
            # Only cloaks *contained in* the ancestor were overridden.
            assert ancestor.rect.contains_rect(
                anonymizer.policy.cloak_for(user)
            )
            assert rect == ancestor.rect

    def test_empty_overrides_return_same_policy(self, fitted):
        anonymizer, __ = fitted
        assert (
            policy_with_overrides(anonymizer.policy, {})
            is anonymizer.policy
        )


class TestJurisdictionFallback:
    def test_single_cloak_policy_is_k_anonymous(self):
        rect = Rect(0, 0, 512, 512)
        rows = [(f"u{i}", 10.0 * i % 500, 7.0 * i % 500) for i in range(25)]
        policy = fallback_jurisdiction_policy(rect, node_id=3, rows=rows, k=K)
        assert policy.name == "degraded-3"
        assert all(region == rect for __, region in policy.items())
        report = audit_policy(policy, K)
        assert report.safe_policy_aware
        assert report.policy_aware_level == 25

    def test_below_k_jurisdiction_refused(self):
        rect = Rect(0, 0, 512, 512)
        rows = [(f"u{i}", 5.0 * i, 5.0 * i) for i in range(K - 1)]
        with pytest.raises(ServiceUnavailableError, match="refusing"):
            fallback_jurisdiction_policy(rect, node_id=3, rows=rows, k=K)
