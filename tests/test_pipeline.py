"""End-to-end tests of the privacy-conscious pipeline (§II-B)."""

import pytest

from repro import Point, Rect, ReproError
from repro.attacks import PolicyAwareAttacker, PolicyUnawareAttacker
from repro.data import uniform_users
from repro.lbs import CSP, LBSProvider, generate_pois, random_moves


@pytest.fixture
def region():
    return Rect(0, 0, 4096, 4096)


@pytest.fixture
def db(region):
    return uniform_users(300, region, seed=131)


@pytest.fixture
def csp(region, db):
    pois = generate_pois(region, {"rest": 100, "groc": 50}, seed=132)
    return CSP(region, k=10, db=db, provider=LBSProvider(pois))


class TestServing:
    def test_result_is_true_nearest(self, csp, db):
        uid = db.user_ids()[0]
        served = csp.request(uid, [("poi", "rest")])
        location = db.location_of(uid)
        true_nn = csp.provider.pois.nearest(location, "rest")
        assert served.result.poi_id == true_nn.poi_id

    def test_anonymized_request_masks_sender(self, csp, db):
        uid = db.user_ids()[1]
        served = csp.request(uid, [("poi", "rest")])
        assert served.anonymized.cloak.contains(db.location_of(uid))
        assert served.anonymized.payload == served.request.payload

    def test_cloak_holds_k_users_and_k_group(self, csp, db):
        uid = db.user_ids()[2]
        served = csp.request(uid, [("poi", "groc")])
        unaware = PolicyUnawareAttacker(db)
        aware = PolicyAwareAttacker(csp.policy)
        assert unaware.attack(served.anonymized).anonymity >= 10
        assert aware.attack(served.anonymized).anonymity >= 10

    def test_no_identity_leaks_to_lbs(self, csp, db):
        uid = db.user_ids()[3]
        served = csp.request(uid, [("poi", "rest")])
        # The anonymized request carries nothing but id / cloak / payload.
        assert served.anonymized.__dataclass_fields__.keys() == {
            "request_id",
            "cloak",
            "payload",
        }

    def test_unknown_user_rejected(self, csp):
        with pytest.raises(ReproError, match="no location"):
            csp.request("ghost", [("poi", "rest")])

    def test_cache_suppresses_duplicates(self, csp, db):
        # Two users sharing a cloak group issue the same query.
        uid = db.user_ids()[4]
        group = [
            u
            for u, region in csp.policy.items()
            if region == csp.policy.cloak_for(uid)
        ]
        assert len(group) >= 10
        first = csp.request(group[0], [("poi", "rest")])
        second = csp.request(group[1], [("poi", "rest")])
        assert not first.cache_hit and second.cache_hit
        assert csp.provider.served == 1

    def test_cache_disabled(self, region, db):
        pois = generate_pois(region, {"rest": 30}, seed=133)
        csp = CSP(region, 10, db, LBSProvider(pois), use_cache=False)
        uid = db.user_ids()[0]
        csp.request(uid, [("poi", "rest")])
        csp.request(uid, [("poi", "rest")])
        assert csp.provider.served == 2


class TestSnapshots:
    def test_advance_then_serve(self, csp, db, region):
        moves = random_moves(db, 0.1, region, max_distance=50, seed=134)
        report = csp.advance_snapshot(moves)
        assert report.moved_users == len(moves)
        moved_uid = next(iter(moves))
        served = csp.request(moved_uid, [("poi", "rest")])
        assert served.anonymized.cloak.contains(moves[moved_uid])

    def test_policy_stays_anonymous_across_snapshots(self, csp, db, region):
        current = db
        for step in range(3):
            moves = random_moves(current, 0.2, region, max_distance=80, seed=step)
            csp.advance_snapshot(moves)
            current = current.with_moves(moves)
            assert csp.policy.min_group_size() >= 10

    def test_mpc_view_refreshed(self, csp, db, region):
        uid = db.user_ids()[0]
        csp.advance_snapshot({uid: Point(1.0, 1.0)})
        assert csp.mpc.locate(uid) == Point(1.0, 1.0)


class TestCoarseCloakFallThrough:
    """Regression: the override lookup misses *only* for an unknown user,
    and serving still surfaces the canonical error (the fail-closed
    linter pins the handler shape; these tests pin the behavior it
    justifies)."""

    def test_unknown_user_with_registered_coarsening_still_rejects(
        self, csp, db, region
    ):
        # Register a coarsening so the epoch's override lookup actually
        # runs instead of short-circuiting on the empty table.
        csp.manager.active.overrides.append(region)
        with pytest.raises(ReproError, match="no cloak"):
            csp.manager.serve_cloak("ghost")
        with pytest.raises(ReproError, match="no location"):
            csp.request("ghost", [("poi", "rest")])

    def test_known_user_still_served_under_coarsening(self, csp, db, region):
        csp.manager.active.overrides.append(region)
        uid = db.user_ids()[0]
        served = csp.request(uid, [("poi", "rest")])
        # The registered region covers every fine cloak, so the served
        # cloak is the coarse override — never something weaker.
        assert served.anonymized.cloak == region
        assert served.degradation == "coarsened"
