"""Policies built and checked as rows (Definition 4 over arrays).

``CloakingPolicy.from_rows`` checks masking with one array comparison
over coordinates that producers take from a payload ``FlatTree``, and
``CloakingPolicy.union`` (the ``MasterPolicy`` merge) no longer checks
masking per user.  These tests pin both halves of that bargain:

* the array constructor accepts and rejects exactly what the mapping
  constructor does, with the same message;
* its premise holds: a payload's ``coords`` are the snapshot's
  locations, row for row, after fits, repairs and in a fleet epoch;
* a corrupted cloak box or a part from another snapshot still fails
  closed end to end.
"""

import numpy as np
import pytest

from repro import LocationDatabase, Point, PolicyError, Rect
from repro.core.anonymizer import IncrementalAnonymizer, PolicyAwareAnonymizer
from repro.core.policy import CloakingPolicy
from repro.data import uniform_users
from repro.lbs import LBSProvider, generate_pois
from repro.lbs.mobility import random_moves
from repro.parallel import engine, parallel_bulk_anonymize
from repro.parallel.master import MasterPolicy
from repro.serving import FleetConfig, FleetDispatcher
from repro.trees.flat import SharedFlatTree

REGION = Rect(0, 0, 1024, 1024)
K = 5
BOX = Rect(0, 0, 4, 4)
OTHER = Rect(0, 0, 8, 8)


def outcome(build):
    try:
        policy = build()
    except PolicyError as exc:
        return ("rejected", str(exc))
    return ("accepted", list(policy.items()))


def both(rows, db, rects=(BOX, OTHER), coords=None):
    """Build ``rows`` (``(user, group)`` pairs) through both
    constructors; returns ``(array outcome, mapping outcome)``.
    Coordinates default to each user's ``db`` location, or a point
    inside ``BOX`` for users ``db`` does not know."""
    ids = [uid for uid, __ in rows]
    group = np.array([g for __, g in rows], dtype=np.int64)
    if coords is None:
        coords = [
            db.location_of(uid).as_tuple() if uid in db else (1.0, 1.0)
            for uid in ids
        ]
    coords = np.array(coords, dtype=np.float64).reshape(len(ids), 2)
    rects = list(rects)
    by_rows = outcome(
        lambda: CloakingPolicy.from_rows(ids, coords, group, rects, db, "p")
    )
    by_mapping = outcome(
        lambda: CloakingPolicy(
            dict(zip(ids, (rects[g] for g in group.tolist()))), db, "p"
        )
    )
    return by_rows, by_mapping


EDGES = {
    "west": (0.0, 2.0),
    "east": (4.0, 2.0),
    "south": (2.0, 0.0),
    "north": (2.0, 4.0),
}


def one_ulp_outside(edge):
    x, y = EDGES[edge]
    if edge == "west":
        return np.nextafter(x, -np.inf), y
    if edge == "east":
        return np.nextafter(x, np.inf), y
    if edge == "south":
        return x, np.nextafter(y, -np.inf)
    return x, np.nextafter(y, np.inf)


class TestSameVerdictAsTheMappingConstructor:
    def test_points_on_every_edge_and_corner_are_accepted(self):
        rows = dict(EDGES)
        rows.update(sw=(0.0, 0.0), ne=(4.0, 4.0), nw=(0.0, 4.0), se=(4.0, 0.0))
        db = LocationDatabase((uid, x, y) for uid, (x, y) in rows.items())
        by_rows, by_mapping = both([(uid, 0) for uid in rows], db)
        assert by_rows == by_mapping
        assert by_rows[0] == "accepted"

    @pytest.mark.parametrize("edge", sorted(EDGES))
    def test_one_ulp_outside_an_edge_is_rejected(self, edge):
        x, y = one_ulp_outside(edge)
        db = LocationDatabase([("in", 2.0, 2.0), ("out", x, y), ("far", 6, 6)])
        by_rows, by_mapping = both([("in", 0), ("out", 0), ("far", 1)], db)
        assert by_rows == by_mapping
        assert by_rows[0] == "rejected"
        assert "not masking: user 'out'" in by_rows[1]

    def test_the_first_offending_row_is_named(self):
        db = LocationDatabase(
            [("a", 1, 1), ("b", 6, 6), ("c", 7, 7), ("d", 2, 2)]
        )
        # b and c both sit outside BOX; the unknown ghost comes later.
        rows = [("a", 0), ("b", 0), ("ghost", 0), ("c", 0), ("d", 0)]
        by_rows, by_mapping = both(rows, db)
        assert by_rows == by_mapping
        assert "user 'b'" in by_rows[1]
        # An unknown user ahead of a masking fault is named first.
        rows = [("a", 0), ("ghost", 0), ("b", 0), ("c", 1), ("d", 0)]
        by_rows, by_mapping = both(rows, db)
        assert by_rows == by_mapping
        assert by_rows[1] == "policy cloaks unknown user 'ghost'"

    def test_unknown_user_is_rejected(self):
        db = LocationDatabase([("a", 1, 1), ("b", 2, 2)])
        by_rows, by_mapping = both([("a", 0), ("b", 0), ("ghost", 0)], db)
        assert by_rows == by_mapping
        assert by_rows == ("rejected", "policy cloaks unknown user 'ghost'")

    def test_missing_user_is_rejected(self):
        db = LocationDatabase([("a", 1, 1), ("b", 2, 2), ("c", 3, 3)])
        by_rows, by_mapping = both([("a", 0), ("c", 1)], db)
        assert by_rows == by_mapping
        assert by_rows == (
            "rejected", "policy does not cover 1 users (first: ['b'])"
        )

    def test_duplicate_row_is_rejected(self):
        """A mapping cannot hold a user twice; rows can, and the array
        constructor refuses them (naming the second row) even when every
        row masks and every user is covered."""
        db = LocationDatabase([("a", 1, 1), ("b", 2, 2)])
        by_rows, __ = both([("a", 0), ("b", 0), ("a", 1)], db)
        assert by_rows == ("rejected", "policy cloaks user 'a' twice")

    def test_rows_that_disagree_in_length_are_rejected(self):
        db = LocationDatabase([("a", 1, 1), ("b", 2, 2)])
        with pytest.raises(PolicyError, match="rows disagree"):
            CloakingPolicy.from_rows(
                ["a", "b"], np.zeros((1, 2)), np.zeros(2, int), [BOX], db
            )
        with pytest.raises(PolicyError, match="rows disagree"):
            CloakingPolicy.from_rows(
                ["a", "b"], np.ones((2, 2)), np.array([0, 1]), [BOX], db
            )

    def test_groups_share_one_rect_and_rows_keep_their_order(self):
        db = LocationDatabase([("a", 1, 1), ("b", 2, 2), ("c", 6, 6)])
        policy = CloakingPolicy.from_rows(
            ["c", "a", "b"],
            np.array([(6, 6), (1, 1), (2, 2)], dtype=float),
            np.array([1, 0, 0]),
            [BOX, OTHER],
            db,
        )
        assert [uid for uid, __ in policy.items()] == ["c", "a", "b"]
        assert policy.cloak_for("a") is policy.cloak_for("b") is BOX
        assert policy.cloak_for("c") is OTHER

    def test_empty_rows_over_an_empty_db(self):
        policy = CloakingPolicy.from_rows(
            [], np.empty((0, 2)), np.empty(0, int), [], LocationDatabase()
        )
        assert len(policy) == 0


# -- the premise: payload coordinates are the snapshot's ------------------------


def assert_payload_is_db(flat, db):
    """Row ``r`` of the payload is ``flat.user_ids[r]`` at ``db``'s
    location for that user, exactly."""
    assert sorted(flat.user_ids) == sorted(db.user_ids())
    expected = np.array(
        [db.location_of(uid).as_tuple() for uid in flat.user_ids],
        dtype=np.float64,
    ).reshape(len(flat.user_ids), 2)
    assert np.array_equal(flat.coords, expected)


def split_line_point(tree):
    """A point exactly on the line splitting a deep internal node."""
    node = max(
        (m for m in tree.root.iter_subtree() if m.children),
        key=lambda m: (m.depth, m.node_id),
    )
    a, b = node.children[0].rect, node.children[1].rect
    if a.x2 == b.x1:
        return Point(a.x2, (node.rect.y1 + node.rect.y2) / 2.0)
    return Point((node.rect.x1 + node.rect.x2) / 2.0, a.y2)


class TestPayloadCoordinatesAreTheSnapshots:
    def test_after_a_fit(self):
        db = uniform_users(300, REGION, seed=41)
        anonymizer = PolicyAwareAnonymizer(REGION, K).fit(db)
        policy, flat = anonymizer.solution.extract()
        assert_payload_is_db(flat, db)
        assert list(policy.items()) == list(
            PolicyAwareAnonymizer(REGION, K, engine="object")
            .fit(db)
            .policy.items()
        )

    def test_after_move_batches_one_onto_a_split_line(self):
        db = uniform_users(300, REGION, seed=42)
        anonymizer = IncrementalAnonymizer(REGION, K).fit(db)
        for step in range(4):
            current = anonymizer.current_db
            moves = random_moves(
                current, 0.1, REGION, max_distance=80.0, seed=100 + step
            )
            if step == 2:
                uid = current.user_ids()[7]
                moves[uid] = split_line_point(anonymizer.tree)
            anonymizer.update(moves)
            current = anonymizer.current_db
            if step == 2:
                assert current.location_of(uid) == moves[uid]
            policy, flat = anonymizer.solution.extract()
            assert_payload_is_db(flat, current)
            assert policy.db is current

    def test_in_a_fleet_workers_epoch_segment(self):
        db = uniform_users(200, REGION, seed=43)
        provider = LBSProvider(generate_pois(REGION, {"rest": 20}, seed=43))
        config = FleetConfig(n_workers=1, mode="simulated")
        with FleetDispatcher(REGION, K, db, provider, config) as fleet:
            for epoch in range(3):
                if epoch:
                    fleet.advance_epoch(
                        random_moves(fleet.db, 0.05, REGION, seed=epoch)
                    )
                shared = SharedFlatTree.attach(fleet._spec.handle)
                try:
                    flat = shared.tree
                    assert_payload_is_db(flat, fleet.db)
                    del flat
                finally:
                    shared.close()


# -- fail closed end to end --------------------------------------------------------


@pytest.mark.parametrize("mode", ["simulated", "process"])
def test_corrupted_extracted_box_fails_the_bulk_solve(mode, monkeypatch):
    """A worker's cloak box that no longer holds its group (shifted off
    the map) is caught by the master's array check, in both modes."""
    real = engine._judged

    def corrupting(jur, users, attempt, timeout, solved, elapsed):
        rows, group, boxes = solved
        boxes = boxes.copy()
        boxes[group[0]] += 1e6
        return real(jur, users, attempt, timeout, (rows, group, boxes), elapsed)

    monkeypatch.setattr(engine, "_judged", corrupting)
    db = uniform_users(200, REGION, seed=44)
    with pytest.raises(PolicyError, match="not masking"):
        parallel_bulk_anonymize(REGION, db, K, 2, mode=mode, pool_workers=1)


def test_master_refuses_a_part_from_another_snapshot():
    """One user moved inside her own cloak: masking alone would pass,
    the merge's location comparison does not.  A snapshot rebuilt with
    equal values is accepted."""
    db = uniform_users(200, REGION, seed=45)
    servers = parallel_bulk_anonymize(REGION, db, K, 4).master.servers
    uid = db.user_ids()[3]
    cloak = MasterPolicy(servers, db).cloak_for(uid)
    inside = Point(
        (cloak.x1 + db.location_of(uid).x) / 2.0,
        (cloak.y1 + db.location_of(uid).y) / 2.0,
    )
    assert cloak.contains(inside) and inside != db.location_of(uid)
    with pytest.raises(PolicyError, match="another snapshot"):
        MasterPolicy(servers, db.with_moves({uid: inside}))
    rebuilt = MasterPolicy(servers, LocationDatabase(db.rows()))
    assert list(rebuilt.merged.items()) == list(
        MasterPolicy(servers, db).merged.items()
    )


def test_bulk_groups_share_one_rect_per_cloak():
    db = uniform_users(300, REGION, seed=46)
    merged = parallel_bulk_anonymize(REGION, db, K, 3).master.merged
    assert len({id(cloak) for __, cloak in merged.items()}) == len(
        merged.groups()
    )
