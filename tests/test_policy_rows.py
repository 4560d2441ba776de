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

The policy is rows over its snapshot's id table, so the rest pins the
layout: the mapping view against a plain-dict model (lookups, order,
groups, bit-equal cost, unions across takes, restrictions), rejection by
row, the Definition 6 gate at install, the trajectory index's ledger map
after the ledger's intern table is replaced, and fleet routing by cloak
class against the per-user dict algorithm it replaced.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import LocationDatabase, Point, PolicyError, Rect
from repro.core.anonymizer import IncrementalAnonymizer, PolicyAwareAnonymizer
from repro.core.errors import AnonymityBreachError, UnknownUserError
from repro.core.geometry import Circle
from repro.core.policy import CloakingPolicy
from repro.data import uniform_users
from repro.lbs import LBSProvider, generate_pois
from repro.lbs.mobility import random_moves
from repro.parallel import engine, parallel_bulk_anonymize
from repro.parallel.master import MasterPolicy
from repro.serving import FleetConfig, FleetDispatcher
from repro.streaming import EpochManager
from repro.trajectory import ContinuityConstraint, TrajectoryLedger
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


# -- the rows layout against a plain-dict model -------------------------------------

#: a few cloaks, two of them equal to another but distinct objects, and
#: one circle (the baselines' other region kind).
POOL = [
    Rect(0, 0, 4, 4),
    Rect(2, 2, 8, 8),
    Rect(0, 0, 8, 8),
    Rect(0, 0, 4, 4),
    Rect(2.0, 2.0, 8.0, 8.0),
    Rect(5, 0, 8, 3),
    Circle(Point(4.0, 4.0), 3.0),
]


def _model(data, n):
    """A ``{user: cloak}`` dict in a drawn insertion order, and a db
    (in another drawn row order) locating each user inside its cloak."""
    users = [f"u{i}" for i in range(n)]
    cloaks = {
        uid: POOL[data.draw(st.integers(0, len(POOL) - 1))] for uid in users
    }
    located = {}
    for uid, region in cloaks.items():
        if isinstance(region, Circle):
            located[uid] = (region.center.x, region.center.y)
        else:
            located[uid] = (
                data.draw(st.sampled_from([region.x1, region.x2, (region.x1 + region.x2) / 2])),
                data.draw(st.sampled_from([region.y1, region.y2, (region.y1 + region.y2) / 2])),
            )
    db_order = data.draw(st.permutations(users))
    db = LocationDatabase((uid, *located[uid]) for uid in db_order)
    order = data.draw(st.permutations(users))
    return {uid: cloaks[uid] for uid in order}, db


def _reference_groups(model):
    grouped = {}
    for uid, region in model.items():
        grouped.setdefault(region, []).append(uid)
    return grouped


def _same_as_model(policy, model):
    assert len(policy) == len(model)
    assert list(policy.items()) == list(model.items())
    for uid, region in model.items():
        assert policy.cloak_for(uid) is region
    groups = policy.groups()
    reference = _reference_groups(model)
    assert list(groups.items()) == list(reference.items())
    assert policy.min_group_size() == min(map(len, reference.values()), default=0)
    # Bit-equal, in insertion order, as the dict policy summed it.
    assert policy.cost() == sum(region.area for region in model.values())


class TestRowsAgainstTheDictModel:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(0, 14), data=st.data())
    def test_mapping_view(self, n, data):
        model, db = _model(data, n)
        policy = CloakingPolicy(model, db, "p")
        _same_as_model(policy, model)
        with pytest.raises(UnknownUserError):
            policy.cloak_for("ghost")
        for uid, region in model.items():
            row = db.index()[1][uid]
            assert policy.regions[policy.row_group[row]] is region

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 14), data=st.data())
    def test_from_rows_by_id_and_by_row(self, n, data):
        model, db = _model(data, n)
        model = {u: r for u, r in model.items() if isinstance(r, Rect)}
        db = db.subset([u for u in db.user_ids() if u in model])
        rects = list({id(r): r for r in model.values()}.values())
        slot = {id(r): g for g, r in enumerate(rects)}
        group = np.array([slot[id(r)] for r in model.values()], dtype=np.int64)
        ids = list(model)
        coords = np.array(
            [db.location_of(u).as_tuple() for u in ids], dtype=np.float64
        ).reshape(-1, 2)
        rows = np.array([db.index()[1][u] for u in ids], dtype=np.int32)
        for given_rows in (ids, rows):
            policy = CloakingPolicy.from_rows(given_rows, coords, group, rects, db)
            _same_as_model(policy, model)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 14), data=st.data())
    def test_union_across_takes_and_restriction(self, n, data):
        model, db = _model(data, n)
        policy = CloakingPolicy(model, db, "p")
        # Cut the db rows into parts and rebuild each part over a take.
        rows = data.draw(st.permutations(range(len(db))))
        cut = data.draw(st.integers(0, len(rows)))
        ids = db.user_ids()
        parts = []
        for chunk in (rows[:cut], rows[cut:]):
            users = [ids[r] for r in chunk]
            parts.append(
                CloakingPolicy({u: model[u] for u in users}, db.take(chunk), "part")
            )
        merged = CloakingPolicy.union(parts, db, "merged")
        expected = {u: r for part in parts for u, r in part.items()}
        _same_as_model(merged, expected)
        assert merged.db is db
        subset = data.draw(st.permutations(list(model)))[: data.draw(st.integers(0, n))]
        restricted = policy.restricted_to(subset)
        _same_as_model(restricted, {u: model[u] for u in subset})
        assert restricted.db.user_ids() == list(subset)
        with pytest.raises(UnknownUserError):
            policy.restricted_to(["ghost"])


class TestFromRowsRejectsByRow:
    """``from_rows`` given db rows refuses exactly what it refuses
    given ids."""

    db = LocationDatabase([("a", 1, 1), ("b", 2, 2), ("c", 3, 3)])
    coords = np.array([(1, 1), (2, 2), (3, 3)], dtype=float)

    def build(self, rows, group, coords=None):
        coords = self.coords if coords is None else coords
        return CloakingPolicy.from_rows(
            np.array(rows), coords[: len(rows)], np.array(group), [BOX, OTHER], self.db
        )

    def test_accepts_a_permutation(self):
        policy = self.build([2, 0, 1], [1, 0, 0])
        assert [u for u, __ in policy.items()] == ["c", "a", "b"]

    def test_a_repeated_row(self):
        with pytest.raises(PolicyError, match="cloaks user 'a' twice"):
            self.build([0, 1, 0], [0, 0, 0])

    def test_a_missing_row(self):
        with pytest.raises(PolicyError, match=r"does not cover 1 users \(first: \['b'\]\)"):
            self.build([0, 2], [0, 0])

    def test_a_row_outside_the_snapshot(self):
        with pytest.raises(PolicyError, match="row 3 of a 3-user snapshot"):
            self.build([0, 1, 3], [0, 0, 0])

    def test_a_group_out_of_range(self):
        with pytest.raises(PolicyError, match="rows disagree"):
            self.build([0, 1, 2], [0, 0, 2])

    def test_a_row_outside_its_box(self):
        coords = np.array([(1, 1), (2, 2), (6, 6)], dtype=float)
        with pytest.raises(PolicyError, match="not masking: user 'c'"):
            self.build([0, 1, 2], [0, 0, 0], coords)


class TestDefinition6Gate:
    def test_small_group_is_refused_naming_its_users(self):
        db = LocationDatabase([("a", 1, 1), ("b", 2, 2), ("c", 6, 6)])
        policy = CloakingPolicy({"a": BOX, "b": BOX, "c": OTHER}, db)
        policy.require_k_anonymous(1)
        with pytest.raises(AnonymityBreachError, match="group of 1 users") as err:
            policy.require_k_anonymous(2)
        assert err.value.breached_users == ("c",)

    def test_equal_cloaks_count_as_one_group(self):
        db = LocationDatabase([("a", 1, 1), ("b", 2, 2)])
        policy = CloakingPolicy({"a": BOX, "b": Rect(0.0, 0.0, 4.0, 4.0)}, db)
        assert len(policy.regions) == 2
        assert policy.min_group_size() == 2
        policy.require_k_anonymous(2)

    def test_an_empty_policy_passes(self):
        CloakingPolicy({}, LocationDatabase()).require_k_anonymous(5)

    def test_a_sub_k_swap_is_void_and_the_epoch_keeps_serving(self, monkeypatch):
        db = uniform_users(120, REGION, seed=47)
        manager = EpochManager(REGION, K, db)
        before = manager.active
        monkeypatch.setattr(CloakingPolicy, "min_group_size", lambda self: 1)
        report = manager.advance(random_moves(db, 0.05, REGION, seed=1))
        assert not report.promoted and report.reason == "k-anonymity"
        assert manager.active is before
        assert manager.events[-1].reason == "k-anonymity"

    def test_a_sub_k_adoption_raises_before_serving(self):
        db = uniform_users(40, REGION, seed=48)
        lonely = CloakingPolicy(
            {uid: REGION for uid in db.user_ids()[1:]}
            | {db.user_ids()[0]: Rect(*db.location_of(db.user_ids()[0]).as_tuple() * 2)},
            db,
        )
        with pytest.raises(AnonymityBreachError):
            EpochManager(REGION, K, policy=lonely)


# -- the trajectory index's ledger map ----------------------------------------------


def _classes_by_ledger_index(constraint, policy):
    index = constraint._indexed(policy)
    ledger = constraint.ledger
    by_group = {}
    for uid, cloak in policy.items():
        by_group.setdefault(int(index.group_of[ledger.index(uid)]), set()).add(cloak)
    return index, by_group


@pytest.mark.parametrize("replace", ["take", "adopt_state"])
def test_policy_index_ledger_map_is_rebuilt_when_the_intern_table_is(replace):
    db = uniform_users(60, REGION, seed=49)
    policy = PolicyAwareAnonymizer(REGION, K).fit(db).policy
    constraint = ContinuityConstraint(K)
    ledger = constraint.ledger
    first, by_group = _classes_by_ledger_index(constraint, policy)
    assert all(len(cloaks) == 1 for cloaks in by_group.values())
    assert constraint._indexed(policy) is first  # cached per table
    # Another ledger that interned the same ids in reverse order.
    other = TrajectoryLedger()
    other.intern(list(reversed(db.user_ids())))
    if replace == "take":
        ledger.take(other)
    else:
        ledger.adopt_state(other.to_state())
        # adopt_state keeps this ledger's own indices: the map may be
        # equal, but it is rebuilt.
    index, by_group = _classes_by_ledger_index(constraint, policy)
    assert index is not first and index.users is not first.users
    assert list(index.users) == [ledger.index(u) for u in db.user_ids()]
    assert all(len(cloaks) == 1 for cloaks in by_group.values())
    assert len(by_group) == len(policy.groups())


# -- fleet routing by cloak class ---------------------------------------------------


def _dict_routing(dispatcher):
    """The per-user dict algorithm the row routing replaced: group users
    by cloak box, visit boxes in sorted order, bounded-load spill."""
    groups = {}
    for uid, cloak in dispatcher._cloaks.items():
        groups.setdefault(cloak, []).append(uid)
    workers = sorted(dispatcher.ring.workers)
    total = sum(map(len, groups.values()))
    heaviest = max(map(len, groups.values()), default=0)
    cap = max(-(-total * 105 // (100 * len(workers))), heaviest)
    load = {w: 0 for w in workers}
    table = {}
    for cloak in sorted(groups):
        uids = groups[cloak]
        chosen = next(
            (
                w for w in dispatcher.ring.candidates(repr(cloak).encode("utf-8"))
                if load[w] + len(uids) <= cap
            ),
            None,
        )
        if chosen is None:
            chosen = min(workers, key=lambda w: (load[w], w))
        load[chosen] += len(uids)
        table.update(dict.fromkeys(uids, chosen))
    return table


@pytest.mark.parametrize("n_workers", [2, 3, 4])
def test_fleet_routing_equals_the_dict_algorithm_over_epochs(n_workers):
    db = uniform_users(300, REGION, seed=50 + n_workers)
    provider = LBSProvider(generate_pois(REGION, {"rest": 10}, seed=50))
    config = FleetConfig(n_workers=n_workers, mode="simulated")
    with FleetDispatcher(REGION, K, db, provider, config) as fleet:
        for epoch in range(4):
            if epoch:
                fleet.advance_epoch(
                    random_moves(fleet.db, 0.05, REGION, seed=60 + epoch)
                )
            expected = _dict_routing(fleet)
            assert {u: fleet.route(u) for u in fleet.db.user_ids()} == expected
            for index in range(n_workers):
                assert sorted(fleet._routing.users(index)) == sorted(
                    u for u, w in expected.items() if w == index
                )
