"""Tests for the POI store — queries cross-checked by brute force and
pinned, id for id and in order, by ``tests/data/poi_golden.json``."""

import json
import math
import os
import pickle

import numpy as np
import pytest

from repro import Point, Rect, ReproError, WorkloadError
from repro.core.requests import AnonymizedRequest
from repro.lbs import POI, LBSProvider, POIDatabase, generate_pois


@pytest.fixture
def region():
    return Rect(0, 0, 1000, 1000)


@pytest.fixture
def pois(region):
    return generate_pois(region, {"rest": 120, "groc": 60}, seed=111)


def brute_nearest(pois, point, category=None):
    best, best_d = None, float("inf")
    for poi in pois:
        if category is not None and poi.category != category:
            continue
        d = point.distance_to(poi.location)
        if d < best_d:
            best, best_d = poi, d
    return best


class TestConstruction:
    def test_counts_and_categories(self, pois):
        assert len(pois) == 180
        assert pois.categories() == ["groc", "rest"]
        assert len(pois.in_category("rest")) == 120

    def test_outside_poi_rejected(self, region):
        with pytest.raises(ReproError, match="outside"):
            POIDatabase(region, [POI("x", Point(-1, 0), "rest")])

    def test_grid_cells_validated(self, region):
        with pytest.raises(ReproError):
            POIDatabase(region, [], grid_cells=0)

    def test_generate_validation(self, region):
        with pytest.raises(WorkloadError):
            generate_pois(region, {})
        with pytest.raises(WorkloadError):
            generate_pois(region, {"rest": -1})


class TestRangeQuery:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, region, pois, seed):
        rng = np.random.default_rng(seed)
        x1, y1 = rng.uniform(0, 800, size=2)
        rect = Rect(x1, y1, x1 + rng.uniform(10, 200), y1 + rng.uniform(10, 200))
        got = {p.poi_id for p in pois.range_query(rect)}
        expected = {
            p.poi_id
            for cat in pois.categories()
            for p in pois.in_category(cat)
            if rect.contains(p.location)
        }
        assert got == expected

    def test_category_filter(self, region, pois):
        rect = Rect(0, 0, 1000, 1000)
        assert all(
            p.category == "groc" for p in pois.range_query(rect, "groc")
        )
        assert len(pois.range_query(rect, "groc")) == 60


class TestNearest:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force(self, pois, seed):
        rng = np.random.default_rng(100 + seed)
        point = Point(float(rng.uniform(0, 1000)), float(rng.uniform(0, 1000)))
        all_pois = [p for c in pois.categories() for p in pois.in_category(c)]
        got = pois.nearest(point)
        expected = brute_nearest(all_pois, point)
        assert point.distance_to(got.location) == pytest.approx(
            point.distance_to(expected.location)
        )

    def test_category_restricted(self, pois):
        point = Point(500, 500)
        got = pois.nearest(point, "groc")
        expected = brute_nearest(pois.in_category("groc"), point)
        assert got.category == "groc"
        assert point.distance_to(got.location) == pytest.approx(
            point.distance_to(expected.location)
        )

    def test_empty_category(self, pois):
        assert pois.nearest(Point(1, 1), "cinema") is None

    def test_empty_database(self, region):
        empty = POIDatabase(region, [])
        assert empty.nearest(Point(5, 5)) is None


class TestNNCandidates:
    @pytest.mark.parametrize("seed", range(6))
    def test_soundness(self, pois, seed):
        """The true NN of every sampled point in the cloak must be in the
        candidate set — the guarantee the client filter relies on."""
        rng = np.random.default_rng(200 + seed)
        x1, y1 = rng.uniform(0, 800, size=2)
        cloak = Rect(x1, y1, x1 + 150, y1 + 100)
        candidates = {p.poi_id for p in pois.nn_candidates(cloak, "rest")}
        rest = pois.in_category("rest")
        for q in cloak.sample_grid(5):
            assert brute_nearest(rest, q).poi_id in candidates

    def test_empty_when_no_pois(self, region):
        empty = POIDatabase(region, [])
        assert empty.nn_candidates(Rect(0, 0, 10, 10)) == []

    def test_candidates_shrink_with_cloak(self, pois):
        big = pois.nn_candidates(Rect(0, 0, 800, 800), "rest")
        small = pois.nn_candidates(Rect(400, 400, 420, 420), "rest")
        assert len(small) <= len(big)


# -- grid order, brute force -------------------------------------------------------


def grid_sorted(db, pois):
    """``pois`` in grid order: cell ``(cx, cy)`` ascending, then the
    given (insertion) order."""
    g, region = db.grid_cells, db.region

    def cell(poi):
        return (
            min(int((poi.location.x - region.x1) / (region.width / g)), g - 1),
            min(int((poi.location.y - region.y1) / (region.height / g)), g - 1),
        )

    return sorted(pois, key=cell)


def brute_range(db, pois, rect, category):
    return [
        p for p in grid_sorted(db, pois)
        if (category is None or p.category == category) and rect.contains(p.location)
    ]


def brute_candidates(db, pois, cloak, category):
    """The NN candidate set by its definition: every POI of the category
    within ``d₀ + diag`` (+1e-9) of the cloak's center and inside the
    bounding box of that disk clipped to the map."""
    members = [p for p in grid_sorted(db, pois) if category is None or p.category == category]
    if not members:
        return []
    center = cloak.center
    radius = min(center.distance_to(p.location) for p in members) + math.hypot(
        cloak.width, cloak.height
    )
    box = Rect(
        max(center.x - radius, db.region.x1),
        max(center.y - radius, db.region.y1),
        min(center.x + radius, db.region.x2),
        min(center.y + radius, db.region.y2),
    )
    return [
        p for p in members
        if box.contains(p.location) and center.distance_to(p.location) <= radius + 1e-9
    ]


def adversarial_case(seed):
    """A random POI set full of ties: lattice points (duplicates, cell
    borders), POIs on the cloak's edges and corners, and POIs exactly on
    and just around the candidate disk's radius and its bounding box."""
    rng = np.random.default_rng(seed)
    region = Rect(0, 0, 800, 800)
    # A 6:8 cloak on the lattice, so its diagonal 10t is exact.
    cx, cy = (int(v) for v in rng.integers(4, 12, size=2) * 50)
    t = int(rng.integers(1, 4)) * 5
    cloak = Rect(cx - 3 * t, cy - 4 * t, cx + 3 * t, cy + 4 * t)
    # Category "a": the anchor 5s from the center, POIs on the radius
    # 5s + 10t and one just past the disk's bounding box.
    s = int(rng.integers(1, 5)) * 10
    r = 5 * s + 10 * t
    on_disk = [(cx + 3 * s, cy + 4 * s), (cx - 4 * s, cy + 3 * s), (cx + r, cy), (cx, cy - r)]
    on_disk += [(cx - r, cy), (cx + r + 1e-10, cy), (cx + 0.6 * r, cy + 0.8 * r)]
    # Category "b": the cloak's edges and corners.
    on_cloak = [(cloak.x1, cloak.y1), (cloak.x2, cy), (cx, cloak.y2), (cloak.x2, cloak.y2)]
    # Any category, none nearer the center than the anchor.
    others = list(rng.integers(0, 17, size=(int(rng.integers(10, 60)), 2)) * 50)
    others += list(rng.uniform(0, 800, size=(int(rng.integers(0, 30)), 2)))
    spots = [(xy, "a") for xy in on_disk] + [(xy, "b") for xy in on_cloak] + [
        ((x, y), "abc"[int(rng.integers(0, 3))])
        for x, y in others
        if math.hypot(x - cx, y - cy) > 5 * s
    ]
    spots = [(xy, cat) for xy, cat in spots if region.contains(Point(*xy))]
    spots += [spots[int(i)] for i in rng.integers(0, len(spots), size=10)]  # duplicates
    pois = [
        POI(f"p{i}", Point(float(x), float(y)), cat) for i, ((x, y), cat) in enumerate(spots)
    ]
    db = POIDatabase(region, pois, grid_cells=int(rng.choice([1, 3, 8, 16, 64])))
    return db, pois, cloak


class TestAgainstBruteForce:
    """The vectorized queries equal their scalar definitions, list for
    list, on POI sets built to land on every boundary."""

    CATEGORIES = (None, "a", "b", "c", "zz")

    @pytest.mark.parametrize("seed", range(40))
    def test_candidates_and_range_in_grid_order(self, seed):
        db, pois, cloak = adversarial_case(seed)
        for category in self.CATEGORIES:
            assert db.nn_candidates(cloak, category) == brute_candidates(
                db, pois, cloak, category
            )
            assert db.range_query(cloak, category) == brute_range(db, pois, cloak, category)
            point = Rect(cloak.x1, cloak.y1, cloak.x1, cloak.y1)
            assert db.nn_candidates(point, category) == brute_candidates(
                db, pois, point, category
            )

    @pytest.mark.parametrize("seed", range(40))
    def test_nearest_is_at_the_minimum_distance(self, seed):
        db, pois, cloak = adversarial_case(seed)
        for category in self.CATEGORIES:
            members = [p for p in pois if category is None or p.category == category]
            for q in (cloak.center, Point(cloak.x1, cloak.y2), Point(0, 0)):
                got = db.nearest(q, category)
                if not members:
                    assert got is None
                    continue
                least = min(q.distance_to(p.location) for p in members)
                assert q.distance_to(got.location) == least
                # tie rule: the first such POI in grid order
                tied = [p for p in grid_sorted(db, members) if q.distance_to(p.location) == least]
                assert got == tied[0]

    @pytest.mark.parametrize("seed", range(5))
    def test_pickle_round_trip_answers_identically(self, seed):
        db, pois, cloak = adversarial_case(seed)
        restored = pickle.loads(pickle.dumps(db))
        assert len(restored) == len(db) and restored.categories() == db.categories()
        for category in self.CATEGORIES:
            assert restored.nn_candidates(cloak, category) == db.nn_candidates(cloak, category)
            assert restored.range_query(cloak, category) == db.range_query(cloak, category)
            assert restored.nearest(cloak.center, category) == db.nearest(cloak.center, category)

    def test_pickle_carries_only_the_pois(self):
        db = generate_pois(Rect(0, 0, 1000, 1000), {f"c{i}": 40 for i in range(8)}, seed=3)
        pois = [p for c in db.categories() for p in db.in_category(c)]
        assert len(pickle.dumps(db)) <= len(pickle.dumps(pois)) + 512


# -- golden candidate sets -------------------------------------------------------

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "poi_golden.json")


def golden_databases():
    """The seeded POI stores behind ``tests/data/poi_golden.json``."""
    region = Rect(0, 0, 1000, 1000)
    fine = generate_pois(region, {"rest": 120, "groc": 60, "bar": 25, "cinema": 0}, seed=19)
    rng = np.random.default_rng(23)
    cats = ("rest", "groc", "bar")
    lattice = POIDatabase(
        region,
        [
            POI(f"l{i}", Point(float(x), float(y)), cats[i % 3])
            for i, (x, y) in enumerate(rng.integers(0, 21, size=(150, 2)) * 50)
        ],
        grid_cells=8,
    )
    coarse = POIDatabase(
        region,
        [
            POI(f"q{i}", Point(float(x), float(y)), cats[(i * 7) % 3])
            for i, (x, y) in enumerate(rng.uniform(0, 1000, size=(90, 2)))
        ],
        grid_cells=3,
    )
    return [("fine", fine), ("lattice", lattice), ("coarse", coarse)]


def golden_cloaks():
    """Seeded cloaks, edge-touching ones, a zero-area one and the map."""
    rng = np.random.default_rng(29)
    cloaks = [
        Rect(0, 0, 1000, 1000),
        Rect(500, 500, 500, 500),
        Rect(0, 0, 40, 60),
        Rect(960, 300, 1000, 380),
        Rect(250, 950, 300, 1000),
        Rect(0, 990, 10, 1000),
        Rect(400, 0, 500, 0),
        Rect(150, 150, 250, 250),
    ]
    for x, y, w, h in rng.uniform([0, 0, 0, 0], [900, 900, 100, 100], size=(16, 4)):
        cloaks.append(Rect(float(x), float(y), float(x + w), float(y + h)))
    return cloaks


def golden_records():
    """The ``poi_id`` tuples of ``nn_candidates`` and of
    ``LBSProvider.serve`` (nearest and range) over the golden inputs."""
    records = []
    for name, db in golden_databases():
        provider = LBSProvider(db)
        for rid, cloak in enumerate(golden_cloaks()):
            box = list(cloak.as_tuple())
            for category in (None, "rest", "groc", "bar", "cinema"):
                ids = [p.poi_id for p in db.nn_candidates(cloak, category)]
                records.append({"db": name, "cloak": box, "poi": category, "ids": ids})
            for category in ("rest", "groc", "bar", "cinema"):
                for margin in (None, "0", "35.5"):
                    payload = (("poi", category),)
                    if margin is not None:
                        payload += (("range", margin),)
                    answer = provider.serve(AnonymizedRequest(rid, cloak, payload))
                    records.append({
                        "db": name, "cloak": box, "serve": category, "range": margin,
                        "ids": [p.poi_id for p in answer.candidates],
                    })
    return records


def write_golden(path=GOLDEN):
    """Rewrite the fixture (one record per line) from the code on the
    import path; only on purpose, from a checkout whose answers are
    the reference."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(r) for r in golden_records()) + "\n]\n")


def test_golden_candidate_sets():
    with open(GOLDEN, encoding="utf-8") as fh:
        expected = json.load(fh)
    got = golden_records()
    assert len(got) == len(expected)
    for record, want in zip(got, expected):
        assert record == want
