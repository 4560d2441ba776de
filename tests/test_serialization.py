"""Tests for policy / location-database persistence."""

import hashlib
import io
import json

import pytest

from repro import LocationDatabase, PolicyError, Rect, ReproError
from repro.core.binary_dp import solve
from repro.core.geometry import Circle, Point
from repro.core.policy import CloakingPolicy
from repro.core.serialization import (
    atomic_write_bytes,
    atomic_write_json,
    canonical_dumps,
    checksum_of,
    load_policy,
    policy_from_dict,
    policy_to_dict,
    read_locations_csv,
    save_policy,
    write_locations_csv,
)
from repro.data import uniform_users
from repro.trees import BinaryTree


@pytest.fixture
def region():
    return Rect(0, 0, 512, 512)


@pytest.fixture
def policy(region):
    db = uniform_users(80, region, seed=181)
    return solve(BinaryTree.build(region, db, 8), 8).policy()


class TestPolicyRoundTrip:
    def test_dict_round_trip(self, policy):
        rebuilt = policy_from_dict(policy_to_dict(policy))
        assert rebuilt.name == policy.name
        assert len(rebuilt) == len(policy)
        for uid, region in policy.items():
            assert rebuilt.cloak_for(uid) == region
            assert rebuilt.db.location_of(uid) == policy.db.location_of(uid)

    def test_file_round_trip(self, policy, tmp_path):
        path = tmp_path / "policy.json"
        save_policy(policy, str(path))
        rebuilt = load_policy(str(path))
        assert rebuilt.cost() == pytest.approx(policy.cost())
        assert rebuilt.min_group_size() == policy.min_group_size()

    def test_circle_cloaks_round_trip(self):
        db = LocationDatabase([("a", 1, 1), ("b", 2, 2)])
        circle = Circle(Point(0, 0), 5)
        policy = CloakingPolicy({"a": circle, "b": circle}, db)
        rebuilt = policy_from_dict(policy_to_dict(policy))
        assert rebuilt.cloak_for("a") == circle

    def test_format_validated(self):
        with pytest.raises(ReproError, match="format"):
            policy_from_dict({"format": "something-else"})

    def test_version_validated(self, policy):
        data = policy_to_dict(policy)
        data["version"] = 99
        with pytest.raises(ReproError, match="version"):
            policy_from_dict(data)

    def test_tampered_file_rejected_by_masking_check(self, policy, tmp_path):
        """A corrupted cloak that no longer covers its user must not
        load — the masking invariant re-validates on load."""
        data = policy_to_dict(policy)
        data["users"][0]["cloak"] = {
            "type": "rect", "x1": 1000, "y1": 1000, "x2": 1001, "y2": 1001,
        }
        with pytest.raises(PolicyError, match="not masking"):
            policy_from_dict(data)

    def test_unknown_cloak_type(self, policy):
        data = policy_to_dict(policy)
        data["users"][0]["cloak"] = {"type": "hexagon"}
        with pytest.raises(ReproError, match="unknown cloak type"):
            policy_from_dict(data)

    def test_json_is_stable(self, policy, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_policy(policy, str(a))
        save_policy(policy, str(b))
        assert a.read_text() == b.read_text()


class TestCrashConsistentPrimitives:
    def test_canonical_dumps_is_order_insensitive(self):
        assert canonical_dumps({"b": 1, "a": [2, 3]}) == canonical_dumps(
            {"a": [2, 3], "b": 1}
        )
        assert canonical_dumps({"a": 1}) == '{"a":1}'

    def test_checksum_agrees_across_processes_logically(self):
        doc = {"serial": 3, "users": ["a", "b"]}
        assert checksum_of(doc) == checksum_of(dict(reversed(doc.items())))
        assert checksum_of(doc) != checksum_of({"serial": 4, "users": ["a", "b"]})

    def test_atomic_write_bytes_replaces_whole_file(self, tmp_path):
        path = tmp_path / "blob.bin"
        atomic_write_bytes(str(path), b"first version")
        atomic_write_bytes(str(path), b"second")
        assert path.read_bytes() == b"second"
        # No temp-file droppings survive the rename.
        assert [p.name for p in tmp_path.iterdir()] == ["blob.bin"]

    def test_atomic_write_json_returns_content_checksum(self, tmp_path):
        path = tmp_path / "doc.json"
        doc = {"k": 5, "region": [0, 0, 512, 512]}
        digest = atomic_write_json(str(path), doc)
        assert digest == checksum_of(doc)
        assert json.loads(path.read_text()) == doc
        raw = path.read_bytes()
        assert hashlib.blake2b(raw, digest_size=16).hexdigest() == checksum_of(doc)


class TestLocationCsv:
    def test_round_trip(self, region, tmp_path):
        db = uniform_users(30, region, seed=182)
        path = tmp_path / "locs.csv"
        write_locations_csv(db, str(path))
        rebuilt = read_locations_csv(str(path))
        assert rebuilt.user_ids() == db.user_ids()
        for uid in db.user_ids():
            assert rebuilt.location_of(uid) == db.location_of(uid)

    def test_stream_round_trip(self, region):
        db = uniform_users(10, region, seed=183)
        buffer = io.StringIO()
        write_locations_csv(db, buffer)
        buffer.seek(0)
        rebuilt = read_locations_csv(buffer)
        assert len(rebuilt) == 10

    def test_header_required(self):
        with pytest.raises(ReproError, match="header"):
            read_locations_csv(io.StringIO("a,1,2\n"))

    def test_malformed_row(self):
        source = io.StringIO("userid,locx,locy\nu1,1\n")
        with pytest.raises(ReproError, match="malformed"):
            read_locations_csv(source)

    def test_non_numeric_coordinate(self):
        source = io.StringIO("userid,locx,locy\nu1,one,2\n")
        with pytest.raises(ReproError, match="non-numeric"):
            read_locations_csv(source)

    def test_blank_lines_skipped(self):
        source = io.StringIO("userid,locx,locy\nu1,1,2\n\nu2,3,4\n")
        assert len(read_locations_csv(source)) == 2
