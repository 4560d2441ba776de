"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro import LocationDatabase, Rect
from repro.cli import enclosing_region, main
from repro.core.serialization import (
    load_policy,
    read_locations_csv,
    save_policy,
    write_locations_csv,
)
from repro.baselines import policy_unaware_binary
from repro.data import uniform_users


@pytest.fixture
def csv_path(tmp_path):
    region = Rect(0, 0, 1024, 1024)
    db = uniform_users(400, region, seed=191)
    path = tmp_path / "locs.csv"
    write_locations_csv(db, str(path))
    return path


class TestEnclosingRegion:
    def test_power_of_two_square(self):
        import math

        db = LocationDatabase([("a", 3, 7), ("b", 900, 400)])
        region = enclosing_region(db)
        assert region.width == region.height
        assert math.log2(region.width).is_integer()
        for __, p in db.items():
            assert region.contains(p)

    def test_margin_keeps_boundary_points_interior(self):
        db = LocationDatabase([("a", 0, 0)])
        region = enclosing_region(db, margin=1.0)
        assert region.x1 < 0 < region.x2


class TestGenerate:
    def test_generate_writes_csv(self, tmp_path):
        out = tmp_path / "gen.csv"
        code = main(
            ["generate", "--users", "500", "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        db = read_locations_csv(str(out))
        assert len(db) == 500

    def test_generate_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["generate", "--users", "200", "--seed", "9", "--out", str(a)])
        main(["generate", "--users", "200", "--seed", "9", "--out", str(b)])
        assert a.read_text() == b.read_text()


class TestAnonymize:
    @pytest.mark.parametrize("orientation", ["vertical", "horizontal", "best"])
    def test_anonymize_produces_safe_policy(self, csv_path, tmp_path, orientation):
        out = tmp_path / "policy.json"
        code = main(
            [
                "anonymize",
                "--locations", str(csv_path),
                "--k", "10",
                "--out", str(out),
                "--orientation", orientation,
            ]
        )
        assert code == 0
        policy = load_policy(str(out))
        assert policy.min_group_size() >= 10

    def test_best_never_worse_than_vertical(self, csv_path, tmp_path):
        v, b = tmp_path / "v.json", tmp_path / "b.json"
        main(["anonymize", "--locations", str(csv_path), "--k", "10",
              "--out", str(v), "--orientation", "vertical"])
        main(["anonymize", "--locations", str(csv_path), "--k", "10",
              "--out", str(b), "--orientation", "best"])
        assert load_policy(str(b)).cost() <= load_policy(str(v)).cost() + 1e-6

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        code = main(
            ["anonymize", "--locations", str(tmp_path / "nope.csv"),
             "--k", "5", "--out", str(tmp_path / "p.json")]
        )
        assert code != 0 or capsys.readouterr().err


class TestAuditAndCloak:
    def test_audit_safe_policy_exits_zero(self, csv_path, tmp_path, capsys):
        out = tmp_path / "policy.json"
        main(["anonymize", "--locations", str(csv_path), "--k", "10",
              "--out", str(out)])
        code = main(["audit", "--policy", str(out), "--k", "10"])
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_audit_breached_policy_exits_one(self, tmp_path, capsys):
        region = Rect(0, 0, 4, 4)
        db = LocationDatabase(
            [("Alice", 1, 1), ("Bob", 1, 2), ("Carol", 1, 4),
             ("Sam", 3, 1), ("Tom", 4, 4)]
        )
        policy = policy_unaware_binary(region, db, 2, max_depth=4)
        path = tmp_path / "breached.json"
        save_policy(policy, str(path))
        code = main(["audit", "--policy", str(path), "--k", "2"])
        assert code == 1
        assert "BREACH" in capsys.readouterr().out

    def test_cloak_lookup(self, csv_path, tmp_path, capsys):
        out = tmp_path / "policy.json"
        main(["anonymize", "--locations", str(csv_path), "--k", "10",
              "--out", str(out)])
        db = read_locations_csv(str(csv_path))
        uid = db.user_ids()[0]
        code = main(["cloak", "--policy", str(out), "--user", uid])
        assert code == 0
        assert ".." in capsys.readouterr().out  # a rect rendering

    def test_cloak_unknown_user(self, csv_path, tmp_path, capsys):
        out = tmp_path / "policy.json"
        main(["anonymize", "--locations", str(csv_path), "--k", "10",
              "--out", str(out)])
        code = main(["cloak", "--policy", str(out), "--user", "ghost"])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestExperimentCommand:
    def test_table1_runs(self, capsys):
        code = main(["experiment", "table1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Carol" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])


class TestSLOReportCommand:
    def test_quick_report_writes_artifacts(self, tmp_path, capsys):
        code = main(
            ["slo-report", "--scale", "quick",
             "--results-dir", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "durability" in out
        assert "capacity sweep" in out
        assert "cross-validation" in out
        report = json.loads((tmp_path / "slo.json").read_text())
        assert report["durability"]["bit_identical"] is True
        assert report["durability"]["quorum_loss_fails_closed"] is True
        invariant = report["controller_invariant"]
        assert invariant["adaptive_subset_of_static"] is True
        assert invariant["points_checked"] == 3
        assert len(report["cross_validation"]) == 2
        assert (tmp_path / "slo.txt").read_text().startswith("== Closed-loop")

    def test_unknown_scale_rejected(self):
        with pytest.raises(SystemExit):
            main(["slo-report", "--scale", "enormous"])


class TestTrajectoryCommand:
    def test_quick_report_writes_artifacts(self, tmp_path, capsys):
        code = main(
            ["trajectory", "--scale", "quick",
             "--results-dir", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "served scenario" in out
        assert "erosion curve" in out
        report = json.loads((tmp_path / "trajectory.json").read_text())
        assert report["all_gates_pass"] is True
        gates = report["gates"]
        assert gates["defended_scenario_holds_all_users"] is True
        assert gates["undefended_scenario_erodes_below_k"] is True
        defended = report["scenario"]["defended"]
        assert defended["holding"] == defended["audited"]
        assert report["scenario"]["undefended"]["min_surviving"] < report["k"]
        txt = (tmp_path / "trajectory.txt").read_text()
        assert txt.startswith("== Trajectory report")

    def test_unknown_scale_rejected(self):
        with pytest.raises(SystemExit):
            main(["trajectory", "--scale", "enormous"])


class TestFleetCommand:
    def test_simulated_fleet_prints_per_worker_stats(self, capsys):
        code = main(
            ["fleet", "--users", "80", "--requests", "60",
             "--workers", "3", "--k", "8", "--rtt", "0.0",
             "--mode", "simulated"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fleet: 3 worker(s), mode=simulated" in out
        assert "worker 0:" in out and "worker 2:" in out
        assert "60 served, 0 failed" in out

    def test_process_fleet_exits_zero(self, capsys):
        code = main(
            ["fleet", "--users", "60", "--requests", "40",
             "--workers", "2", "--k", "8", "--rtt", "0.001"]
        )
        assert code == 0
        assert "respawns 0" in capsys.readouterr().out

    def test_unknown_mode_rejected(self):
        with pytest.raises(SystemExit):
            main(["fleet", "--mode", "threads"])
