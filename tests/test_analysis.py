"""Tests for the ``repro.analysis`` static-analysis gate.

Each rule family gets fixture snippets in a throwaway tree: a true
positive that must fire, a laundered/clean negative that must not, and
the suppression/baseline paths that keep the gate adoptable.  The final
class is the self-check the CI ``lint`` job runs: the live ``src/``
tree must be clean modulo the committed baseline.
"""

import json
import pathlib
import textwrap

import pytest

from repro.analysis import Analyzer, Baseline
from repro.analysis.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
COMMITTED_BASELINE = ROOT / "analysis-baseline.json"


def write_tree(root, files):
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return root


def scan(tmp_path, files, baseline=None):
    write_tree(tmp_path, files)
    return Analyzer().run([tmp_path], baseline=baseline)


def rules_fired(report):
    return sorted({f.rule for f in report.new_findings})


# ---------------------------------------------------------------------------
# PA: privacy taint
# ---------------------------------------------------------------------------


class TestPrivacyTaint:
    def test_raw_location_into_sink_fires(self, tmp_path):
        report = scan(
            tmp_path,
            {
                "lbs/leaky.py": """
                class CSP:
                    def handle(self, mpc, provider, uid):
                        location = mpc.locate(uid)
                        return provider.serve(location)
                """
            },
        )
        assert "PA001" in rules_fired(report)
        (finding,) = [f for f in report.new_findings if f.rule == "PA001"]
        assert finding.symbol == "CSP.handle"
        assert report.exit_code("new") == 1

    def test_laundered_flow_is_clean(self, tmp_path):
        report = scan(
            tmp_path,
            {
                "lbs/clean.py": """
                class CSP:
                    def handle(self, mpc, policy, provider, uid):
                        location = mpc.locate(uid)
                        cloak = policy.cloak_for(uid)
                        anonymized = policy.anonymize(location)
                        provider.serve(cloak)
                        return provider.serve(anonymized)
                """
            },
        )
        assert rules_fired(report) == []
        assert report.exit_code("any") == 0

    def test_taint_survives_reassignment_and_fstring(self, tmp_path):
        report = scan(
            tmp_path,
            {
                "lbs/hop.py": """
                def relay(mpc, provider, uid):
                    raw = mpc.location_of(uid)
                    boxed = (uid, raw)
                    provider.serve(boxed)
                    print(f"at {raw}")
                """
            },
        )
        assert rules_fired(report) == ["PA001", "PA002"]

    def test_wire_constructor_with_raw_location_fires(self, tmp_path):
        report = scan(
            tmp_path,
            {
                "serving/pack.py": """
                def pack(rid, location, payload):
                    return AnonymizedRequest(rid, location, payload)
                """
            },
        )
        assert "PA003" in rules_fired(report)

    def test_inline_taint_tag_creates_a_source(self, tmp_path):
        report = scan(
            tmp_path,
            {
                "lbs/tagged.py": """
                class Store:
                    def __init__(self, rows):
                        self.coords = dict(rows)  # taint: location

                    def ship(self, provider):
                        return provider.serve(self.coords)
                """
            },
        )
        assert "PA001" in rules_fired(report)


# ---------------------------------------------------------------------------
# FC: fail-closed exception discipline
# ---------------------------------------------------------------------------


class TestFailClosed:
    def test_swallowed_handler_in_scope_fires(self, tmp_path):
        report = scan(
            tmp_path,
            {
                "lbs/handlers.py": """
                def lookup(db, uid):
                    try:
                        return db.get(uid)
                    except KeyError:
                        return None
                """
            },
        )
        assert rules_fired(report) == ["FC002"]

    def test_bare_except_fires_even_when_reraising(self, tmp_path):
        report = scan(
            tmp_path,
            {
                "serving/bare.py": """
                def pump(step):
                    try:
                        step()
                    except:
                        raise
                """
            },
        )
        assert rules_fired(report) == ["FC001"]

    def test_reraise_and_degrade_are_clean(self, tmp_path):
        report = scan(
            tmp_path,
            {
                "lbs/ladder.py": """
                def serve_safely(step, events):
                    try:
                        return step()
                    except ValueError:
                        events.append(DegradationEvent("stale", "fault"))
                    except OSError as exc:
                        raise ServiceUnavailableError("fail closed") from exc
                """
            },
        )
        assert rules_fired(report) == []

    def test_cancellation_swallow_is_exempt(self, tmp_path):
        report = scan(
            tmp_path,
            {
                "serving/cancel.py": """
                import asyncio

                async def reap(task):
                    try:
                        await task
                    except asyncio.CancelledError:
                        pass
                """
            },
        )
        assert rules_fired(report) == []

    def test_out_of_scope_swallow_is_ignored(self, tmp_path):
        report = scan(
            tmp_path,
            {
                "experiments/plots.py": """
                def best_effort(draw):
                    try:
                        draw()
                    except OSError:
                        pass
                """
            },
        )
        assert rules_fired(report) == []


# ---------------------------------------------------------------------------
# AS: async-safety
# ---------------------------------------------------------------------------


class TestAsyncSafety:
    def test_blocking_sleep_in_async_def_fires(self, tmp_path):
        report = scan(
            tmp_path,
            {
                "serving/gateway.py": """
                import time

                async def pump(queue):
                    time.sleep(0.1)
                    return await queue.get()
                """
            },
        )
        assert rules_fired(report) == ["AS001"]

    def test_sync_retry_and_result_block_the_loop(self, tmp_path):
        report = scan(
            tmp_path,
            {
                "serving/mixed.py": """
                from repro.robustness import retry_call

                async def call(fut, op):
                    retry_call(op)
                    return fut.result()
                """
            },
        )
        assert [f.rule for f in report.new_findings] == ["AS001", "AS001"]

    def test_await_in_loop_under_lock_fires(self, tmp_path):
        report = scan(
            tmp_path,
            {
                "serving/hotlock.py": """
                async def drain(lock, items):
                    async with lock:
                        for item in items:
                            await item.flush()
                """
            },
        )
        assert rules_fired(report) == ["AS002"]

    def test_await_under_lock_outside_loop_is_clean(self, tmp_path):
        report = scan(
            tmp_path,
            {
                "serving/oklock.py": """
                async def hand_off(lock, conn):
                    async with lock:
                        await conn.send()
                    for _ in range(3):
                        await conn.drain()
                """
            },
        )
        assert rules_fired(report) == []

    def test_sync_code_out_of_scope_is_ignored(self, tmp_path):
        report = scan(
            tmp_path,
            {
                "experiments/warmup.py": """
                import time

                async def lazy():
                    time.sleep(1.0)
                """
            },
        )
        assert rules_fired(report) == []


# ---------------------------------------------------------------------------
# DT: determinism in the DP kernels
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_unseeded_rng_in_kernel_fires(self, tmp_path):
        report = scan(
            tmp_path,
            {
                "core/bulk_dp.py": """
                import random

                import numpy as np

                def jitter(xs):
                    rng = np.random.default_rng()
                    return random.choice(xs)
                """
            },
        )
        assert [f.rule for f in report.new_findings] == ["DT001", "DT001"]

    def test_seeded_rng_is_clean(self, tmp_path):
        report = scan(
            tmp_path,
            {
                "core/flat_dp.py": """
                import numpy as np

                def shuffle(xs, seed):
                    rng = np.random.default_rng(seed)
                    rng.shuffle(xs)
                    return xs
                """
            },
        )
        assert rules_fired(report) == []

    def test_wall_clock_in_kernel_fires(self, tmp_path):
        report = scan(
            tmp_path,
            {
                "core/binary_dp.py": """
                import time

                def stamp(rows):
                    return [(time.time(), r) for r in rows]
                """
            },
        )
        assert rules_fired(report) == ["DT002"]

    def test_set_iteration_in_kernel_fires(self, tmp_path):
        report = scan(
            tmp_path,
            {
                "trees/flat.py": """
                def order(users):
                    out = []
                    for uid in set(users):
                        out.append(uid)
                    return out
                """
            },
        )
        assert rules_fired(report) == ["DT003"]

    def test_same_code_outside_kernels_is_ignored(self, tmp_path):
        report = scan(
            tmp_path,
            {
                "experiments/sampling.py": """
                import time

                def sample(users):
                    return (time.time(), set(users))
                """
            },
        )
        assert rules_fired(report) == []


# ---------------------------------------------------------------------------
# RS: resource safety
# ---------------------------------------------------------------------------


class TestResourceSafety:
    def test_unreleased_shared_memory_fires(self, tmp_path):
        report = scan(
            tmp_path,
            {
                "trees/leaky.py": """
                from multiprocessing import shared_memory

                def publish(size):
                    shm = shared_memory.SharedMemory(create=True, size=size)
                    return shm.name
                """
            },
        )
        assert "RS001" in rules_fired(report)
        (finding,) = [f for f in report.new_findings if f.rule == "RS001"]
        assert finding.symbol == "publish"

    def test_with_block_is_clean(self, tmp_path):
        report = scan(
            tmp_path,
            {
                "trees/ctx.py": """
                from multiprocessing import shared_memory

                def peek(name):
                    with shared_memory.SharedMemory(name=name) as shm:
                        return bytes(shm.buf[:4])
                """
            },
        )
        assert rules_fired(report) == []

    def test_try_handler_release_is_clean(self, tmp_path):
        report = scan(
            tmp_path,
            {
                "trees/guarded.py": """
                from multiprocessing import shared_memory

                def publish(blocks, size):
                    shm = shared_memory.SharedMemory(create=True, size=size)
                    try:
                        for offset, data in blocks:
                            shm.buf[offset : offset + len(data)] = data
                    except BaseException:
                        shm.close()
                        shm.unlink()
                        raise
                    return shm
                """
            },
        )
        assert rules_fired(report) == []

    def test_owner_class_is_clean(self, tmp_path):
        report = scan(
            tmp_path,
            {
                "trees/owner.py": """
                from multiprocessing import shared_memory

                class Segment:
                    @classmethod
                    def attach(cls, name):
                        shm = shared_memory.SharedMemory(name=name)
                        return cls(shm)

                    def __init__(self, shm):
                        self._shm = shm

                    def close(self):
                        self._shm.close()

                    def unlink(self):
                        self._shm.unlink()
                """
            },
        )
        assert rules_fired(report) == []

    def test_out_of_scope_creation_is_ignored(self, tmp_path):
        report = scan(
            tmp_path,
            {
                "experiments/scratch.py": """
                from multiprocessing import shared_memory

                def grab(size):
                    return shared_memory.SharedMemory(create=True, size=size)
                """
            },
        )
        assert rules_fired(report) == []


# ---------------------------------------------------------------------------
# EP: epoch integrity of the flat-tree arrays
# ---------------------------------------------------------------------------


class TestEpochIntegrity:
    def test_array_store_outside_owners_fires(self, tmp_path):
        report = scan(
            tmp_path,
            {
                "serving/patch.py": """
                def tweak(flat, idx):
                    flat.count[idx] = 0
                    flat.area[idx] += 1.0
                    del flat.leaf_rows[idx]
                """
            },
        )
        assert [f.rule for f in report.new_findings] == [
            "EP001", "EP001", "EP001",
        ]

    def test_owning_layers_may_mutate(self, tmp_path):
        report = scan(
            tmp_path,
            {
                "trees/compile.py": """
                def fill(flat, idx, n):
                    flat.count[idx] = n
                """,
                "streaming/repair.py": """
                def patch(flat, idx, n):
                    flat.count[idx] = n
                """,
            },
        )
        assert rules_fired(report) == []

    def test_reads_and_other_fields_are_clean(self, tmp_path):
        report = scan(
            tmp_path,
            {
                "serving/read.py": """
                def peek(flat, stats, idx):
                    total = flat.count[idx] + flat.area[idx]
                    stats.hits[idx] = total  # not a flat-tree field
                    return total
                """
            },
        )
        assert rules_fired(report) == []


# ---------------------------------------------------------------------------
# TJ: trajectory-ledger ownership
# ---------------------------------------------------------------------------


class TestTrajectoryLedgerOwnership:
    def test_ledger_mutation_outside_owner_fires(self, tmp_path):
        report = scan(
            tmp_path,
            {
                "serving/rewrite.py": """
                def forget(ledger, uid, entry):
                    ledger._traj_surviving[uid] = None
                    ledger._traj_index.clear()
                    ledger._traj_serial[uid].fill(0)
                    del ledger._traj_surviving[uid]
                """
            },
        )
        assert [f.rule for f in report.new_findings] == [
            "TJ001", "TJ001", "TJ001", "TJ001",
        ]

    def test_rebind_fires(self, tmp_path):
        report = scan(
            tmp_path,
            {
                "lbs/reset.py": """
                def reset(ledger):
                    ledger._traj_surviving = {}
                """
            },
        )
        assert rules_fired(report) == ["TJ001"]

    def test_owning_package_may_mutate(self, tmp_path):
        report = scan(
            tmp_path,
            {
                "trajectory/ledger.py": """
                class Ledger:
                    def record(self, uid, entry, surviving):
                        self._traj_surviving[uid] = surviving
                        self._traj_serial[uid, 0] = entry
                """
            },
        )
        assert rules_fired(report) == []

    def test_reads_and_snapshots_are_clean(self, tmp_path):
        report = scan(
            tmp_path,
            {
                "serving/consume.py": """
                def shard(ledger, uids):
                    alive = {u: ledger._traj_surviving.get(u) for u in uids}
                    state = ledger.subset_state(uids)
                    other = ledger._traj_count.copy()
                    return alive, state, other
                """
            },
        )
        assert rules_fired(report) == []


# ---------------------------------------------------------------------------
# Suppressions, baselines, CLI
# ---------------------------------------------------------------------------

SWALLOW = {
    "lbs/quiet.py": """
    def lookup(db, uid):
        try:
            return db.get(uid)
        # Miss means "no override"; the caller re-raises.  # analysis: ok[FC002]
        except KeyError:
            return None
    """
}


class TestSuppressionAndBaseline:
    def test_inline_suppression_counts_not_fires(self, tmp_path):
        report = scan(tmp_path, SWALLOW)
        assert rules_fired(report) == []
        assert report.suppressed == 1

    def test_baseline_grandfathers_old_findings(self, tmp_path):
        report = scan(
            tmp_path,
            {
                "lbs/old.py": """
                def lookup(db, uid):
                    try:
                        return db.get(uid)
                    except KeyError:
                        return None
                """
            },
        )
        assert report.exit_code("new") == 1
        baseline = Baseline.from_findings(report.findings)

        again = Analyzer().run([tmp_path], baseline=baseline)
        assert again.new_findings == []
        assert len(again.baselined_findings) == 1
        assert again.exit_code("new") == 0
        assert again.exit_code("any") == 1  # still visible, just not fatal

    def test_baseline_is_line_number_independent(self, tmp_path):
        report = scan(
            tmp_path,
            {
                "lbs/drift.py": """
                def lookup(db, uid):
                    try:
                        return db.get(uid)
                    except KeyError:
                        return None
                """
            },
        )
        baseline = Baseline.from_findings(report.findings)
        # Unrelated edit above the finding: the fingerprint must hold.
        target = tmp_path / "lbs" / "drift.py"
        target.write_text(
            '"""Docstring pushed everything down two lines."""\n\n'
            + target.read_text(encoding="utf-8"),
            encoding="utf-8",
        )
        again = Analyzer().run([tmp_path], baseline=baseline)
        assert again.findings and again.new_findings == []


class TestCli:
    def _violation_tree(self, tmp_path):
        return write_tree(
            tmp_path,
            {
                "lbs/leak.py": """
                def relay(mpc, provider, uid):
                    return provider.serve(mpc.locate(uid))
                """
            },
        )

    def test_exit_one_on_violation_zero_when_clean(self, tmp_path, capsys):
        tree = self._violation_tree(tmp_path)
        assert main([str(tree)]) == 1
        clean = write_tree(tmp_path / "ok", {"lbs/fine.py": "X = 1\n"})
        assert main([str(clean)]) == 0
        capsys.readouterr()

    def test_json_report_schema(self, tmp_path, capsys):
        tree = self._violation_tree(tmp_path)
        assert main([str(tree), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert set(payload["counts"]) == {
            "total", "new", "baselined", "suppressed", "files",
        }
        (finding,) = payload["findings"]
        for key in ("rule", "path", "line", "col", "message",
                    "symbol", "snippet", "fingerprint", "baselined"):
            assert key in finding
        assert finding["rule"] == "PA001"
        assert not finding["baselined"]

    def test_write_baseline_roundtrip(self, tmp_path, capsys):
        tree = self._violation_tree(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert main(
            [str(tree), "--baseline", str(baseline), "--write-baseline"]
        ) == 0
        assert main([str(tree), "--baseline", str(baseline)]) == 0
        assert main(
            [str(tree), "--baseline", str(baseline), "--fail-on", "any"]
        ) == 1
        capsys.readouterr()

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("PA001", "FC001", "AS001", "DT001"):
            assert rule_id in out


# ---------------------------------------------------------------------------
# Self-check: the live tree stays clean
# ---------------------------------------------------------------------------


class TestLiveTree:
    def test_src_is_clean_modulo_committed_baseline(self):
        baseline = (
            Baseline.load(COMMITTED_BASELINE)
            if COMMITTED_BASELINE.exists()
            else None
        )
        report = Analyzer().run([SRC], baseline=baseline)
        assert [f.render() for f in report.new_findings] == []
        assert report.files_scanned > 50

    def test_committed_baseline_is_empty(self):
        # The gate was adopted with every true positive fixed, so the
        # baseline must not silently regrow; grandfathering a finding
        # is a reviewed decision, not a default.
        assert len(Baseline.load(COMMITTED_BASELINE)) == 0
