"""The trajectory ledger's memoized state rows agree with a cache-free
rebuild under any interleaving of writes, reads and state hand-offs."""

import copy
import pathlib
import random

import pytest

from repro import Rect
from repro.analysis import Analyzer
from repro.analysis.rules.concurrency import ConcurrencyRule
from repro.analysis.rules.trajectory import TrajectoryLedgerRule
from repro.core.serialization import canonical_dumps
from repro.trajectory.ledger import TrajectoryLedger

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
USERS = [f"u{i}" for i in range(12)]


def reference_state(ledger, user_ids=None):
    """``to_state`` rebuilt from the public queries, with no memo."""
    wanted = set(ledger.users() if user_ids is None else user_ids)
    users = {}
    for uid in ledger.users():
        if uid not in wanted:
            continue
        users[uid] = {
            "surviving": sorted(ledger.surviving(uid)),
            "entries": [
                [
                    entry.serial,
                    [entry.cloak.x1, entry.cloak.y1, entry.cloak.x2,
                     entry.cloak.y2],
                    entry.candidates,
                    1 if entry.widened else 0,
                ]
                for entry in ledger.entries(uid)
            ],
        }
    return {
        "version": 1,
        "window": ledger.window,
        "recorded": ledger.recorded,
        "users": users,
    }


def same(a, b):
    # Canonical JSON tells ``1`` from ``True`` and ``1`` from ``1.0``.
    return canonical_dumps(a) == canonical_dumps(b)


def random_record(ledger, rng, serial):
    x, y = rng.uniform(0, 900), rng.uniform(0, 900)
    ledger.record(
        rng.choice(USERS),
        Rect(x, y, x + rng.uniform(1, 100), y + rng.uniform(1, 100)),
        rng.sample(USERS, rng.randint(1, len(USERS))),
        serial=serial,
        widened=rng.random() < 0.3,
    )


@pytest.mark.parametrize("seed", range(6))
def test_memoized_rows_match_a_cache_free_rebuild(seed):
    rng = random.Random(seed)
    ledger = TrajectoryLedger(window=rng.choice([1, 2, 4]))
    taken = []  # (state as returned, deep copy at the time)
    for step in range(300):
        op = rng.choice(
            ["record"] * 4 + ["to_state", "subset", "adopt", "from_state"]
        )
        if op == "record":
            random_record(ledger, rng, serial=step)
        elif op == "to_state":
            state = ledger.to_state()
            assert same(state, reference_state(ledger))
            taken.append((state, copy.deepcopy(state)))
        elif op == "subset":
            wanted = rng.sample(USERS, rng.randint(0, len(USERS)))
            assert same(
                ledger.subset_state(wanted), reference_state(ledger, wanted)
            )
        elif op == "adopt" and taken:
            __, adopted = rng.choice(taken)
            ledger.adopt_state(adopted)
            assert same(ledger.to_state(), adopted)
        elif op == "from_state":
            ledger = TrajectoryLedger.from_state(ledger.to_state())
            assert same(ledger.to_state(), reference_state(ledger))
        # A state handed out earlier never changes under later writes.
        for state, snapshot in taken:
            assert state == snapshot
    assert same(ledger.to_state(), reference_state(ledger))


def test_record_invalidates_only_that_users_row():
    ledger = TrajectoryLedger(window=2)
    ledger.record("a", Rect(0, 0, 1, 1), ["a", "b", "c"], serial=1)
    ledger.record("b", Rect(0, 0, 2, 2), ["a", "b"], serial=1)
    before = ledger.to_state()["users"]
    ledger.record("a", Rect(0, 0, 3, 3), ["a", "b"], serial=2)
    after = ledger.to_state()["users"]
    assert after["b"] is before["b"]
    assert after["a"] is not before["a"]
    assert before["a"]["surviving"] == ["a", "b", "c"]
    assert after["a"]["surviving"] == ["a", "b"]


def test_row_memo_passes_the_lockset_and_ledger_gates():
    report = Analyzer(rules=[ConcurrencyRule(), TrajectoryLedgerRule()]).run(
        [SRC]
    )
    assert [f.render() for f in report.new_findings] == []
