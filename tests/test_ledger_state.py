"""The integer trajectory ledger and constraint agree with string
oracles: a reference ledger of frozensets and deques under any
interleaving of writes, reads and state hand-offs, and the frozenset
candidate rule over a churning epoch manager."""

import copy
import pathlib
import random
import sys
import threading
from collections import deque

import numpy as np
import pytest
from conftest import same_ledger_state

from repro import Rect, ReproError, ServiceUnavailableError
from repro.analysis import Analyzer
from repro.analysis.rules.concurrency import ConcurrencyRule
from repro.analysis.rules.trajectory import TrajectoryLedgerRule
from repro.core.errors import TreeError
from repro.data import uniform_users
from repro.lbs.mobility import random_moves
from repro.streaming import EpochManager
from repro.streaming.epoch import halving_chain
from repro.trajectory import ContinuityConstraint, TrajectoryLedger
from repro.trajectory.ledger import LedgerEntry

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


class ReferenceLedger:
    """The ledger's semantics on strings: one frozenset and one deque
    per user."""

    def __init__(self, window):
        self.window = window
        self.surviving = {}
        self.entries = {}
        self.recorded = 0

    def record(self, uid, cloak, candidates, serial, widened):
        members = frozenset(candidates)
        prior = self.surviving.get(uid)
        self.surviving[uid] = members if prior is None else prior & members
        self.entries.setdefault(uid, deque(maxlen=self.window)).append(
            LedgerEntry(serial, cloak, len(members), widened)
        )
        self.recorded += 1

    def subset(self, user_ids):
        other = copy.deepcopy(self)
        wanted = set(user_ids)
        other.surviving = {
            u: s for u, s in self.surviving.items() if u in wanted
        }
        other.entries = {u: e for u, e in other.entries.items() if u in wanted}
        return other


def agrees(ledger, reference, pool):
    assert ledger.recorded == reference.recorded
    assert ledger.window == reference.window
    assert ledger.users() == tuple(sorted(reference.surviving))
    assert len(ledger) == len(reference.surviving)
    for uid in pool:
        assert ledger.surviving(uid) == reference.surviving.get(uid)
        assert ledger.entries(uid) == tuple(reference.entries.get(uid, ()))
    assert ledger.widened_count() == sum(
        entry.widened for window in reference.entries.values()
        for entry in window
    )
    return True


def random_record(ledger, reference, rng, pool, serial):
    x, y = rng.uniform(0, 900), rng.uniform(0, 900)
    cloak = Rect(x, y, x + rng.uniform(1, 100), y + rng.uniform(1, 100))
    uid = rng.choice(pool)
    candidates = rng.sample(pool, rng.randint(1, len(pool)))
    widened = rng.random() < 0.3
    ledger.record(uid, cloak, candidates, serial=serial, widened=widened)
    reference.record(uid, cloak, candidates, serial, widened)


@pytest.mark.parametrize("seed", range(6))
def test_memoized_rows_match_a_cache_free_rebuild(seed):
    rng = random.Random(seed)
    window = rng.choice([1, 2, 4])
    ledger, reference = TrajectoryLedger(window=window), ReferenceLedger(window)
    # (state as returned, its deep copy, the reference at the time)
    taken = []
    for step in range(300):
        # The id pool keeps growing, so ids are interned after adopts.
        pool = [f"u{i}" for i in range(8 + step // 20)]
        op = rng.choice(
            ["record"] * 4
            + ["to_state", "subset", "adopt", "from_state", "foreign"]
        )
        if op == "record":
            random_record(ledger, reference, rng, pool, serial=step)
        elif op == "to_state":
            state = ledger.to_state()
            taken.append((state, copy.deepcopy(state), copy.deepcopy(reference)))
        elif op == "subset":
            wanted = rng.sample(pool, rng.randint(0, len(pool)))
            shard = TrajectoryLedger.from_state(ledger.subset_state(wanted))
            assert agrees(shard, reference.subset(wanted), pool)
        elif op == "adopt" and taken:
            __, adopted, then = rng.choice(taken)
            ledger.adopt_state(adopted)
            reference = copy.deepcopy(then)
            assert same_ledger_state(
                TrajectoryLedger.from_state(ledger.to_state()).to_state(),
                ledger.to_state(),
            )
        elif op == "from_state":
            ledger = TrajectoryLedger.from_state(ledger.to_state())
        elif op == "foreign":
            # A ledger that interned the ids in another order adopts
            # this one's state by remapping it.
            other = TrajectoryLedger()
            other.intern(rng.sample(pool, len(pool)))
            other.adopt_state(ledger.to_state())
            assert agrees(other, reference, pool)
        assert agrees(ledger, reference, pool)
        # A state handed out earlier never changes under later writes.
        for state, snapshot, __ in taken:
            assert same_ledger_state(state, snapshot)


def test_record_invalidates_only_that_users_row():
    ledger = TrajectoryLedger(window=2)
    ledger.record("a", Rect(0, 0, 1, 1), ["a", "b", "c"], serial=1)
    ledger.record("b", Rect(0, 0, 2, 2), ["a", "b"], serial=1)
    before = ledger.to_state()
    held_b = ledger.prior(ledger.index("b"))
    ledger.record("a", Rect(0, 0, 3, 3), ["a", "b"], serial=2)
    after = ledger.to_state()
    # b's arrays are untouched; a's moved on; the old state did not.
    assert ledger.prior(ledger.index("b")) is held_b
    assert not held_b.flags.writeable
    assert TrajectoryLedger.from_state(before).entries("b") == ledger.entries("b")
    assert before["count"].tolist() == [1, 1]
    assert after["count"].tolist() == [2, 1]
    # Only live window slots are written: a's two entries, then b's one.
    assert before["serial"].tolist() == [1, 1]
    assert after["serial"].tolist() == [1, 2, 1]
    assert after["cloak"][:, 2].tolist() == [1, 3, 2]
    assert TrajectoryLedger.from_state(before).surviving("a") == {"a", "b", "c"}
    assert ledger.surviving("a") == {"a", "b"}


def test_concurrent_folds_of_one_user_lose_no_serve():
    """Threads fold cloaks for the same user at once; each cloak drops
    one candidate, so a lost fold would leave its candidate alive."""
    threads, steps = 4, 100
    drop = [[f"c{t}-{i}" for i in range(steps)] for t in range(threads)]
    keep = [f"k{i}" for i in range(5)]
    everyone = keep + [c for row in drop for c in row]
    ledger = TrajectoryLedger()
    ledger.record("u", Rect(0, 0, 1, 1), everyone)

    def worker(t):
        for gone in drop[t]:
            ledger.record(
                "u", Rect(0, 0, 1, 1), [c for c in everyone if c != gone]
            )

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [
            threading.Thread(target=worker, args=(t,)) for t in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in pool)
    assert ledger.surviving("u") == frozenset(keep)
    assert ledger.recorded == 1 + threads * steps


@pytest.mark.parametrize(
    "key, value",
    [
        ("surviving", [0, 1, 1, 1, 2]),  # a duplicate inside a row
        ("surviving", [0, 2, 1, 1, 2]),  # a row out of order
        ("surviving", [0, 1, 9, 1, 2]),  # an index past the table
        ("surviving_ptr", [0, 4, 5]),  # rows overlapping
        ("users", [0, 0]),  # one user twice
        ("count", [1, 0]),  # a row without a serve
    ],
)
def test_adopt_refuses_inconsistent_arrays(key, value):
    ledger = TrajectoryLedger()
    ledger.record("a", Rect(0, 0, 1, 1), ["a", "b", "c"])
    ledger.record("b", Rect(0, 0, 1, 1), ["b", "c"])
    state = ledger.to_state()
    assert state["surviving"].tolist() == [0, 1, 2, 1, 2]
    state[key] = np.array(value, dtype=state[key].dtype)
    with pytest.raises(ReproError, match="inconsistent"):
        TrajectoryLedger().adopt_state(state)


def test_row_memo_passes_the_lockset_and_ledger_gates():
    report = Analyzer(rules=[ConcurrencyRule(), TrajectoryLedgerRule()]).run(
        [SRC]
    )
    assert [f.render() for f in report.new_findings] == []


# ---------------------------------------------------------------------------
# The integer constraint against the frozenset candidate rule
# ---------------------------------------------------------------------------

REGION = Rect(0, 0, 2048, 2048)
K = 5


def reference_decision(policy, uid, prior, region, orientation, start):
    """The continuity rule on frozensets: ``(cloak, levels, candidates,
    surviving set)``, or ``None`` for a fail-closed rejection."""
    groups = {r: frozenset(u) for r, u in policy.groups().items()}
    fine = policy.cloak_for(uid)

    def candidates(cloak):
        if cloak == fine:
            return groups[cloak]
        return frozenset(
            u for r, us in groups.items() if cloak.contains_rect(r) for u in us
        )

    base = candidates(start)
    if prior is None or len(prior & base) >= K:
        return start, 0, base, base if prior is None else prior & base
    try:
        chain = halving_chain(region, orientation, start)
    except TreeError:
        return None
    for idx in range(len(chain) - 2, -1, -1):
        members = candidates(chain[idx])
        if len(prior & members) >= K:
            return chain[idx], len(chain) - 1 - idx, members, prior & members
    return None


class RecordingConstraint(ContinuityConstraint):
    def __init__(self, k):
        super().__init__(k)
        self.calls = []

    def enforce(self, policy, user_id, **kwargs):
        try:
            decision = super().enforce(policy, user_id, **kwargs)
        except ServiceUnavailableError:
            decision = None
        self.calls.append((policy, user_id, kwargs, decision))
        if decision is None:
            raise ServiceUnavailableError("rejected", reason="trajectory")
        return decision


def test_decisions_equal_the_frozenset_rule_over_churn():
    db = uniform_users(150, REGION, seed=61)
    constraint = RecordingConstraint(K)
    manager = EpochManager(REGION, K, db, trajectory=constraint)
    try:
        current = db
        for step in range(5):
            for uid in current.user_ids()[:60]:
                try:
                    manager.serve_cloak(uid)
                except ServiceUnavailableError:
                    pass
            moves = random_moves(
                current, 0.4, REGION, max_distance=600, seed=61 + step
            )
            manager.advance(moves)
            current = current.with_moves(moves)
    finally:
        manager.close()
    widened = 0
    priors = {}  # the reference intersections, on strings
    for policy, uid, kwargs, decision in constraint.calls:
        expected = reference_decision(
            policy, uid, priors.get(uid), kwargs["region"],
            kwargs["orientation"], kwargs["cloak"],
        )
        if expected is None:
            assert decision is None
            continue
        cloak, levels, members, surviving = expected
        assert decision is not None
        assert (decision.cloak, decision.levels) == (cloak, levels)
        assert (decision.surviving, decision.k_evidence) == (
            len(surviving), len(members)
        )
        assert set(constraint.ledger.names(decision.after)) == surviving
        priors[uid] = surviving
        widened += levels > 0
    assert len(constraint.calls) == 300
    assert widened > 0
