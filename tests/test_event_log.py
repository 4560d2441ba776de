"""The degradation timeline is bounded: an ``EventLog`` keeps the
newest ``EVENT_CAP`` events and counts exactly the ones it drops."""

import sys
import threading

from repro import Rect
from repro.data import uniform_users
from repro.robustness.degrade import EVENT_CAP, DegradationEvent, EventLog
from repro.streaming import EpochManager
from repro.trajectory import ContinuityConstraint

REGION = Rect(0, 0, 4096, 4096)
K = 8


class TestBoundedEvents:
    """The degradation timeline keeps the newest ``EVENT_CAP`` events
    and counts every one it lets go."""

    @staticmethod
    def _widen_forever(constraint, policy, uid):
        # A history spread over K groups: the fine group keeps one of
        # them, only a wide ancestor all K, and serving that ancestor
        # leaves the history as it was, so every serve widens again.
        groups = list(policy.groups().values())
        own = next(g for g in groups if uid in g)
        spread = [uid] + [g[0] for g in groups if g is not own][: K - 1]
        constraint.ledger.record(uid, policy.cloak_for(uid), spread)

    def test_widenings_past_the_cap_drop_the_oldest(self):
        db = uniform_users(240, REGION, seed=11)
        constraint = ContinuityConstraint(K)
        manager = EpochManager(REGION, K, db, trajectory=constraint)
        try:
            policy = manager.active.policy
            first, second = db.user_ids()[:2]
            for uid in (first, second):
                self._widen_forever(constraint, policy, uid)
            before = len(manager.events)
            for __ in range(10):
                assert manager.serve_cloak(first)[1] == "coarsened"
            for __ in range(EVENT_CAP):
                assert manager.serve_cloak(second)[1] == "coarsened"
        finally:
            manager.close()
        assert len(manager.events) == EVENT_CAP
        assert manager.events_dropped == before + 10
        assert all(
            event.reason == "trajectory" and repr(second) in event.detail
            for event in manager.events
        )

    def test_concurrent_appends_are_counted_exactly(self):
        log, threads, each = EventLog(), 4, EVENT_CAP
        event = DegradationEvent(level="coarsened", reason="trajectory")

        def worker():
            for __ in range(each):
                log.append(event)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [threading.Thread(target=worker) for __ in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in pool)
        assert len(log) == EVENT_CAP
        assert log.dropped == threads * each - EVENT_CAP
