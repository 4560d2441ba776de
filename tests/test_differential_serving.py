"""Differential serving oracle: every serving path agrees, request for request.

One seeded schedule — requests, moves plus advance, injected repair
crashes, stale MPC reads and journal restores — drives three paths:

* ``CSP.request`` (the synchronous request path);
* :class:`~repro.serving.gateway.AsyncGateway` on a
  :class:`~repro.robustness.aio.VirtualTimeLoop` over a twin CSP;
* a bare :class:`~repro.streaming.epoch.EpochManager` with
  ``coarsen_grace=0`` (the CSP's ladder).

Per request every path must return the same (cloak, rung, reject
reason).  Stale MPC reads come from each CSP's own MPC; the bare manager
has none, so it is handed the reads of an MPC twin of its own.  The
fault draw is a pure hash, so every twin reads the same locations.  Per
epoch the served effective policy must be policy-aware k-anonymous, and
with the trajectory defense on the served stream must keep every
user's linked candidate set ≥ k.
"""

from __future__ import annotations

import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro import Rect
from repro.attacks import audit_policy
from repro.core.errors import RecoveryError, ServiceUnavailableError
from repro.data import uniform_users
from repro.lbs import (
    CSP,
    LBSProvider,
    MobilePositioningCenter,
    ServedRequest,
    generate_pois,
    random_moves,
)
from repro.robustness import (
    FaultInjector,
    FaultPlan,
    FaultRule,
    PolicyJournal,
    VirtualTimeLoop,
)
from repro.serving.gateway import AsyncGateway, GatewayConfig, serve_all
from repro.streaming import EpochManager
from repro.trajectory import ContinuityConstraint, ServedTrajectories

REGION = Rect(0, 0, 4096, 4096)
K = 5
N_USERS = 150
HOT_USERS = 24
CATEGORIES = ("rest", "groc")
GATEWAY = GatewayConfig()


def _plan(rules) -> FaultPlan:
    return FaultPlan(rules=tuple(rules), seed=17, name="differential")


def _outcome(result):
    """(cloak, rung, reject reason) of one served-or-rejected request."""
    if isinstance(result, ServedRequest):
        return (result.anonymized.cloak, result.degradation, None)
    assert isinstance(result, ServiceUnavailableError), result
    return (None, None, result.reason)


class DifferentialServing(RuleBasedStateMachine):
    @initialize(defended=st.booleans())
    def build(self, defended):
        self.defended = defended
        self.db = uniform_users(N_USERS, REGION, seed=3)
        self.users = self.db.user_ids()
        self.provider = LBSProvider(
            generate_pois(REGION, {"rest": 30, "groc": 20}, seed=4)
        )
        self.tmp = tempfile.mkdtemp(prefix="differential-")
        self.journals = {
            name: PolicyJournal(f"{self.tmp}/{name}")
            for name in ("sync", "gateway", "manager")
        }
        self.injectors = {
            name: FaultInjector(_plan(())) for name in self.journals
        }
        self.repair_rules = []
        self.stale = False
        self.csps = {
            name: CSP(
                REGION,
                K,
                self.db,
                self.provider,
                injector=self.injectors[name],
                journal=self.journals[name],
                trajectory=self._constraint(),
            )
            for name in ("sync", "gateway")
        }
        self.manager = EpochManager(
            REGION,
            K,
            self.db,
            journal=self.journals["manager"],
            coarsen_grace=0,
            injector=self.injectors["manager"],
            trajectory=self._constraint(),
        )
        self.mpc = MobilePositioningCenter(self.db, self.injectors["manager"])
        self.stream = ServedTrajectories()
        self.audited = set()
        #: requests served since the last journal commit.
        self.uncommitted = 0

    def _constraint(self):
        return ContinuityConstraint(K) if self.defended else None

    def _set_plans(self):
        stale = [FaultRule("mpc", "stale", probability=0.5)] if self.stale else []
        for injector in self.injectors.values():
            injector.plan = _plan(self.repair_rules + stale)

    # -- the three paths -------------------------------------------------------

    def _serve_sync(self, uid, payload):
        try:
            return self.csps["sync"].request(uid, payload)
        except ServiceUnavailableError as exc:
            return exc

    def _serve_gateway(self, uid, payload):
        gateway = AsyncGateway(self.csps["gateway"], GATEWAY)
        (result,) = VirtualTimeLoop().run(serve_all(gateway, [(uid, payload)]))
        return result

    def _serve_manager(self, uid):
        try:
            with self.manager.pin() as pin:
                cloak, rung = self.manager.serve_cloak(
                    uid, pin, location=self.mpc.locate(uid)
                )
        except ServiceUnavailableError as exc:
            return (None, None, exc.reason)
        return (cloak, rung, None)

    # -- rules -------------------------------------------------------------------

    @rule(
        # A small hot set: repeat requesters are what the trajectory
        # defense has to widen for.
        picks=st.lists(st.integers(0, HOT_USERS - 1), min_size=1, max_size=8),
        category=st.sampled_from(CATEGORIES),
    )
    def requests(self, picks, category):
        for pick in picks:
            uid = self.users[pick]
            payload = [("poi", category)]
            sync = self._serve_sync(uid, payload)
            gateway = self._serve_gateway(uid, payload)
            expected = _outcome(sync)
            assert _outcome(gateway) == expected, (uid, sync, gateway)
            assert self._serve_manager(uid) == expected, (uid, sync)
            self.uncommitted += 1
            if isinstance(sync, ServedRequest):
                policy = self.csps["sync"].policy
                cloak = sync.anonymized.cloak
                self.stream.observe(
                    uid, cloak, policy, widened=cloak != policy.cloak_for(uid)
                )

    @rule(
        fraction=st.sampled_from((0.1, 0.4)),
        seed=st.integers(0, 99),
        crash=st.booleans(),
    )
    def advance(self, fraction, seed, crash):
        """Moves plus advance; ``crash`` injects a repair crash into
        exactly this tick (``FaultRule("repair", "crash", match=serial)``)."""
        if crash:
            serial = self.manager.world_serial + 1
            self.repair_rules.append(
                FaultRule("repair", "crash", match=str(serial))
            )
            self._set_plans()
        moves = random_moves(
            self.csps["sync"].mpc.db, fraction, REGION,
            max_distance=1500.0, seed=seed,
        )
        reports = [csp.advance_snapshot(moves) for csp in self.csps.values()]
        reports.append(self.manager.advance(moves))
        if reports[-1].promoted:
            self.mpc.refresh(self.manager.active.db)
        assert len({(r.promoted, r.reason) for r in reports}) == 1, reports
        # Promoted or not, every tick commits the ledger.
        self.uncommitted = 0

    @rule()
    def toggle_stale_reads(self):
        self.stale = not self.stale
        self._set_plans()

    @precondition(lambda self: self.uncommitted == 0)
    @rule()
    def restore(self):
        """Kill every path and restore each from its own journal.

        Only right after a tick: its commit holds the ledger state, so
        the restored defense forgets no served request.  A journal past
        the stale bound must refuse to restore on every path alike.
        """
        restores = {
            name: lambda name=name: CSP.restore(
                self.provider,
                self.journals[name],
                injector=self.injectors[name],
                trajectory=self._constraint(),
            )
            for name in ("sync", "gateway")
        }
        restores["manager"] = lambda: EpochManager.restore(
            self.journals["manager"],
            coarsen_grace=0,
            injector=self.injectors["manager"],
            trajectory=self._constraint(),
        )
        if self.manager.staleness > 1:
            for restore in restores.values():
                with pytest.raises(RecoveryError) as err:
                    restore()
                assert err.value.reason == "stale"
            return
        self.manager = restores.pop("manager")()
        self.mpc = MobilePositioningCenter(
            self.manager.active.db, self.injectors["manager"]
        )
        for name, restore in restores.items():
            self.csps[name] = restore()

    # -- invariants ----------------------------------------------------------------

    @invariant()
    def epoch_is_k_anonymous(self):
        if not hasattr(self, "csps"):
            return
        for name, csp in self.csps.items():
            epoch = csp.manager.active
            key = (name, epoch.serial, epoch.origin, len(epoch.overrides))
            if key in self.audited:
                continue
            self.audited.add(key)
            report = audit_policy(csp.effective_policy, K)
            assert report.safe_policy_aware, report.summary()

    def teardown(self):
        if not hasattr(self, "tmp"):
            return
        shutil.rmtree(self.tmp, ignore_errors=True)
        if self.defended:
            audit = self.stream.audit(K)
            assert not audit.failing, audit
            assert audit.audited == 0 or audit.min_surviving >= K


DifferentialServing.TestCase.settings = settings(
    max_examples=40,
    stateful_step_count=30,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestDifferentialServing = DifferentialServing.TestCase
