"""The end-to-end privacy-conscious LBS pipeline (§II-B).

Actors, wired exactly as the paper's model prescribes:

* **MPC** — the Mobile Positioning Center: the authoritative source of
  device locations (here, the current location database snapshot).
* **CSP** — the trusted carrier.  It builds the service request from the
  user's query and the MPC location, anonymizes it with the current
  policy-aware optimal policy, consults the answer cache, and forwards
  only the anonymized request to the LBS.
* **LBS** — untrusted; sees cloaks and payloads, returns candidate sets.
* **Client filter** — the final hop back at the CSP/handset: pick the
  candidate nearest to the true location.

``period`` snapshots: :meth:`CSP.advance_snapshot` moves users and
incrementally repairs the policy.  The CSP is a request path over one
:class:`~repro.streaming.epoch.EpochManager` with ``coarsen_grace=0``:
the manager alone fits, repairs, journals, restores, runs the staleness
ladder and enforces trajectory continuity; the CSP keeps the MPC lookup,
the answer cache, provider retry/breaker and the client filter.

Fault tolerance (all opt-in; the happy path is byte-identical):

* provider calls retry with exponential backoff under a per-call
  deadline and an optional circuit breaker
  (:mod:`repro.robustness.retry`);
* a :class:`~repro.robustness.faults.FaultInjector` can make provider
  calls fail, MPC lookups go stale, and snapshot repairs crash;
* failures degrade **fail-closed**: a stale MPC read coarsens to the
  lowest halving-chain ancestor cloak covering it (group-wide, provably
  ≥ k) → a failed repair serves the prior epoch within
  ``max_stale_snapshots`` → beyond that requests are rejected with
  :class:`~repro.core.errors.ServiceUnavailableError`.  The CSP never
  emits a sub-k or policy-unaware cloak.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # runtime import would cycle through repro.streaming
    from ..trajectory.constraint import ContinuityConstraint

from ..core.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    ServiceUnavailableError,
    UnknownUserError,
)
from ..core.geometry import Point, Rect
from ..core.policy import CloakingPolicy
from ..core.requests import (
    AnonymizedRequest,
    ServiceRequest,
    normalize_payload,
    request_id_factory,
)
from ..robustness.degrade import DegradationEvent, EventLog
from ..robustness.faults import (
    FaultInjectingProvider,
    FaultInjector,
    InjectedFault,
)
from ..robustness.recovery import PolicyJournal, QuorumJournal
from ..robustness.retry import (
    CircuitBreaker,
    Clock,
    RetryPolicy,
    SystemClock,
    retry_call,
)
from ..streaming.epoch import EpochManager, SwapReport
from .cache import AnswerCache
from .locationdb import LocationDatabase
from .poi import POI
from .provider import LBSProvider, QueryAnswer

__all__ = [
    "PreparedRequest",
    "ServedRequest",
    "MobilePositioningCenter",
    "CSP",
]

#: Exceptions that mark a provider call transient (worth retrying).
TRANSIENT_PROVIDER_ERRORS = (
    InjectedFault,
    TimeoutError,
    ConnectionError,
    OSError,
)


@dataclass(frozen=True)
class PreparedRequest:
    """The synchronous front half of serving one request.

    Everything up to (and including) the cloak decision: the privacy
    contract is fully settled here, before any provider I/O happens —
    which is what lets the async gateway overlap the I/O of many
    requests without touching anonymization semantics.
    """

    request: ServiceRequest
    anonymized: AnonymizedRequest
    degradation: str
    policy_age: int


@dataclass(frozen=True)
class ServedRequest:
    """Everything one request produced, end to end."""

    request: ServiceRequest
    anonymized: AnonymizedRequest
    answer: QueryAnswer
    result: Optional[POI]
    cache_hit: bool
    #: which degradation rung served the request ("fresh", "coarsened",
    #: "stale") — rejected requests raise instead of returning.
    degradation: str = "fresh"
    #: provider call attempts (0 when the answer came from the cache).
    provider_attempts: int = 1
    #: how many snapshots behind the serving policy was (0 = current).
    policy_age: int = 0

    @property
    def candidate_count(self) -> int:
        """Client-side filtering work — the utility cost of the cloak."""
        return self.answer.size

    @property
    def degraded(self) -> bool:
        return self.degradation != "fresh"


class MobilePositioningCenter:
    """The MPC: location lookups against the current snapshot.

    With a fault injector, ``"mpc"``-site ``"stale"`` rules make
    :meth:`locate` answer from the *previous* snapshot — the classic
    replica-lag failure the CSP's coarsening rung exists for.
    """

    def __init__(
        self,
        db: LocationDatabase,
        injector: Optional[FaultInjector] = None,
    ):
        self.db = db
        self.injector = injector
        self._previous: Optional[LocationDatabase] = None
        self._snapshot_serial = 0

    def locate(self, user_id: str) -> Point:
        point = self.db.location_of(user_id)
        if point is None:
            raise UnknownUserError(f"MPC has no location for user {user_id!r}")
        if (
            self.injector is not None
            and self._previous is not None
            and self.injector.should(
                "mpc", "stale", user_id, self._snapshot_serial
            )
        ):
            stale = self._previous.location_of(user_id)
            if stale is not None:
                return stale
        return point

    def refresh(self, db: LocationDatabase) -> None:
        self._previous = self.db
        self._snapshot_serial += 1
        self.db = db


class CSP:
    """The trusted carrier: the request path over one policy owner.

    Every policy-lifecycle concern — fit, incremental repair, journal
    commit, restore, the staleness ladder and trajectory enforcement —
    belongs to :attr:`manager`, an
    :class:`~repro.streaming.epoch.EpochManager` with ``coarsen_grace=0``.
    The CSP keeps MPC locate, the answer cache, provider retry/breaker
    and the client filter.

    Robustness knobs (keyword-only, all optional):

    retry_policy / circuit_breaker / provider_deadline:
        retry with backoff for LBS provider calls, budget per request,
        breaker across requests.  While the breaker is open, cached
        answers still serve — the cache is a legitimate degraded mode.
    injector:
        a seeded :class:`FaultInjector` (chaos testing).
    clock:
        time source for backoff/breaker; inject a
        :class:`~repro.robustness.retry.ManualClock` to keep tests and
        benches wall-clock free.
    max_stale_snapshots:
        the bounded age of the "stale" rung: how many consecutive failed
        snapshot repairs may pass before requests are rejected outright.
    journal:
        a :class:`~repro.robustness.recovery.PolicyJournal` or
        ``QuorumJournal``: every promoted epoch is committed
        crash-consistently before it serves, and :meth:`CSP.restore`
        resurrects a serving CSP from it after a restart without
        re-running bulk anonymization.
    policy:
        a precomputed :class:`~repro.core.policy.CloakingPolicy` for
        ``db`` for the manager to adopt instead of running the bulk
        solve — how fleet workers (:mod:`repro.serving.fleet`) share one
        dispatcher-side solve.  The DP being deterministic, the adopted
        policy is bit-identical to what a fit would have produced.
    trajectory:
        the trajectory-continuity defense, a
        :class:`~repro.trajectory.constraint.ContinuityConstraint` whose
        ledger the manager folds every served cloak into.
    """

    def __init__(
        self,
        region: Rect,
        k: int,
        db: LocationDatabase,
        provider: LBSProvider,
        use_cache: bool = True,
        max_depth: int = 40,
        *,
        retry_policy: Optional[RetryPolicy] = None,
        circuit_breaker: Optional[CircuitBreaker] = None,
        provider_deadline: Optional[float] = None,
        injector: Optional[FaultInjector] = None,
        clock: Optional[Clock] = None,
        max_stale_snapshots: int = 1,
        journal: Optional[Union[PolicyJournal, QuorumJournal]] = None,
        policy: Optional[CloakingPolicy] = None,
        trajectory: Optional["ContinuityConstraint"] = None,
    ):
        manager = EpochManager(
            region,
            k,
            db,
            max_depth=max_depth,
            journal=journal,
            max_stale_snapshots=max_stale_snapshots,
            coarsen_grace=0,
            injector=injector,
            trajectory=trajectory,
            policy=policy,
        )
        self._serve_over(
            manager, provider, use_cache, retry_policy, circuit_breaker,
            provider_deadline, injector, clock,
        )

    def _serve_over(
        self,
        manager: EpochManager,
        provider: LBSProvider,
        use_cache: bool,
        retry_policy: Optional[RetryPolicy],
        circuit_breaker: Optional[CircuitBreaker],
        provider_deadline: Optional[float],
        injector: Optional[FaultInjector],
        clock: Optional[Clock],
    ) -> None:
        """Wire the request path over ``manager``'s active epoch."""
        #: the one policy owner this CSP serves from.
        self.manager = manager
        self.injector = injector
        self.clock = clock or SystemClock()
        self.retry_policy = retry_policy
        self.breaker = circuit_breaker
        self.provider_deadline = provider_deadline
        #: the unwrapped provider — the async gateway builds its pooled
        #: client on this and applies its own (async) injector site, so
        #: faults are not injected twice on the async path.
        self.base_provider = provider
        if injector is not None:
            provider = FaultInjectingProvider(provider, injector)
        self.mpc = MobilePositioningCenter(manager.active.db, injector=injector)
        self.provider = provider
        self.cache = AnswerCache(provider) if use_cache else None
        self._next_request_id = request_id_factory()

    @classmethod
    def restore(
        cls,
        provider: LBSProvider,
        journal: Union[PolicyJournal, QuorumJournal],
        *,
        use_cache: bool = True,
        current_serial: Optional[int] = None,
        retry_policy: Optional[RetryPolicy] = None,
        circuit_breaker: Optional[CircuitBreaker] = None,
        provider_deadline: Optional[float] = None,
        injector: Optional[FaultInjector] = None,
        clock: Optional[Clock] = None,
        max_stale_snapshots: int = 1,
        trajectory: Optional["ContinuityConstraint"] = None,
    ) -> "CSP":
        """Resurrect a CSP from its journal after a crash or restart.

        :meth:`EpochManager.restore` adopts the journalled state, so the
        recovered policy serves immediately on the "recovered" rung
        (bit-identical cloaks to the pre-crash CSP) and the next
        :meth:`advance_snapshot` repairs forward incrementally when the
        journal held DP vectors that fit, or re-solves once when not.
        ``current_serial`` (the world's present snapshot serial, e.g.
        from the MPC) enforces the stale bound at restore time —
        journalled state too far behind is rejected fail-closed.
        """
        manager = EpochManager.restore(
            journal,
            current_serial=current_serial,
            max_stale_snapshots=max_stale_snapshots,
            coarsen_grace=0,
            injector=injector,
            trajectory=trajectory,
        )
        csp = cls.__new__(cls)
        csp._serve_over(
            manager, provider, use_cache, retry_policy, circuit_breaker,
            provider_deadline, injector, clock,
        )
        return csp

    # -- the manager's state, read through ------------------------------------

    @property
    def policy(self) -> CloakingPolicy:
        """The active epoch's policy."""
        return self.manager.active.policy

    @property
    def effective_policy(self) -> CloakingPolicy:
        """The active policy under its MPC-mismatch coarsenings — what
        chaos tests audit (see :attr:`EpochManager.effective_policy`)."""
        return self.manager.effective_policy

    @property
    def events(self) -> EventLog:
        """The degradation timeline — one bounded log, the manager's."""
        return self.manager.events

    @property
    def trajectory(self) -> Optional["ContinuityConstraint"]:
        return self.manager.trajectory

    @property
    def policy_age(self) -> int:
        """How many snapshots the serving policy is behind (0 = fresh)."""
        return self.manager.staleness

    @property
    def restored(self) -> bool:
        """True between a journal restore and the first promoted swap."""
        return self.manager.active.origin == "restore"

    # -- serving ------------------------------------------------------------

    def prepare(self, user_id: str, payload) -> PreparedRequest:
        """The synchronous front half: pin the active epoch (the
        staleness gate), locate the user, take the cloak and rung from
        the manager, release the pin.  No provider I/O happens here.
        """
        with self.manager.pin() as pin:
            location = self.mpc.locate(user_id)
            request = ServiceRequest(
                str(user_id), location, normalize_payload(payload)
            )
            cloak, rung = self.manager.serve_cloak(
                request.user_id, pin, location=location
            )
        return PreparedRequest(
            request=request,
            anonymized=AnonymizedRequest(
                request_id=self._next_request_id(),
                cloak=cloak,
                payload=request.payload,
            ),
            degradation=rung,
            policy_age=pin.age,
        )

    def complete(
        self,
        prepared: PreparedRequest,
        answer: QueryAnswer,
        *,
        cache_hit: bool,
        attempts: int,
    ) -> ServedRequest:
        """The back half: client-side filtering over a fetched answer."""
        result = self._client_filter(prepared.request.location, answer)
        return ServedRequest(
            request=prepared.request,
            anonymized=prepared.anonymized,
            answer=answer,
            result=result,
            cache_hit=cache_hit,
            degradation=prepared.degradation,
            provider_attempts=attempts,
            policy_age=prepared.policy_age,
        )

    def request(self, user_id: str, payload) -> ServedRequest:
        """Serve one user query end to end (fail-closed under faults)."""
        prepared = self.prepare(user_id, payload)
        answer, cache_hit, attempts = self._fetch(prepared.anonymized)
        return self.complete(
            prepared, answer, cache_hit=cache_hit, attempts=attempts
        )

    def serve_async(
        self,
        workload: Sequence[Tuple[str, object]],
        config=None,
    ):
        """Serve a workload through the asyncio gateway (sync façade).

        ``workload`` is a sequence of ``(user_id, payload)`` pairs;
        ``config`` an optional
        :class:`~repro.serving.gateway.GatewayConfig`.  Returns
        ``(results, stats)`` where each result is a
        :class:`ServedRequest` or the typed exception that rejected it.
        Cloaks are guaranteed identical to the sync path's: the gateway
        calls this CSP's own :meth:`prepare`.
        """
        from ..serving.gateway import run_gateway

        return run_gateway(self, workload, config)

    def _fetch(self, anonymized: AnonymizedRequest):
        """Provider/cache fetch with retry, deadline, and breaker."""
        if self.cache is not None:
            hits_before = self.cache.stats.hits
            fetch = lambda: self.cache.fetch(anonymized)  # noqa: E731
        else:
            fetch = lambda: self.provider.serve(anonymized)  # noqa: E731
        attempts = [0]

        def observe(attempt: int, exc: Optional[BaseException]) -> None:
            attempts[0] = attempt + 1

        try:
            if self.retry_policy is None and self.breaker is None:
                answer = fetch()
                attempts[0] = 1
            else:
                answer = retry_call(
                    fetch,
                    policy=self.retry_policy or RetryPolicy(max_attempts=1),
                    clock=self.clock,
                    deadline=self.provider_deadline,
                    retryable=TRANSIENT_PROVIDER_ERRORS,
                    breaker=self.breaker,
                    on_attempt=observe,
                )
        except (
            CircuitOpenError,
            DeadlineExceededError,
        ) + TRANSIENT_PROVIDER_ERRORS as exc:
            self.events.append(
                DegradationEvent(
                    level="rejected",
                    reason="provider",
                    detail=str(exc),
                )
            )
            raise ServiceUnavailableError(
                f"LBS provider unavailable after {max(attempts[0], 1)} "
                f"attempt(s): {exc}",
                reason="provider",
            ) from exc
        if self.cache is not None:
            cache_hit = self.cache.stats.hits > hits_before
            if cache_hit:
                attempts[0] = 0
        else:
            cache_hit = False
        return answer, cache_hit, attempts[0]

    @staticmethod
    def _client_filter(location: Point, answer: QueryAnswer) -> Optional[POI]:
        """The last hop: exact nearest neighbour among the candidates."""
        if not answer.candidates:
            return None
        return min(
            answer.candidates,
            key=lambda poi: (location.distance_to(poi.location), poi.poi_id),
        )

    # -- snapshot lifecycle --------------------------------------------------

    def advance_snapshot(self, moves: Mapping[str, Point]) -> SwapReport:
        """Next location snapshot: ``manager.advance(moves)``, then the
        MPC moves to the promoted epoch's snapshot.

        A swap that does not promote (crashed repair: its moves wait for
        the next tick; quorum-lost commit: the swap is void) leaves the
        prior epoch serving on the stale rung, and the report says
        ``promoted=False`` with the reason."""
        report = self.manager.advance(moves)
        if report.promoted:
            self.mpc.refresh(self.manager.active.db)
        return report
