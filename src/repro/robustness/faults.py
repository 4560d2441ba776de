"""Deterministic, seeded fault injection for the serving layers.

A :class:`FaultPlan` is a declarative chaos schedule: a tuple of
:class:`FaultRule` entries, each naming an injection *site*, a fault
*kind*, and a firing probability.  A :class:`FaultInjector` evaluates a
plan with a pure hash draw over ``(seed, site, kind, key, attempt)``, so
the same plan against the same workload produces the same faults on
every run — chaos tests are reproducible and retry behaviour is
meaningful (a retry is a new ``attempt`` and gets a fresh draw).

Injection sites used by the library (callers may invent more):

``"solve"``
    per-jurisdiction solves in :func:`repro.parallel.engine.parallel_bulk_anonymize`
    (key = jurisdiction node id);
``"provider"``
    LBS provider calls in the CSP pipeline (key = request id) and
    provider rounds of the async gateway (key = the round's first
    request id);
``"mpc"``
    location lookups at the Mobile Positioning Center (key = user id,
    kind ``"stale"`` serves the previous snapshot's location);
``"repair"``
    per-snapshot policy repair (key = snapshot index).

Fault kinds:

* ``"crash"`` / ``"error"`` / ``"timeout"`` — :meth:`FaultInjector.fire`
  raises :class:`InjectedCrash` / :class:`InjectedError` /
  :class:`InjectedTimeout`;
* ``"straggle"`` — :meth:`FaultInjector.fire` returns the rule's
  ``delay`` as extra (simulated) latency instead of raising;
* ``"stale"`` — queried via :meth:`FaultInjector.should` by callers that
  model staleness themselves (the MPC).

The whole framework is hook-based: happy paths never consult it unless
an injector was explicitly passed in.
"""

from __future__ import annotations

import asyncio
import hashlib
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..core.errors import ReproError

__all__ = [
    "FAULT_KINDS",
    "FaultRule",
    "FaultPlan",
    "FaultInjector",
    "FaultInjectingProvider",
    "FaultInjectingAsyncClient",
    "InjectedFault",
    "InjectedCrash",
    "InjectedError",
    "InjectedTimeout",
]

FAULT_KINDS = ("crash", "error", "timeout", "straggle", "stale")


class InjectedFault(ReproError):
    """Base class of all injected failures."""

    def __init__(self, message: str, *, site: str = "?", key: object = None):
        super().__init__(message)
        self.site = site
        self.key = key


class InjectedCrash(InjectedFault):
    """An injected hard crash (process death, unhandled exception)."""


class InjectedError(InjectedFault):
    """An injected application-level error (bad response, 5xx)."""


class InjectedTimeout(InjectedFault):
    """An injected timeout (the callee never answered in budget)."""


_RAISES: Dict[str, type] = {
    "crash": InjectedCrash,
    "error": InjectedError,
    "timeout": InjectedTimeout,
}


@dataclass(frozen=True)
class FaultRule:
    """One line of a chaos schedule.

    ``match`` restricts the rule to one key (compared as ``str``);
    ``None`` targets every key at the site.  ``max_attempt`` caps the
    attempts the rule may strike (e.g. ``2`` fails the first two tries
    but guarantees the third succeeds) — ``None`` lets the probability
    draw decide on every attempt.
    """

    site: str
    kind: str
    probability: float = 1.0
    match: Optional[str] = None
    delay: float = 0.0
    max_attempt: Optional[int] = None

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ReproError(
                f"unknown fault kind {self.kind!r} (one of {FAULT_KINDS})"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ReproError("fault probability must be within [0, 1]")
        if self.delay < 0:
            raise ReproError("fault delay must be ≥ 0")


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded set of fault rules (the chaos schedule)."""

    rules: Tuple[FaultRule, ...] = ()
    seed: int = 0
    name: str = "plan"


def _draw(seed: int, site: str, kind: str, key: object, attempt: int) -> float:
    """Pure uniform draw in [0, 1) — the determinism backbone."""
    token = f"{seed}|{site}|{kind}|{key}|{attempt}".encode()
    digest = hashlib.blake2b(token, digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2**64


class FaultInjector:
    """Evaluates a :class:`FaultPlan` at runtime.

    ``fired`` counts the faults that actually struck, keyed by
    ``(site, kind)`` — benches report it alongside availability.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.fired: Dict[Tuple[str, str], int] = {}

    def _strikes(self, rule: FaultRule, key: object, attempt: int) -> bool:
        if rule.match is not None and rule.match != str(key):
            return False
        if rule.max_attempt is not None and attempt >= rule.max_attempt:
            return False
        return (
            _draw(self.plan.seed, rule.site, rule.kind, key, attempt)
            < rule.probability
        )

    def _record(self, rule: FaultRule) -> None:
        slot = (rule.site, rule.kind)
        self.fired[slot] = self.fired.get(slot, 0) + 1

    def fire(self, site: str, key: object, attempt: int = 0) -> float:
        """Evaluate the plan at one call site.

        Raises the injected exception for crash/error/timeout rules that
        strike; otherwise returns the summed extra latency of striking
        straggle rules (0.0 when nothing fires).
        """
        delay = 0.0
        for rule in self.plan.rules:
            if rule.site != site or rule.kind == "stale":
                continue
            if not self._strikes(rule, key, attempt):
                continue
            self._record(rule)
            if rule.kind == "straggle":
                delay += rule.delay
            else:
                raise _RAISES[rule.kind](
                    f"injected {rule.kind} at {site}[{key}] "
                    f"(attempt {attempt}, plan {self.plan.name!r})",
                    site=site,
                    key=key,
                )
        return delay

    def should(self, site: str, kind: str, key: object, attempt: int = 0) -> bool:
        """Query non-raising rules (e.g. ``"stale"``) at a site."""
        for rule in self.plan.rules:
            if rule.site != site or rule.kind != kind:
                continue
            if self._strikes(rule, key, attempt):
                self._record(rule)
                return True
        return False

    @property
    def total_fired(self) -> int:
        return sum(self.fired.values())


class FaultInjectingProvider:
    """Wraps an LBS provider with ``"provider"``-site fault injection.

    The wrapper is transparent (attribute access delegates), so the CSP
    and its answer cache use it exactly like the real provider.  Each
    distinct request id gets its own attempt counter, so a retried call
    advances the deterministic draw and can succeed.
    """

    def __init__(self, provider, injector: FaultInjector, site: str = "provider"):
        self._provider = provider
        self._injector = injector
        self._site = site
        self._attempts: Dict[object, int] = {}

    def serve(self, request):
        attempt = self._attempts.get(request.request_id, 0)
        self._attempts[request.request_id] = attempt + 1
        self._injector.fire(self._site, request.request_id, attempt)
        return self._provider.serve(request)

    def __getattr__(self, name):
        return getattr(self._provider, name)


class FaultInjectingAsyncClient:
    """Wraps a pooled async provider client with ``"provider"``-site
    fault injection — the async injector site of the serving gateway.

    Faults strike per *round* (the batched exchange is what fails on a
    real network, taking every coalesced waiter with it), keyed by the
    round's first request id so a retried round advances the
    deterministic draw exactly like :class:`FaultInjectingProvider`'s
    per-request attempts.  ``straggle`` rules become awaited extra
    latency instead of simulated time.
    """

    def __init__(self, client, injector: FaultInjector, site: str = "provider"):
        self._client = client
        self._injector = injector
        self._site = site
        self._attempts: Dict[object, int] = {}

    async def serve_round(self, requests, on_acquire=None):
        key = requests[0].request_id if requests else -1
        attempt = self._attempts.get(key, 0)
        self._attempts[key] = attempt + 1
        delay = self._injector.fire(self._site, key, attempt)
        if delay:
            await asyncio.sleep(delay)
        return await self._client.serve_round(requests, on_acquire)

    def __getattr__(self, name):
        return getattr(self._client, name)
