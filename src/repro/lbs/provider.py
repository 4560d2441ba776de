"""The (untrusted) LBS provider.

Receives only *anonymized* requests; never sees identities or exact
locations.  For a nearest-POI request it returns the NN candidate set of
the cloak; for a range request, all matching POIs in the window.  It
also keeps per-category billing counters — §VII argues our scheme keeps
the LBS's advertising business model viable precisely because the LBS
still knows *what* it returned (unlike cryptographic PIR).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..core.errors import ReproError
from ..core.geometry import Rect
from ..core.requests import AnonymizedRequest
from .poi import POI, POIDatabase

__all__ = ["QueryAnswer", "LBSProvider"]


@dataclass(frozen=True)
class QueryAnswer:
    """What the LBS returns for one anonymized request."""

    request_id: int
    candidates: Tuple[POI, ...]

    @property
    def size(self) -> int:
        return len(self.candidates)


def _payload_get(payload, name: str) -> Optional[str]:
    for key, value in payload:
        if key == name:
            return value
    return None


def _range_margin(window) -> float:
    """A ``range`` payload as a finite, non-negative margin (meters)."""
    try:
        margin = float(window)
    except (TypeError, ValueError):
        raise ReproError(f"range payload {window!r} is not a number") from None
    if not 0 <= margin < math.inf:
        raise ReproError(f"range payload {window!r} is not a finite, non-negative margin")
    return margin


class LBSProvider:
    """Serves anonymized requests over a POI database."""

    def __init__(self, pois: POIDatabase):
        self.pois = pois
        #: requests served per category — the billing counters of §VII.
        self.billing: Dict[str, int] = {}
        self.served = 0
        #: provider *rounds*: batched exchanges (one network round-trip
        #: each, however many requests ride in it) — see ``serve_many``.
        self.rounds = 0

    def serve(self, request: AnonymizedRequest) -> QueryAnswer:
        """Answer one anonymized request.

        Payload convention (Example 2): ``poi`` names the request kind's
        target category; an optional ``range`` (meters) switches from
        nearest-POI to a range query around the cloak (a bad margin
        raises :class:`ReproError` before any query runs).
        """
        if not isinstance(request.cloak, Rect):
            raise ReproError(
                "this provider serves rectangular cloaks "
                f"(got {type(request.cloak).__name__})"
            )
        category = _payload_get(request.payload, "poi")
        if category is None:
            raise ReproError("request payload lacks a 'poi' category")
        window = _payload_get(request.payload, "range")
        if window is not None:
            margin = _range_margin(window)
            c = request.cloak
            rect = Rect(c.x1 - margin, c.y1 - margin, c.x2 + margin, c.y2 + margin)
            candidates = self.pois.range_query(rect, category)
        else:
            candidates = self.pois.nn_candidates(request.cloak, category)
        self.billing[category] = self.billing.get(category, 0) + 1
        self.served += 1
        return QueryAnswer(request.request_id, tuple(candidates))

    def serve_many(
        self, requests: Tuple[AnonymizedRequest, ...]
    ) -> Tuple[QueryAnswer, ...]:
        """One provider *round*: a batch of anonymized requests answered
        in a single exchange.

        The async gateway coalesces concurrent requests that share a
        cloak and batches the distinct cloaks of a window into one round,
        so the LBS pays one round-trip for many users — the serving-side
        analogue of k-sharing's request amortization.  Billing and
        ``served`` count per request exactly as :meth:`serve` does; the
        round itself is tallied in ``rounds``.
        """
        answers = tuple(self.serve(request) for request in requests)
        self.rounds += 1
        return answers
