"""The master policy of the distributed setting (§V).

"The policy in this distributed setting is a master policy which
anonymizes a location l by referring to the policy constructed by the
individual server under whose jurisdiction l falls."

:class:`MasterPolicy` wraps the per-jurisdiction policies with exactly
that dispatch, and also exposes the merged view as a single
:class:`~repro.core.policy.CloakingPolicy` so auditing and cost
comparison reuse the standard tooling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..core.errors import UnknownUserError
from ..core.policy import CloakingPolicy
from ..core.requests import AnonymizedRequest, ServiceRequest, request_id_factory
from ..trees.partition import Jurisdiction

__all__ = ["MasterPolicy", "ServerPolicy"]


@dataclass(frozen=True)
class ServerPolicy:
    """One anonymization server's jurisdiction and its local policy."""

    jurisdiction: Jurisdiction
    policy: Optional[CloakingPolicy]  # None for an empty jurisdiction


class MasterPolicy:
    """Dispatches each user to the policy of her jurisdiction's server."""

    def __init__(self, servers: Sequence[ServerPolicy], db):
        self.servers = list(servers)
        self.db = db
        # Each server's policy was checked for masking when it was built;
        # the merge checks only that the parts tile ``db``'s users and
        # locate them where ``db`` does (CloakingPolicy.union).
        owned = [
            (i, s.policy) for i, s in enumerate(self.servers) if s.policy is not None
        ]
        self.merged = CloakingPolicy.union(
            [policy for __, policy in owned], db, name="master"
        )
        # The union lays the parts' rows out in server order, so the
        # server of every db row is one scatter.
        self._server_of_row = np.empty(len(db), dtype=np.intp)
        self._server_of_row[self.merged.row_order] = np.repeat(
            [i for i, __ in owned], [len(policy) for __, policy in owned]
        ).astype(np.intp)
        self._next_request_id = request_id_factory()

    # -- dispatch ------------------------------------------------------------

    def server_for(self, user_id: str) -> ServerPolicy:
        row = self.db.index()[1].get(str(user_id))
        if row is None:
            raise UnknownUserError(f"no jurisdiction covers user {user_id!r}")
        return self.servers[self._server_of_row[row]]

    def cloak_for(self, user_id: str):
        # The merged view holds each server's own cloak objects.
        return self.merged.cloak_for(user_id)

    def anonymize(self, request: ServiceRequest) -> AnonymizedRequest:
        server = self.server_for(request.user_id)
        return server.policy.anonymize(request, self._next_request_id)

    # -- analysis --------------------------------------------------------------

    def cost(self) -> float:
        return self.merged.cost()

    def average_cloak_area(self) -> float:
        return self.merged.average_cloak_area()

    def min_group_size(self) -> int:
        """Policy-aware anonymity level of the *whole* distributed system.

        Groups never span jurisdictions (each server cloaks only its own
        users), so the merged view's group sizes are the per-server group
        sizes.
        """
        return self.merged.min_group_size()

    @property
    def n_servers(self) -> int:
        return len(self.servers)

    def __repr__(self) -> str:
        return f"MasterPolicy(servers={self.n_servers}, users={len(self.merged)})"
