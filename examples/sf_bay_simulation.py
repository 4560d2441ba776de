#!/usr/bin/env python
"""A day-in-the-life simulation of the privacy-conscious LBS pipeline.

Recreates the paper's deployment story (§II/§VII): a CSP anonymizes a
Bay-Area-style population with policy-aware 50-anonymity, users query
nearby POIs through it, the location database refreshes periodically
(≤200 m of movement per ~10 s snapshot, §VI-C) with the policy repaired
incrementally, and the answer cache keeps duplicate requests away from
the untrusted LBS while preserving billing.

Run:  python examples/sf_bay_simulation.py
"""

import time

import numpy as np

from repro.attacks import assert_policy_aware_k_anonymous
from repro.data import bay_area_master, sample_users
from repro.lbs import CSP, LBSProvider, generate_pois, random_moves

K = 50
N_USERS = 20_000
N_SNAPSHOTS = 4
REQUESTS_PER_SNAPSHOT = 400
CATEGORIES = {"rest": 400, "groc": 250, "cinema": 60, "hospital": 40}


def main() -> None:
    rng = np.random.default_rng(2010)
    region, master = bay_area_master(seed=7, n_intersections=5_000)
    db = sample_users(master, N_USERS, seed=7)
    pois = generate_pois(region, CATEGORIES, seed=7)
    print(f"{len(db)} users, {len(pois)} POIs on map {region}")

    t0 = time.perf_counter()
    csp = CSP(region, K, db, LBSProvider(pois))
    print(f"bulk anonymization: {time.perf_counter() - t0:.2f}s, "
          f"cost {csp.policy.cost():.3e} m²")
    assert_policy_aware_k_anonymous(csp.policy, K)

    users = db.user_ids()
    categories = list(CATEGORIES)
    for snapshot in range(N_SNAPSHOTS):
        # Serve a burst of requests against the current snapshot.
        latencies, hits, candidates = [], 0, []
        for __ in range(REQUESTS_PER_SNAPSHOT):
            uid = users[int(rng.integers(len(users)))]
            category = categories[int(rng.integers(len(categories)))]
            start = time.perf_counter()
            served = csp.request(uid, [("poi", category)])
            latencies.append(time.perf_counter() - start)
            hits += served.cache_hit
            candidates.append(served.candidate_count)
        print(f"snapshot {snapshot}: {REQUESTS_PER_SNAPSHOT} requests, "
              f"mean latency {1e3 * np.mean(latencies):.2f} ms, "
              f"cache hits {hits}, "
              f"mean candidate set {np.mean(candidates):.1f}")

        # The world moves: 2% of users relocate by ≤ 200 m.
        moves = random_moves(
            csp.mpc.db, 0.02, region,
            max_distance=200.0, seed=snapshot,
        )
        t0 = time.perf_counter()
        report = csp.advance_snapshot(moves)
        print(f"  moved {report.moved_users} users; repaired "
              f"{report.recomputed_nodes}/{report.total_nodes} DP nodes "
              f"in {time.perf_counter() - t0:.2f}s")
        assert_policy_aware_k_anonymous(csp.policy, K)

    print(f"\nLBS served {csp.provider.served} unique requests; "
          f"deferred billing by category: {dict(csp.cache.deferred_billing)}")
    settled = csp.cache.flush()
    print(f"cache flushed; settled duplicate billing: {settled}")


if __name__ == "__main__":
    main()
