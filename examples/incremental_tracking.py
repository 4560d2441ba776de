#!/usr/bin/env python
"""Following a moving population across snapshots (§IV incremental
maintenance + §V dynamic pools + the trajectory caveat).

A population drifts for a stretch of snapshots.  Three views run side by
side:

1. a single :class:`IncrementalAnonymizer` repairing its DP matrix each
   snapshot (Figure 5(b)'s machinery);
2. a :class:`RebalancingPool` of four servers maintaining jurisdictions
   as density shifts (the paper's §V future-work item), one
   :class:`EpochManager` per jurisdiction: a server whose movers all
   stayed inside repairs like view 1, one that a mover left or entered
   re-fits;
3. the trajectory-linking attacker of the paper's *other* future-work
   item, measuring how per-snapshot anonymity erodes for a tracked user.

Run:  python examples/incremental_tracking.py
"""

from repro import IncrementalAnonymizer
from repro.attacks import anonymity_erosion
from repro.data import bay_area_master, sample_users
from repro.lbs import random_moves
from repro.parallel import RebalancingPool

K = 25
N_USERS = 8_000
N_SNAPSHOTS = 6
MOVE_FRACTION = 0.05


def main() -> None:
    region, master = bay_area_master(seed=7, n_intersections=3_000)
    db = sample_users(master, N_USERS, seed=41)

    single = IncrementalAnonymizer(region, K).fit(db)
    pool = RebalancingPool(region, K, n_servers=4).fit(db)
    tracked_user = db.user_ids()[17]
    policies = [single.policy]

    print(f"{N_USERS} users, k={K}, {N_SNAPSHOTS} snapshots, "
          f"{MOVE_FRACTION:.0%} movers each (≤200 m)\n")
    print(f"{'snap':>4}  {'repaired nodes':>14}  {'pool resolves':>13}  "
          f"{'pool imbalance':>14}  {'cost Δ vs pool':>14}")

    current = db
    for snap in range(1, N_SNAPSHOTS + 1):
        moves = random_moves(
            current, MOVE_FRACTION, region, max_distance=200.0, seed=snap
        )
        current = current.with_moves(moves)

        report = single.update(moves)
        pool_report = pool.advance(moves)
        policies.append(single.policy)

        single_cost = single.optimal_cost
        pool_cost = pool.master_policy().cost()
        delta = 100.0 * (pool_cost - single_cost) / single_cost
        flag = " (repartitioned)" if pool_report.repartitioned else ""
        print(f"{snap:>4}  {report.recomputed_nodes:>6}/{report.total_nodes:<7}"
              f"  {pool_report.resolved_jurisdictions:>13}"
              f"  {pool_report.imbalance:>14.2f}  {delta:>13.3f}%{flag}")

        assert single.policy.min_group_size() >= K
        assert pool.master_policy().min_group_size() >= K

    erosion = anonymity_erosion(tracked_user, policies)
    print(f"\ntrajectory view of user {tracked_user} (candidates after "
          f"linking requests across snapshots):")
    print("  " + " -> ".join(str(level) for level in erosion))
    if erosion[-1] < K:
        print(f"  per-snapshot {K}-anonymity held throughout, but the "
              f"linked trajectory narrowed to {erosion[-1]} candidates — "
              "the gap the paper leaves to trajectory-aware future work.")
    else:
        print(f"  this user's linked trajectory still has ≥ {K} candidates.")


if __name__ == "__main__":
    main()
