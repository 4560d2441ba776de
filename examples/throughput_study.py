#!/usr/bin/env python
"""Throughput study: cloaking vs cryptographic PIR (§VII).

Replays a stretch of deployment (Poisson requests, periodic snapshot
refreshes, answer cache) through the real CSP and async gateway on
virtual time, and positions the result against the PIR cost model built
from [15]'s published numbers — the feasibility half of the paper's
privacy/feasibility trade-off argument.  Virtual time charges no CPU,
so the cloaking latencies are modelled waits (batching window plus the
~2 ms provider round the paper measures).

Run:  python examples/throughput_study.py
"""

from repro.baselines import PIRCostModel
from repro.data import bay_area_master, sample_users
from repro.experiments.replay import PROVIDER_RTT, replay_schedule
from repro.lbs import CSP, LBSProvider, generate_pois, trajectory_schedule

N_USERS = 5_000
K = 50
SIM_SECONDS = 300.0
N_POIS = 10_000


def main() -> None:
    region, master = bay_area_master(seed=7, n_intersections=2_000)
    db = sample_users(master, N_USERS, seed=31)

    print(f"{N_USERS} users, k={K}, {SIM_SECONDS:g}s of virtual time, "
          f"snapshot every 30s with 2% movers\n")

    schedule = trajectory_schedule(
        db,
        0.02,
        region,
        rate_per_user=0.02,   # one request ~every 50 s per user
        duration=SIM_SECONDS,
        snapshot_period=30.0,
        seed=11,
    )
    provider = LBSProvider(
        generate_pois(region, {"rest": 60, "groc": 40, "cinema": 30}, seed=12)
    )
    for label, use_cache in (("with answer cache", True), ("without cache", False)):
        csp = CSP(region, K, db, provider, use_cache=use_cache)
        run = replay_schedule(csp, schedule)
        served = len(run.served)
        print(f"{label:18s}: {run.summary()}")
        print(f"{'':18s}  {served / SIM_SECONDS:,.0f} req/s; the LBS saw "
              f"{run.stats.provider_queries / served:.0%} of requests")

    # The PIR alternative, per [15]'s published measurements.
    pir = PIRCostModel()
    print(f"\nPIR baseline at {N_POIS} POIs (published numbers of [15]):")
    for servers in (1, 8):
        latency = pir.seconds_per_query(N_POIS, servers)
        print(f"  {servers} server(s): {latency:6.2f} s/query "
              f"({pir.throughput(N_POIS, servers):.3f} q/s), "
              f"answer = {pir.answer_size(N_POIS)} POIs, "
              f"anonymity: {pir.anonymity}")

    cloaking_latency = PROVIDER_RTT
    ratio = pir.seconds_per_query(N_POIS, 1) / cloaking_latency
    print(f"\ncloaking serves a query ~{ratio:,.0f}× faster than "
          f"single-server PIR — the paper's 'three orders of magnitude' "
          f"(trading maximal anonymity for k-anonymity).")


if __name__ == "__main__":
    main()
