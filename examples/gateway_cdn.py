#!/usr/bin/env python3
"""Scenario: an HTTP gateway as a caching CDN in front of IPFS.

Mirrors Section 3.4/6.3: browser users without IPFS software hit an
HTTP gateway whose nginx cache and pinned node store absorb most
demand, while cache misses pay full IPFS retrieval latency. Replays a
scaled-down day of ipfs.io-like traffic and prints the cache economics.

Run:  python examples/gateway_cdn.py
"""

from repro.experiments.gateway_exp import (
    GatewayExperimentConfig,
    run_gateway_experiment,
)
from repro.workloads.gateway_trace import GatewayTraceConfig


def main() -> None:
    config = GatewayExperimentConfig(
        trace=GatewayTraceConfig(scale=200)  # 7.1 M / 200 ≈ 35 k requests
    )
    results = run_gateway_experiment(config)
    usage = results.usage_summary()
    print(f"replayed {usage['requests']:.0f} requests from "
          f"{usage['users']:.0f} users over {usage['unique_cids']:.0f} CIDs "
          f"({usage['bytes'] / 1e9:.1f} GB served)\n")

    print("cache tiers (cf. the paper's Table 5):")
    for row in results.tier_table():
        print(f"  {row.tier.value:16s} median latency {row.median_latency:7.3f} s"
              f"   requests {row.request_share:6.1%}"
              f"   traffic {row.traffic_share:6.1%}")
    print(f"\ncombined cache hit rate: {results.combined_hit_rate():.1%} "
          "(the paper reports >80%)")

    latency = results.latency_cdf()
    print(f"requests served under 250 ms: {latency.probability_at(0.25):.1%} "
          "(paper: 76%)")

    # Cache misses are the expensive minority: show the hourly pattern.
    print("\ncached vs non-cached per 3 h bin:")
    for start, cached, non_cached in results.traffic_bins(3 * 3600.0):
        bar = "#" * int(40 * cached / (cached + non_cached))
        print(f"  {start / 3600:4.0f}h  {bar:40s} "
              f"{cached / (cached + non_cached):5.1%} cached")

    referrals = results.referrals()
    print(f"\nreferred traffic: {referrals['referred_share']:.1%} of requests "
          f"(paper 51.8%), {referrals['semi_popular_share']:.0%} of it from "
          f"{referrals['semi_popular_sites']:.0f} semi-popular sites")


if __name__ == "__main__":
    main()
