#!/usr/bin/env python3
"""Scenario: an HTTP gateway as a caching CDN in front of IPFS.

Mirrors Section 3.4/6.3: browser users without IPFS software hit an
HTTP gateway whose nginx cache and pinned node store absorb most
demand, while cache misses pay full IPFS retrieval latency. Replays a
scaled-down day of ipfs.io-like traffic and prints the cache economics.

Run:  python examples/gateway_cdn.py
"""

from bisect import bisect_right

from repro.experiments.datasets import gateway_dataset
from repro.gateway.logs import CacheTier


def main() -> None:
    # 7.1 M / 200 ≈ 35 k requests, served by the replay's model backend
    trace, result = gateway_dataset(200, seed=99)
    print(f"replayed {result.n_requests} requests from "
          f"{result.user_count} users over {result.cid_count} CIDs "
          f"({result.total_bytes / 1e9:.1f} GB served)\n")

    print("cache tiers (cf. the paper's Table 5):")
    for tier in (CacheTier.NGINX, CacheTier.NODE_STORE, CacheTier.NON_CACHED):
        name = tier.name.lower()  # the tier's key in ReplayResult
        print(f"  {tier.value:16s} median latency "
              f"{result.tier_percentile(name, 50):7.3f} s"
              f"   requests {result.tier_counts[name] / result.n_requests:6.1%}"
              f"   traffic {result.tier_bytes[name] / result.total_bytes:6.1%}")
    print(f"\ncombined cache hit rate: {result.combined_hit_rate:.1%} "
          "(the paper reports >80%)")

    under_250ms = result.tier_counts["nginx"] + sum(
        bisect_right(latencies, 0.25)
        for latencies in (result.node_store_latencies, result.non_cached_latencies)
    )
    print(f"requests served under 250 ms: {under_250ms / result.n_requests:.1%} "
          "(paper: 76%)")

    # Cache misses are the expensive minority: show the pattern over the
    # day, six 30-min windows to a bin.
    print("\ncached vs non-cached per 3 h bin:")
    bins: dict[int, list[int]] = {}
    for window in result.windows:
        counts = bins.setdefault(window.window // 6, [0, 0])
        counts[0] += window.nginx + window.node_store
        counts[1] += window.non_cached
    for index, (cached, non_cached) in sorted(bins.items()):
        bar = "#" * int(40 * cached / (cached + non_cached))
        print(f"  {3 * index:4d}h  {bar:40s} "
              f"{cached / (cached + non_cached):5.1%} cached")

    sites = len({code for code in trace.referrer_codes if code > 0})
    print(f"\nreferred traffic: {result.referred_share:.1%} of requests "
          f"(paper 51.8%), {result.semi_popular_referral_share:.0%} of it from "
          f"{sites} semi-popular sites")


if __name__ == "__main__":
    main()
