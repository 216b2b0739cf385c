"""Tests for the HTTP gateway: caches, tiers, the day's aggregates."""

from array import array

import pytest

from repro.experiments.gateway_exp import GatewayExperimentResults
from repro.gateway.cache import ObjectCache
from repro.gateway.gateway import default_upstream_model, node_store_latency
from repro.gateway.logs import CacheTier
from repro.gateway.replay import resolve_tiers, sample_latencies
from repro.utils.rng import derive_rng
from repro.workloads.gateway_trace import ColumnarTrace, GatewayTraceConfig

#: A referrer code naming semi-popular site 01 (see ColumnarTrace).
SITE_01 = 2


def serve(*requests, capacity=10_000):
    """Serve hand-made ``(timestamp, cid, size[, referrer_code])``
    requests the way :func:`run_gateway_experiment` serves a day, with
    latencies from ``derive_rng(1, "gw")``. CID 0 is the one pinned."""
    rows = [(*request, 0)[:4] for request in requests]  # direct by default
    timestamps, cids, sizes, referrers = zip(*rows) if rows else ((),) * 4
    cid_sizes = dict(zip(cids, sizes))
    trace = ColumnarTrace(
        config=GatewayTraceConfig(),
        timestamps=array("d", timestamps),
        user_ids=array("i", [0] * len(rows)),
        cid_ids=array("i", cids),
        referrer_codes=array("h", referrers),
        cid_sizes=[cid_sizes.get(cid, 1) for cid in range(max(cids, default=0) + 1)],
        user_countries=["US"],
        n_pinned=1,
        total_bytes=sum(sizes),
        user_count=min(1, len(rows)),
        cid_count=len(cid_sizes),
        referred_count=sum(1 for code in referrers if code != 0),
        semi_popular_count=sum(1 for code in referrers if code > 0),
    )
    tiers, tier_bytes = resolve_tiers(trace, capacity)
    node_store, non_cached = sample_latencies(derive_rng(1, "gw").random, tiers)
    return GatewayExperimentResults(
        trace, tiers, tier_bytes, node_store, non_cached
    )


def tiers_and_latencies(results):
    return [(entry.tier, entry.latency) for entry in results.entries()]


class TestObjectCache:
    def test_hit_after_insert(self):
        cache = ObjectCache(10_000)
        assert not cache.lookup("a")
        cache.insert("a", 100)
        assert cache.lookup("a")
        assert cache.hits == 1
        assert cache.misses == 1

    def test_lru_eviction(self):
        cache = ObjectCache(200)
        cache.insert("a", 100)
        cache.insert("b", 100)
        cache.lookup("a")
        cache.insert("c", 100)  # evicts b
        assert "a" in cache
        assert "b" not in cache
        assert cache.evictions == 1

    def test_oversized_object_not_cached(self):
        cache = ObjectCache(100)
        cache.insert("big", 1000)
        assert "big" not in cache

    def test_reinsert_updates_size(self):
        cache = ObjectCache(300)
        cache.insert("a", 100)
        cache.insert("a", 250)
        assert cache.used_bytes == 250

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ObjectCache(0)

    def test_never_exceeds_capacity(self):
        cache = ObjectCache(500)
        for i in range(100):
            cache.insert(i, 90)
            assert cache.used_bytes <= 500

    def test_object_exactly_at_capacity_is_cached(self):
        cache = ObjectCache(100)
        cache.insert("exact", 100)
        assert "exact" in cache
        assert cache.used_bytes == 100
        # And it evicts everything else when inserted into a warm cache.
        cache.insert("other", 1)
        cache.insert("exact2", 100)
        assert "exact2" in cache and "other" not in cache

    def test_eviction_callback_fires_per_eviction(self):
        evicted = []
        cache = ObjectCache(200, on_evict=evicted.append)
        cache.insert("a", 100)
        cache.insert("b", 100)
        cache.insert("c", 150)  # evicts a and b
        assert evicted == ["a", "b"]
        # Re-inserting an existing key is an update, not an eviction.
        cache.insert("c", 140)
        assert evicted == ["a", "b"]
        # Declined oversized inserts never fire the callback.
        cache.insert("huge", 10_000)
        assert evicted == ["a", "b"]

    def test_used_bytes_tracks_entries_under_random_ops(self):
        rng = derive_rng(17, "cache-ops")
        evicted = []
        cache = ObjectCache(1000, on_evict=evicted.append)
        for _ in range(500):
            key = rng.randrange(40)
            if rng.random() < 0.7:
                cache.insert(key, rng.randrange(1, 400))
            else:
                cache.lookup(key)
            assert cache.used_bytes == sum(cache._entries.values())
            assert 0 <= cache.used_bytes <= cache.capacity_bytes
        # Every key is either cached now or was evicted (or declined);
        # no entry leaked out of the byte accounting.
        assert len(cache) <= 40


class TestGatewayTiers:
    def test_first_request_is_non_cached(self):
        [(tier, latency)] = tiers_and_latencies(serve((0.0, 1, 1000)))
        assert tier == CacheTier.NON_CACHED
        # The miss is the day's first draw from its stream.
        assert latency == default_upstream_model(derive_rng(1, "gw"))

    def test_second_request_hits_nginx(self):
        served = tiers_and_latencies(serve((0.0, 1, 1000), (1.0, 1, 1000)))
        assert served[1] == (CacheTier.NGINX, 0.0)

    def test_pinned_request_hits_node_store(self):
        [(tier, latency)] = tiers_and_latencies(serve((0.0, 0, 1000)))
        assert tier == CacheTier.NODE_STORE
        assert latency < 0.024  # "consistently ... below 24ms"

    def test_pinned_content_stays_in_node_store_tier(self):
        # nginx bypasses its cache for node-store content (Table 5:
        # the node store keeps serving ~40% of requests all day).
        served = tiers_and_latencies(serve((0.0, 0, 1000), (1.0, 0, 1000)))
        assert [tier for tier, _ in served] == [CacheTier.NODE_STORE] * 2

    def test_combined_hit_rate(self):
        results = serve(
            (0.0, 1, 1000),  # miss
            (1.0, 1, 1000),  # nginx
            (2.0, 0, 1000),  # node store
        )
        assert results.combined_hit_rate() == pytest.approx(2 / 3)

    def test_eviction_brings_requests_back_upstream(self):
        results = serve(
            (0.0, 1, 800), (1.0, 2, 800), (2.0, 1, 800),  # 2 evicts 1
            capacity=1000,
        )
        assert tiers_and_latencies(results)[2][0] == CacheTier.NON_CACHED

    def test_node_store_latency_bounded(self):
        rng = derive_rng(2, "lat")
        for _ in range(200):
            assert 0 < node_store_latency(rng) <= 0.024


class TestLogAggregation:
    def _day(self):
        return serve(
            (0.0, 1, 1000),
            (100.0, 1, 1000),
            (2000.0, 0, 500),
            (2200.0, 3, 2000, SITE_01),
        )

    def test_tier_summary_shares(self):
        rows = {row.tier: row for row in self._day().tier_table()}
        assert rows[CacheTier.NGINX].request_share == 0.25
        assert rows[CacheTier.NODE_STORE].request_share == 0.25
        assert rows[CacheTier.NON_CACHED].request_share == 0.5
        total = sum(row.traffic_share for row in rows.values())
        assert total == pytest.approx(1.0)

    def test_bin_traffic(self):
        bins = self._day().traffic_bins(bin_seconds=1800.0)
        assert bins[0] == (0.0, 1, 1)  # one miss, one nginx hit
        assert bins[1] == (1800.0, 1, 1)

    def test_request_rate_series(self):
        series = self._day().request_series(bin_seconds=300.0)
        assert series[0] == (0.0, 2)

    def test_referral_statistics(self):
        day = self._day()
        assert [entry.referrer for entry in day.entries()][-1] == "site-01.example"
        stats = day.referrals()
        assert stats["referred_share"] == 0.25
        assert stats["semi_popular_share"] == 1.0
        assert stats["semi_popular_sites"] == 1
        assert serve().referrals() == {
            "referred_share": 0.0, "semi_popular_share": 0.0,
            "semi_popular_sites": 0,
        }

    def test_empty_tier_summary(self):
        rows = serve().tier_table()
        assert all(row.request_share == 0 for row in rows)
