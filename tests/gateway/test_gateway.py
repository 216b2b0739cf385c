"""Tests for the HTTP gateway: caches, tiers, the day's aggregates."""

from array import array

import pytest

from repro.gateway.cache import ObjectCache
from repro.gateway.gateway import default_upstream_model, node_store_latency
from repro.gateway.logs import CacheTier
from repro.gateway.replay import (
    ReplayConfig,
    WindowSummary,
    access_log,
    replay_trace,
    window_slices,
)
from repro.utils.rng import derive_rng
from repro.workloads.gateway_trace import ColumnarTrace, GatewayTraceConfig

#: A referrer code naming semi-popular site 01 (see ColumnarTrace).
SITE_01 = 2


def serve(*requests, capacity=10_000):
    """Serve hand-made ``(timestamp, cid, size[, referrer_code])``
    requests the way the replay's model backend serves a day, behind a
    ``capacity``-byte nginx cache: the ``(trace, ReplayResult)`` pair.
    CID 0 is the one pinned."""
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
    # the half byte keeps int(corpus * fraction) at capacity despite rounding
    fraction = (capacity + 0.5) / sum(trace.cid_sizes)
    config = ReplayConfig(seed=1, cache_fraction_of_corpus=fraction)
    return trace, replay_trace(trace, config)


def tiers_and_latencies(day):
    trace, result = day
    return [(entry.tier, entry.latency) for entry in access_log(trace, result.config)]


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
        # The miss is the first draw from window 0's stream.
        assert latency == default_upstream_model(derive_rng(1, "replay-latency", "0"))

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
        _, result = serve(
            (0.0, 1, 1000),  # miss
            (1.0, 1, 1000),  # nginx
            (2.0, 0, 1000),  # node store
        )
        assert result.combined_hit_rate == pytest.approx(2 / 3)

    def test_eviction_brings_requests_back_upstream(self):
        day = serve(
            (0.0, 1, 800), (1.0, 2, 800), (2.0, 1, 800),  # 2 evicts 1
            capacity=1000,
        )
        assert tiers_and_latencies(day)[2][0] == CacheTier.NON_CACHED

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
        trace, result = self._day()
        assert result.tier_counts == {
            "nginx": 1, "node_store": 1, "non_cached": 2, "shed": 0,
        }
        assert sum(result.tier_bytes.values()) == trace.total_bytes

    def test_bin_traffic(self):
        _, result = self._day()
        assert result.windows == [
            WindowSummary(0, requests=2, nginx=1, node_store=0, non_cached=1, shed=0),
            WindowSummary(1, requests=2, nginx=0, node_store=1, non_cached=1, shed=0),
        ]

    def test_request_rate_series(self):
        trace, _ = self._day()
        assert window_slices(trace.timestamps, 300.0)[0] == (0, 2, 0)

    def test_referral_statistics(self):
        trace, result = self._day()
        assert trace.request_at(3).referrer == "site-01.example"
        assert result.referred_share == 0.25
        assert result.semi_popular_referral_share == 1.0
        _, empty = serve()
        assert empty.referred_count == 0
        assert empty.semi_popular_referral_share == 0.0

    def test_empty_tier_summary(self):
        _, result = serve()
        assert set(result.tier_counts.values()) == {0}
        for tier in ("nginx", "node_store", "non_cached"):
            assert result.tier_percentile(tier, 50) == 0.0
