"""Tests for the HTTP gateway: caches, tiers, logging."""

import pytest

from repro.experiments.gateway_exp import GatewayExperimentResults
from repro.gateway.cache import ObjectCache
from repro.gateway.gateway import Gateway, default_upstream_model, node_store_latency
from repro.gateway.logs import (
    CacheTier,
    bin_traffic,
    referral_statistics,
    request_rate_series,
    tier_summary,
)
from repro.utils.rng import derive_rng
from repro.workloads.gateway_trace import GatewayRequest


def request(cid=1, size=1000, ts=0.0, pinned=False, referrer=None, user="u1"):
    return GatewayRequest(
        timestamp=ts, user=user, country="US", cid_index=cid,
        size=size, pinned=pinned, referrer=referrer,
    )


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


def make_gateway(capacity=10_000, pinned=frozenset({7})):
    return Gateway(
        cache_capacity_bytes=capacity,
        pinned_cids=set(pinned),
        rng=derive_rng(1, "gw"),
    )


class TestGatewayTiers:
    def test_first_request_is_non_cached(self):
        gateway = make_gateway()
        entry = gateway.serve(request(cid=1))
        assert entry.tier == CacheTier.NON_CACHED
        # The miss is the gateway's first draw from its stream.
        assert entry.latency == default_upstream_model(None, derive_rng(1, "gw"))

    def test_second_request_hits_nginx(self):
        gateway = make_gateway()
        gateway.serve(request(cid=1))
        entry = gateway.serve(request(cid=1))
        assert entry.tier == CacheTier.NGINX
        assert entry.latency == 0.0

    def test_pinned_request_hits_node_store(self):
        gateway = make_gateway()
        entry = gateway.serve(request(cid=7, pinned=True))
        assert entry.tier == CacheTier.NODE_STORE
        assert entry.latency < 0.024  # "consistently ... below 24ms"

    def test_pinned_content_stays_in_node_store_tier(self):
        # nginx bypasses its cache for node-store content (Table 5:
        # the node store keeps serving ~40% of requests all day).
        gateway = make_gateway()
        gateway.serve(request(cid=7, pinned=True))
        entry = gateway.serve(request(cid=7, pinned=True))
        assert entry.tier == CacheTier.NODE_STORE

    def test_combined_hit_rate(self):
        gateway = make_gateway()
        gateway.serve(request(cid=1))  # miss
        gateway.serve(request(cid=1))  # nginx
        gateway.serve(request(cid=7))  # node store
        results = GatewayExperimentResults(trace=None, log=gateway.log)
        assert results.combined_hit_rate() == pytest.approx(2 / 3)

    def test_eviction_brings_requests_back_upstream(self):
        gateway = make_gateway(capacity=1000)
        gateway.serve(request(cid=1, size=800))
        gateway.serve(request(cid=2, size=800))  # evicts 1
        entry = gateway.serve(request(cid=1, size=800))
        assert entry.tier == CacheTier.NON_CACHED

    def test_node_store_latency_bounded(self):
        rng = derive_rng(2, "lat")
        for _ in range(200):
            assert 0 < node_store_latency(rng) <= 0.024


class TestLogAggregation:
    def _log(self):
        gateway = make_gateway()
        entries = [
            gateway.serve(request(cid=1, size=1000, ts=0.0)),
            gateway.serve(request(cid=1, size=1000, ts=100.0)),
            gateway.serve(request(cid=7, size=500, ts=2000.0, pinned=True)),
            gateway.serve(request(cid=3, size=2000, ts=2200.0, referrer="site-01.example")),
        ]
        return entries

    def test_tier_summary_shares(self):
        rows = {row.tier: row for row in tier_summary(self._log())}
        assert rows[CacheTier.NGINX].request_share == 0.25
        assert rows[CacheTier.NODE_STORE].request_share == 0.25
        assert rows[CacheTier.NON_CACHED].request_share == 0.5
        total = sum(row.traffic_share for row in rows.values())
        assert total == pytest.approx(1.0)

    def test_bin_traffic(self):
        bins = bin_traffic(self._log(), bin_seconds=1800.0)
        assert bins[0] == (0.0, 1, 1)  # one miss, one nginx hit
        assert bins[1] == (1800.0, 1, 1)

    def test_request_rate_series(self):
        series = request_rate_series(self._log(), bin_seconds=300.0)
        assert series[0] == (0.0, 2)

    def test_referral_statistics(self):
        stats = referral_statistics(self._log())
        assert stats["referred_share"] == 0.25
        assert stats["semi_popular_share"] == 1.0
        assert stats["semi_popular_sites"] == 1
        assert referral_statistics([]) == {
            "referred_share": 0.0, "semi_popular_share": 0.0,
            "semi_popular_sites": 0,
        }

    def test_empty_tier_summary(self):
        rows = tier_summary([])
        assert all(row.request_share == 0 for row in rows)
