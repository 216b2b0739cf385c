"""What :func:`run_replay` hands to grading, pinned per backend.

Two things hold the merged day in place:

- sha256 literals of the result's tier accounting (counts and bytes),
  its referral counts and the bytes of both sorted latency arrays, at
  one small shape per miss backend;
- plain reference loops for the model backend: the tier bytes summed
  request by request over :func:`resolve_tiers`' tier column, the
  referral counts counted over the trace's referrer column, and each
  latency array as ``sorted()`` over every window cell's samples.

A fake fleet cell that sheds every other miss holds the shed overlay:
a shed request keeps its tier count but serves no bytes.
"""

import hashlib
import json
from array import array

import pytest

from repro.gateway import replay
from repro.gateway.replay import (
    TIER_NODE_STORE,
    TIER_NON_CACHED,
    ReplayConfig,
    _model_cell,
    resolve_tiers,
    run_replay,
    window_slices,
)
from repro.utils.rng import derive_rng
from repro.workloads.gateway_trace import (
    GatewayTraceConfig,
    generate_columnar_trace,
)

#: Backend -> the replay pinned for it.
SHAPES = {
    "model": ReplayConfig(
        trace=GatewayTraceConfig(scale=1000, full_catalog=True)
    ),
    "fleet": ReplayConfig(
        trace=GatewayTraceConfig(scale=5000), miss_backend="fleet"
    ),
}
#: Backend -> :func:`result_sha256` of its replay.
REPLAY_SHA256 = {
    "model": (
        "4b336a392fedb6b1b88f56ae06755cefe14df38e95acbf09fd023550c3825448"
    ),
    "fleet": (
        "2f6acb05fe028ca9bceaa0be9f2acd1f0937b17f5eda5c8ab8532f1d92beebb2"
    ),
}

NAMES = ("nginx", "node_store", "non_cached", "shed")


def result_sha256(result) -> str:
    """Digest of the graded outputs: tier counts and bytes, referral
    counts and the bytes of both sorted latency arrays."""
    fields = {
        "tier_counts": result.tier_counts,
        "tier_bytes": result.tier_bytes,
        "served_bytes": result.served_bytes,
        "referred_count": result.referred_count,
        "semi_popular_count": result.semi_popular_count,
        "node_store": hashlib.sha256(
            result.node_store_latencies.tobytes()
        ).hexdigest(),
        "non_cached": hashlib.sha256(
            result.non_cached_latencies.tobytes()
        ).hexdigest(),
    }
    return hashlib.sha256(
        json.dumps(fields, sort_keys=True).encode("ascii")
    ).hexdigest()


@pytest.mark.parametrize("backend", sorted(SHAPES))
def test_replay_is_pinned(backend):
    assert result_sha256(run_replay(SHAPES[backend])) == REPLAY_SHA256[backend]


def test_workers_do_not_move_the_pin():
    result = run_replay(SHAPES["model"], workers=2)
    assert result_sha256(result) == REPLAY_SHA256["model"]


def test_model_replay_equals_the_reference_loops():
    config = SHAPES["model"]
    result = run_replay(config)
    trace = generate_columnar_trace(config.trace, derive_rng(config.seed, "trace"))
    capacity = max(1, int(sum(trace.cid_sizes) * config.cache_fraction_of_corpus))
    tiers, _ = resolve_tiers(trace, capacity)

    tier_bytes = dict.fromkeys(NAMES, 0)
    for tier, cid in zip(tiers, trace.cid_ids):
        tier_bytes[NAMES[tier]] += trace.cid_sizes[cid]
    assert result.tier_bytes == tier_bytes
    assert result.served_bytes == trace.total_bytes

    referred = semi_popular = 0
    for code in trace.referrer_codes:
        if code != 0:
            referred += 1
        if code > 0:
            semi_popular += 1
    assert (result.referred_count, result.semi_popular_count) == (
        referred, semi_popular,
    )

    node_store, non_cached = [], []
    for start, stop, window in window_slices(trace.timestamps, config.window_s):
        cell = _model_cell(config.seed, window, tiers[start:stop].tobytes())
        node_store.extend(cell["node_store"])
        non_cached.extend(cell["non_cached"])
    assert result.node_store_latencies == array("d", sorted(node_store))
    assert result.non_cached_latencies == array("d", sorted(non_cached))


def test_a_shed_miss_serves_no_bytes(monkeypatch):
    def every_other_miss_shed(seed, window, window_start, rel_ts, miss_cids,
                              size_hints):
        n = len(rel_ts)
        return {
            "window": window,
            "latencies": array("d", (1.0 + index for index in range(n))),
            "shed": bytes(index % 2 for index in range(n)),
            "overload": {"coalesced_joins": 0},
            "failovers": 0,
            "marked_offline": 0,
            "down_errors": 0,
        }

    config = SHAPES["fleet"]
    monkeypatch.setattr(replay, "_fleet_cell", every_other_miss_shed)
    result = run_replay(config)

    trace = generate_columnar_trace(config.trace, derive_rng(config.seed, "trace"))
    capacity = max(1, int(sum(trace.cid_sizes) * config.cache_fraction_of_corpus))
    tiers, _ = resolve_tiers(trace, capacity)
    misses = [
        trace.cid_sizes[cid]
        for tier, cid in zip(tiers, trace.cid_ids)
        if tier == TIER_NON_CACHED
    ]
    shed_bytes = 0
    kept = []
    for start, stop, _ in window_slices(trace.timestamps, config.window_s):
        position = 0
        for index in range(start, stop):
            if tiers[index] == TIER_NON_CACHED:
                if position % 2:
                    shed_bytes += trace.cid_sizes[trace.cid_ids[index]]
                else:
                    kept.append(1.0 + position)
                position += 1
    assert result.tier_counts["shed"] > 0
    assert result.tier_counts["shed"] + result.tier_counts["non_cached"] == len(
        misses
    )
    assert result.tier_bytes["shed"] == 0
    assert result.tier_bytes["non_cached"] == sum(misses) - shed_bytes
    assert result.served_bytes == trace.total_bytes - shed_bytes
    assert result.non_cached_latencies == array("d", sorted(kept))
    assert result.tier_counts["node_store"] == sum(
        1 for tier in tiers if tier == TIER_NODE_STORE
    )
