"""The gateway day behind Figs 4b/6/11, Table 5 and ``repro gateway``,
pinned request by request.

The replay's model backend serves the day: the nginx LRU and the pinned
node store decide each request's tier, and each 1800 s window draws its
latencies from its own ``(seed, "replay-latency", window)`` stream.
Three things hold it in place: sha256 literals of its access-log rows
at two shapes, the plain reference loop in ``tests.helpers``, which
must serve the day to the same tier and the same latency float request
for request, and :class:`ReplayResult`'s latency arrays, which must be
those same draws sorted.
"""

import dataclasses
import hashlib

import pytest

from repro.errors import ReproError
from repro.gateway.replay import (
    DEFAULT_CACHE_FRACTION_OF_CORPUS,
    TIER_NODE_STORE,
    TIER_NON_CACHED,
    ReplayConfig,
    access_log,
    replay_trace,
    request_latencies,
)
from repro.utils.rng import derive_rng
from repro.workloads.gateway_trace import GatewayTraceConfig, generate_columnar_trace
from tests.helpers import reference_gateway

#: The two days pinned. ``"scale150-cache1pct"`` caps nginx at 1 % of
#: that day's 1 677 472 907-byte corpus (16 774 729 bytes), so the LRU
#: evicts all day.
SHAPES = {
    "scale2000-seed99": ReplayConfig(seed=99, trace=GatewayTraceConfig(scale=2000)),
    "scale150-cache1pct": ReplayConfig(
        seed=99, trace=GatewayTraceConfig(scale=150), cache_fraction_of_corpus=0.01
    ),
}
#: Shape -> :func:`day_sha256` of its served day.
GATEWAY_DAY_SHA256 = {
    "scale2000-seed99": (
        "aeb8f249d0f2df12b5eaebcf6e94919a575d815ab096e90798a326806df373fd"
    ),
    "scale150-cache1pct": (
        "918098177913459db6d38e6317970d3583c586cb275b047c836809ff5de643fc"
    ),
}


def day_sha256(entries) -> str:
    """Digest of a served day's rows: timestamp, user, country, CID,
    size, tier, latency and referrer, floats by ``repr``."""
    digest = hashlib.sha256()
    for entry in entries:
        line = "%r|%s|%s|%d|%d|%s|%r|%s\n" % (
            entry.timestamp, entry.user, entry.country, entry.cid_index,
            entry.size, entry.tier.value, entry.latency, entry.referrer or "-",
        )
        digest.update(line.encode("ascii"))
    return digest.hexdigest()


def _trace(config):
    return generate_columnar_trace(config.trace, derive_rng(config.seed, "trace"))


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_gateway_day_is_pinned(shape):
    config = SHAPES[shape]
    assert day_sha256(access_log(_trace(config), config)) == GATEWAY_DAY_SHA256[shape]


def test_gateway_day_is_the_reference_loop():
    config = SHAPES["scale2000-seed99"]
    trace = _trace(config)
    capacity = max(1, int(sum(trace.cid_sizes) * DEFAULT_CACHE_FRACTION_OF_CORPUS))
    served = reference_gateway(trace.iter_requests(), capacity, config.seed)
    assert [(entry.tier, entry.latency) for entry in access_log(trace, config)] == served


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_request_latencies_are_the_replay_stream(shape):
    config = SHAPES[shape]
    trace = _trace(config)
    result = replay_trace(trace, config)
    tiers, latencies = request_latencies(trace, config)
    for code, replayed in (
        (TIER_NODE_STORE, result.node_store_latencies),
        (TIER_NON_CACHED, result.non_cached_latencies),
    ):
        drawn = sorted(latency for tier, latency in zip(tiers, latencies) if tier == code)
        assert drawn and drawn == replayed.tolist()


def test_request_latencies_are_the_model_backends_only():
    config = dataclasses.replace(SHAPES["scale2000-seed99"], miss_backend="fleet")
    with pytest.raises(ReproError):
        request_latencies(_trace(config), config)
