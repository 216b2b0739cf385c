"""The gateway day behind Figs 4b/6/11, Table 5 and ``repro gateway``,
pinned request by request.

:func:`run_gateway_experiment` serves one generated day through the
nginx LRU and the pinned node store and draws every latency from one
sequential stream. Two things hold it in place: sha256 literals of its
per-request rows at two shapes, and the plain reference loop in
``tests.helpers``, which must serve the day to the same tier and the
same latency float request for request.
"""

import hashlib

import pytest

from repro.experiments.gateway_exp import (
    GatewayExperimentConfig,
    run_gateway_experiment,
)
from repro.gateway.replay import DEFAULT_CACHE_FRACTION_OF_CORPUS
from repro.utils.rng import derive_rng
from repro.workloads.gateway_trace import GatewayTraceConfig
from tests.helpers import reference_gateway

#: The two days pinned. ``"scale150-cache1pct"`` caps nginx at 1 % of
#: that day's 1 677 472 907-byte corpus, so the LRU evicts all day.
SHAPES = {
    "scale2000-seed99": GatewayExperimentConfig(trace=GatewayTraceConfig(scale=2000)),
    "scale150-cache1pct": GatewayExperimentConfig(
        trace=GatewayTraceConfig(scale=150), cache_capacity_bytes=16_774_729
    ),
}
#: Shape -> :func:`day_sha256` of its served day.
GATEWAY_DAY_SHA256 = {
    "scale2000-seed99": (
        "63dd692a5cee1da9a4203a008dc68fd09f713c8b558b49126fb8ad4e84abd53e"
    ),
    "scale150-cache1pct": (
        "01884f35f2145da030ec6ee5c4e50cea3bf7fb32bbb8cd2cc134d6a0ade1d9c4"
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


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_gateway_day_is_pinned(shape):
    results = run_gateway_experiment(SHAPES[shape])
    assert day_sha256(results.entries()) == GATEWAY_DAY_SHA256[shape]


def test_gateway_day_is_the_reference_loop():
    config = SHAPES["scale2000-seed99"]
    results = run_gateway_experiment(config)
    corpus = sum(results.trace.cid_sizes)
    capacity = max(1, int(corpus * DEFAULT_CACHE_FRACTION_OF_CORPUS))
    served = reference_gateway(
        results.trace.iter_requests(), capacity, derive_rng(config.seed, "gateway")
    )
    assert [(entry.tier, entry.latency) for entry in results.entries()] == served
