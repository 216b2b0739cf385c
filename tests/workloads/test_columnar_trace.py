"""Columnar trace generator: byte-identity with the legacy path.

The batched replay engine (PR 9) generates the day as parallel arrays
instead of 7.1 M ``GatewayRequest`` objects.  These tests pin the
contract that makes that safe: for the same seed the columnar stream is
**byte-identical** to the legacy object stream (same sha256 over a
canonical per-request serialization), so every consumer downstream of
the generator — tier resolution, grading, golden artifacts — sees
exactly the trace it always saw.
"""

import pytest

from repro.utils.rng import derive_rng
from repro.workloads.gateway_trace import (
    GatewayTraceConfig,
    generate_columnar_trace,
    generate_gateway_trace,
    trace_stream_sha256,
)

SCALE = 1000

#: ``trace_stream_sha256`` of the seed-42 day at ``SCALE``.
SEED_42_SHA256 = "0958f820ca785deefaa8e509390b1ddf7a9fcf1acfb420511f703ba318eb7a19"


@pytest.fixture(scope="module")
def config():
    return GatewayTraceConfig(scale=SCALE)


@pytest.fixture(scope="module")
def legacy(config):
    return generate_gateway_trace(config, derive_rng(42, "trace"))


@pytest.fixture(scope="module")
def columnar(config):
    return generate_columnar_trace(config, derive_rng(42, "trace"))


class TestByteIdentity:
    def test_same_seed_same_sha256(self, legacy, columnar):
        assert trace_stream_sha256(columnar.iter_requests()) == (
            trace_stream_sha256(legacy.requests)
        )

    def test_different_seed_differs(self, config, legacy):
        other = generate_columnar_trace(config, derive_rng(43, "trace"))
        assert trace_stream_sha256(other.iter_requests()) != (
            trace_stream_sha256(legacy.requests)
        )

    def test_requests_field_equal(self, legacy, columnar):
        for got, want in zip(columnar.iter_requests(), legacy.requests):
            assert got == want

    def test_to_gateway_trace_round_trip(self, legacy, columnar):
        rebuilt = columnar.to_gateway_trace()
        assert rebuilt.requests == legacy.requests
        assert rebuilt.pinned_cids == legacy.pinned_cids


class TestStreamPosition:
    """The columnar hot loop spells out the stdlib's draws instead of
    calling ``choice``/``choices``/``uniform``; it must consume exactly
    the draws the legacy generator does — same requests *and* the
    generator left at the same stream position."""

    @pytest.mark.parametrize("full_catalog", [False, True])
    @pytest.mark.parametrize("seed", [42, 43, 44])
    def test_same_stream_and_same_rng_state(self, seed, full_catalog):
        config = GatewayTraceConfig(scale=SCALE, full_catalog=full_catalog)
        legacy_rng = derive_rng(seed, "trace")
        columnar_rng = derive_rng(seed, "trace")
        legacy = generate_gateway_trace(config, legacy_rng)
        columnar = generate_columnar_trace(config, columnar_rng)
        assert trace_stream_sha256(columnar.iter_requests()) == (
            trace_stream_sha256(legacy.requests)
        )
        assert columnar_rng.getstate() == legacy_rng.getstate()

    def test_seed_42_stream_is_pinned(self, columnar):
        # A constant, so both generators drifting together cannot pass.
        assert trace_stream_sha256(columnar.iter_requests()) == SEED_42_SHA256

    def test_fallback_offset_branch_is_exercised(self, columnar):
        # Tail countries have no UTC-offset table entry: their requests
        # take the per-request fallback draw as their offset.
        countries = {columnar.user_countries[user] for user in columnar.user_ids}
        assert any(country.startswith("T") for country in countries)

    def test_narrow_column_typecodes(self, columnar):
        assert columnar.timestamps.typecode == "d"
        assert columnar.user_ids.typecode == "i"
        assert columnar.cid_ids.typecode == "i"
        assert columnar.referrer_codes.typecode == "h"


class TestAggregates:
    def test_counts_match_legacy(self, legacy, columnar):
        assert len(columnar) == len(legacy.requests)
        assert columnar.user_count == len(legacy.users())
        assert columnar.cid_count == len(legacy.unique_cids())
        assert columnar.total_bytes == legacy.total_bytes()

    def test_pinned_cids_match(self, legacy, columnar):
        assert columnar.pinned_cids == legacy.pinned_cids

    def test_timestamps_sorted(self, columnar):
        ts = columnar.timestamps
        assert all(ts[i] <= ts[i + 1] for i in range(len(ts) - 1))


class TestGatewayTraceCaching:
    """Regression: users()/unique_cids()/total_bytes() used to rescan
    all n requests on every call — O(n) per call, called in loops."""

    def test_computed_once(self, config):
        trace = generate_gateway_trace(config, derive_rng(7, "trace"))
        first = trace.users()
        assert trace.users() is first  # cached object, not a rescan
        assert trace.unique_cids() is trace.unique_cids()
        assert trace.total_bytes() == trace.total_bytes()

    def test_cached_values_correct(self, config):
        trace = generate_gateway_trace(config, derive_rng(7, "trace"))
        assert trace.users() == {r.user for r in trace.requests}
        assert trace.unique_cids() == {r.cid_index for r in trace.requests}
        assert trace.total_bytes() == sum(r.size for r in trace.requests)
