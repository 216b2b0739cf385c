"""Batched replay engine: tier resolution and window sharding.

The engine's load-bearing claim is that its array-level front end makes
*exactly* the decisions of a plain ``OrderedDict`` LRU gateway
(``tests.helpers.reference_gateway``): the nginx LRU, the pinned-store
bypass, and the optimistic insert after a miss.  These tests replay the
same trace through both and require the tier sequences to be equal
element-for-element.
"""

from array import array
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.errors import ReproError
from repro.gateway import replay
from repro.gateway.gateway import default_upstream_model, node_store_latency
from repro.gateway.replay import (
    TIER_NAMES,
    TIER_NGINX,
    TIER_NODE_STORE,
    TIER_NON_CACHED,
    TIER_SHED,
    ReplayConfig,
    _model_cell,
    _sorted_array,
    resolve_tiers,
    run_replay,
    window_slices,
)
from repro.utils.rng import derive_rng
from repro.workloads.gateway_trace import (
    GatewayTraceConfig,
    generate_columnar_trace,
)
from tests.helpers import reference_gateway


@pytest.fixture(scope="module")
def trace():
    return generate_columnar_trace(
        GatewayTraceConfig(scale=1000), derive_rng(42, "trace")
    )


class TestResolveTiers:
    @pytest.mark.parametrize("fraction", [0.02, 0.15, 0.5])
    def test_matches_object_gateway(self, trace, fraction):
        capacity = max(1, int(trace.total_bytes * fraction))
        tiers, _ = resolve_tiers(trace, capacity)

        served = reference_gateway(trace.iter_requests(), capacity, 42)
        assert [TIER_NAMES[fast] for fast in tiers] == [tier for tier, _ in served]

    def test_pinned_always_node_store(self, trace):
        tiers, _ = resolve_tiers(trace, 1)
        for tier, cid in zip(tiers, trace.cid_ids):
            if cid < trace.n_pinned:
                assert tier == TIER_NODE_STORE
            else:
                assert tier != TIER_NODE_STORE

    def test_tiny_cache_never_hits_nginx_twice_in_a_row(self, trace):
        # A 1-byte cache can never retain an object, so nothing can
        # ever be served from nginx.
        tiers, _ = resolve_tiers(trace, 1)
        assert TIER_NGINX not in set(tiers)

    @pytest.mark.parametrize("fraction", [0.02, 0.5])
    def test_tier_bytes_are_each_tiers_requested_bytes(self, trace, fraction):
        tiers, tier_bytes = resolve_tiers(trace, max(1, int(trace.total_bytes * fraction)))
        expected = [0, 0, 0, 0]
        for tier, cid in zip(tiers, trace.cid_ids):
            expected[tier] += trace.cid_sizes[cid]
        assert tier_bytes == expected
        assert expected[TIER_NGINX] and expected[TIER_NON_CACHED]
        assert sum(tier_bytes) == trace.total_bytes

    def test_infinite_cache_hits_after_first_touch(self, trace):
        tiers, _ = resolve_tiers(trace, trace.total_bytes * 10)
        seen = set()
        for tier, cid in zip(tiers, trace.cid_ids):
            if cid < trace.n_pinned:
                continue
            if cid in seen:
                assert tier == TIER_NGINX
            else:
                assert tier == TIER_NON_CACHED
            seen.add(cid)


class TestWindowSlices:
    def test_partition_is_exact(self, trace):
        slices = window_slices(trace.timestamps, 1800.0)
        assert slices[0][0] == 0
        assert slices[-1][1] == len(trace)
        for (_, stop, _), (start, _, _) in zip(slices, slices[1:]):
            assert stop == start

    def test_requests_fall_in_their_window(self, trace):
        for start, stop, window in window_slices(trace.timestamps, 1800.0):
            for i in range(start, stop):
                assert window * 1800.0 <= trace.timestamps[i]
                assert trace.timestamps[i] < (window + 1) * 1800.0

    def test_single_window_covers_day(self, trace):
        slices = window_slices(trace.timestamps, 1e9)
        assert slices == [(0, len(trace), 0)]


#: Runs of latency-like samples: few distinct values, so duplicates
#: land on (and straddle) the pivots; zeros of both signs; any finite
#: or infinite float but NaN.
samples = st.one_of(
    st.sampled_from([0.0, -0.0, 0.008, 0.024, 1.0, 4.04]),
    st.floats(allow_nan=False),
)
runs_of_samples = st.lists(st.lists(samples, max_size=40), max_size=8)


class TestSortedArray:
    """The merge's value-bucketed sort is ``sorted()``, float for float.

    Bucket and pivot-sample sizes are shrunk so that a few dozen samples
    already split into many value ranges."""

    @settings(max_examples=300, deadline=None)
    @given(
        runs=runs_of_samples,
        bucket=st.integers(1, 16),
        stride=st.integers(1, 8),
    )
    @example(runs=[], bucket=1, stride=1)
    @example(runs=[[], [], []], bucket=1, stride=1)
    @example(runs=[[3.0, 1.0, 2.0]], bucket=1, stride=1)
    @example(runs=[[7.5] * 30, [7.5] * 11], bucket=2, stride=1)
    @example(runs=[[1.0, 2.0, 2.0, 2.0], [2.0, 2.0, 3.0], [2.0]], bucket=1, stride=1)
    @example(runs=[[0.0, -0.0, 1.0], [-0.0, 0.0]], bucket=1, stride=1)
    def test_equals_one_sorted_call(self, runs, bucket, stride):
        expected = array("d", sorted(value for run in runs for value in run))
        with mock.patch.object(replay, "_SORT_BUCKET", bucket), mock.patch.object(
            replay, "_PIVOT_STRIDE", stride
        ):
            merged = _sorted_array(array("d", run) for run in runs)
        assert merged.tobytes() == expected.tobytes()

    def test_default_sizes_split_a_large_stage(self):
        rng = derive_rng(3, "sort")
        runs = [
            array("d", (rng.lognormvariate(0.0, 1.0) for _ in range(rng.randrange(9000))))
            for _ in range(48)
        ]
        total = sum(map(len, runs))
        assert total > 8 * replay._SORT_BUCKET  # several value ranges
        expected = array("d", sorted(value for run in runs for value in run))
        assert _sorted_array(iter(runs)).tobytes() == expected.tobytes()


class TestModelCell:
    def test_spelled_out_sampling_equals_the_model_calls(self, monkeypatch):
        """``_model_cell`` writes ``lognormvariate`` out by hand; the
        reference calls the two latency models once per byte. Samples
        and final generator state must agree, so a CPython change to
        ``normalvariate`` fails here, not in a digest three layers up."""
        tier_rng = derive_rng(9, "tiers")
        codes = (TIER_NGINX, TIER_NODE_STORE, TIER_NON_CACHED, TIER_SHED)
        tier_bytes = bytes(tier_rng.choices(codes, k=4000))
        assert set(tier_bytes) == set(codes)

        rngs = []

        def remembered(*labels):
            rngs.append(derive_rng(*labels))
            return rngs[-1]

        monkeypatch.setattr("repro.gateway.replay.derive_rng", remembered)
        result = _model_cell(42, 7, tier_bytes)
        (cell_rng,) = rngs

        rng = derive_rng(42, "replay-latency", "7")
        node_store, non_cached = array("d"), array("d")
        for tier in tier_bytes:
            if tier == TIER_NODE_STORE:
                node_store.append(node_store_latency(rng))
            elif tier == TIER_NON_CACHED:
                non_cached.append(default_upstream_model(rng))
        assert result["node_store"] == node_store
        assert result["non_cached"] == non_cached
        assert cell_rng.getstate() == rng.getstate()
        assert max(node_store) == 0.024  # the clamp was compared too
        assert result["window"] == 7
        assert result["shed"] == bytes(len(tier_bytes))


class TestRunReplay:
    def test_counts_are_consistent(self):
        config = ReplayConfig(trace=GatewayTraceConfig(scale=2000))
        result = run_replay(config)
        assert result.n_requests == 7_100_000 // 2000
        assert sum(result.tier_counts.values()) == result.n_requests
        assert sum(w.requests for w in result.windows) == result.n_requests
        assert result.tier_counts["non_cached"] == len(
            result.non_cached_latencies
        )
        assert result.tier_counts["node_store"] == len(
            result.node_store_latencies
        )

    def test_tier_shares_sum_to_one(self):
        result = run_replay(ReplayConfig(trace=GatewayTraceConfig(scale=2000)))
        total = (
            result.nginx_share
            + result.node_store_share
            + result.non_cached_share
            + result.shed_share
        )
        assert total == pytest.approx(1.0)

    def test_latency_percentiles_ordered(self):
        result = run_replay(ReplayConfig(trace=GatewayTraceConfig(scale=2000)))
        p50 = result.latency_percentile(50)
        p90 = result.latency_percentile(90)
        p99 = result.latency_percentile(99)
        assert 0.0 <= p50 <= p90 <= p99
        # Roughly half the requests are nginx hits at 0 s, so the
        # median sits in the node-store band (single-digit ms).
        assert p50 < 0.1
        assert p99 > 1.0  # the non-cached tail is seconds-scale

    def test_tier_percentile_answers_only_what_it_was_asked(self):
        result = run_replay(ReplayConfig(trace=GatewayTraceConfig(scale=2000)))
        store, upstream = result.node_store_latencies, result.non_cached_latencies
        assert result.tier_percentile("node_store", 0) == store[0]
        assert result.tier_percentile("node_store", 100) == store[-1]
        assert result.tier_percentile("non_cached", 0) == upstream[0]
        assert result.tier_percentile("non_cached", 100) == upstream[-1]
        assert upstream[0] < result.tier_percentile("non_cached", 50) < upstream[-1]
        # nginx hits are 0 s; this used to return the non-cached median
        assert result.tier_counts["nginx"] > 0
        assert result.tier_percentile("nginx", 50) == 0.0
        for tier in ("shed", "NODE_STORE", ""):
            with pytest.raises(ReproError, match="no latency samples for tier"):
                result.tier_percentile(tier, 50)

    @pytest.mark.parametrize("q", [-1, -0.001, 100.001, 250, float("nan")])
    def test_percentile_outside_0_100_is_refused(self, q):
        # a negative q used to wrap round to the top sample, q > 100
        # to raise IndexError
        result = run_replay(ReplayConfig(trace=GatewayTraceConfig(scale=5000)))
        for ask in (
            result.latency_percentile,
            lambda q: result.tier_percentile("non_cached", q),
            lambda q: result.tier_percentile("nginx", q),
        ):
            with pytest.raises(ReproError, match="percentile must be within"):
                ask(q)
