"""Cross-module property tests (hypothesis) on system invariants."""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, example, given, settings

from repro.blockstore.block import Block
from repro.blockstore.lru import LruBlockstore
from repro.blockstore.memory import MemoryBlockstore
from repro.dht.keyspace import key_for_peer, xor_distance
from repro.dht.provider_store import ProviderStore
from repro.dht.records import ProviderRecord
from repro.gateway.cache import ObjectCache
from repro.merkledag.builder import DagBuilder
from repro.merkledag.reader import DagReader
from repro.multiformats.cid import make_cid
from repro.multiformats.peerid import PeerId
from repro.utils.retry import RetryPolicy


@settings(max_examples=30)
@given(
    data=st.binary(min_size=0, max_size=20_000),
    chunk=st.integers(min_value=1, max_value=4096),
    fanout=st.integers(min_value=2, max_value=16),
)
def test_dag_pipeline_total_roundtrip(data, chunk, fanout):
    """Any content, any chunking, any fanout: import -> read is
    lossless, the root is stable, and every block self-certifies."""
    store = MemoryBlockstore()
    builder = DagBuilder(store, chunk_size=chunk, fanout=fanout)
    first = builder.add_bytes(data)
    second = builder.add_bytes(data)
    assert first.root == second.root  # determinism
    reader = DagReader(store)
    assert reader.cat(first.root) == data
    for cid in reader.all_cids(first.root):
        assert store.get(cid).verify()
    assert reader.total_size(first.root) == len(data)


@settings(max_examples=30)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["put", "get", "delete"]), st.integers(0, 15)),
        max_size=60,
    ),
    capacity=st.integers(min_value=8, max_value=200),
)
def test_lru_blockstore_capacity_invariant(ops, capacity):
    """No operation sequence can push an LRU store past its capacity,
    and whatever it reports holding it can actually serve."""
    store = LruBlockstore(capacity_bytes=capacity)
    blocks = {i: Block.from_data(bytes([i]) * (1 + i % 7)) for i in range(16)}
    for op, i in ops:
        block = blocks[i]
        if op == "put":
            store.put(block)
        elif op == "get" and store.has(block.cid):
            assert store.get(block.cid) == block
        elif op == "delete":
            store.delete(block.cid)
        assert store.size_bytes() <= capacity
        assert store.size_bytes() == sum(
            blocks[j].size for j in range(16) if store.has(blocks[j].cid)
        )


@settings(max_examples=30)
@given(
    ops=st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 4), st.floats(0, 100_000)),
        min_size=1,
        max_size=40,
    )
)
def test_provider_store_never_serves_expired(ops):
    """After any add sequence, reads at time T only return records
    published within the expiry window."""
    store = ProviderStore(expiry_interval=1000.0)
    cids = [make_cid(b"c%d" % i) for i in range(10)]
    peers = [PeerId.from_public_key(b"p%d" % i) for i in range(5)]
    latest = 0.0
    for cid_i, peer_i, when in ops:
        store.add(ProviderRecord(cids[cid_i], peers[peer_i], when))
        latest = max(latest, when)
    now = latest + 1.0
    for cid in cids:
        for record in store.providers_for(cid, now):
            assert now - record.published_at < 1000.0


@settings(max_examples=20, suppress_health_check=[HealthCheck.too_slow])
@given(
    keys=st.lists(st.binary(min_size=1, max_size=8), min_size=2, max_size=30,
                  unique=True)
)
def test_closest_is_globally_consistent(keys):
    """Routing-table closest() agrees with brute force for any set."""
    from repro.dht.routing_table import RoutingTable

    peers = [PeerId.from_public_key(k) for k in keys]
    table = RoutingTable(peers[0])
    for peer in peers[1:]:
        table.add(peer)
    target = key_for_peer(PeerId.from_public_key(b"target"))
    got = table.closest(target, 5)
    brute = sorted(
        table.peers(), key=lambda p: xor_distance(key_for_peer(p), target)
    )[:5]
    assert got == brute


@settings(max_examples=30)
@given(
    inserts=st.lists(
        st.tuples(st.integers(0, 30), st.integers(1, 50)), max_size=80
    ),
    capacity=st.integers(min_value=50, max_value=500),
)
def test_object_cache_accounting(inserts, capacity):
    """Hit+miss counters and byte accounting stay consistent under any
    lookup/insert interleaving."""
    cache = ObjectCache(capacity)
    expected_lookups = 0
    for key, size in inserts:
        cache.lookup(key)
        expected_lookups += 1
        cache.insert(key, size)
        assert cache.used_bytes <= capacity
    assert cache.hits + cache.misses == expected_lookups


retry_policies = st.builds(
    lambda attempts, base, extra, jitter: RetryPolicy(
        max_attempts=attempts,
        base_delay_s=base,
        max_delay_s=base + extra,
        jitter=jitter,
    ),
    attempts=st.integers(min_value=2, max_value=8),
    base=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    extra=st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
    jitter=st.sampled_from(["none", "decorrelated"]),
)


@settings(max_examples=50)
@given(policy=retry_policies, seed=st.integers(min_value=0, max_value=2**32))
def test_retry_delays_bounded_by_cap(policy, seed):
    """Every backoff delay any policy produces lies in [0, cap] — and
    for jittered modes in [base, cap] — no matter the attempt number."""
    from repro.utils.rng import rng_from_seed

    rng = rng_from_seed(seed)
    previous = policy.base_delay_s
    for attempt in range(1, policy.max_attempts):
        delay = policy.next_delay(attempt, previous, rng)
        assert 0.0 <= delay <= policy.max_delay_s
        if policy.jitter == "decorrelated":
            assert delay >= policy.base_delay_s
        previous = delay


@settings(max_examples=30)
@given(
    policy=retry_policies,
    failures=st.integers(min_value=0, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_retry_attempt_budget_never_exceeded(policy, failures, seed):
    """However many attempts fail, the driver makes at most
    max_attempts of them and settles with the scripted outcome."""
    from repro.errors import ReproError
    from repro.simnet.sim import Future, Simulator
    from repro.utils.retry import retry
    from repro.utils.rng import rng_from_seed

    sim = Simulator()
    made = []

    def factory(attempt):
        made.append(attempt)
        if attempt <= failures:
            return Future.failed_with(ReproError(f"attempt {attempt}"))
        return Future.resolved("ok")

    def proc():
        return (yield from retry(sim, rng_from_seed(seed), policy, factory))

    try:
        result = sim.run_process(proc())
    except ReproError:
        result = "exhausted"
    assert len(made) <= policy.max_attempts
    assert made == list(range(1, len(made) + 1))
    if failures >= policy.max_attempts:
        assert result == "exhausted"
    else:
        assert result == "ok"


def _brute_force_percentile(values, q):
    """Independent linear-interpolation reference (numpy's default)."""
    ordered = sorted(float(v) for v in values)
    if len(ordered) == 1:
        return ordered[0]
    position = q / 100.0 * (len(ordered) - 1)
    below = int(position)
    if below == len(ordered) - 1:
        return ordered[-1]
    weight = position - below
    return ordered[below] + (ordered[below + 1] - ordered[below]) * weight


@settings(max_examples=60)
@given(
    values=st.lists(
        st.floats(min_value=-1e9, max_value=1e9,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=60,
    ),
    q=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
)
@example(values=[0.0] * 20 + [279593470.0] * 3, q=89.0)
def test_percentile_matches_brute_force(values, q):
    """utils.stats.percentile agrees with an independently written
    reference, stays inside [min, max], and is permutation-invariant."""
    from repro.utils.stats import percentile, percentiles

    got = percentile(values, q)
    # tolerance scales with magnitude: the symmetric lerp
    # a*(1-f) + b*f can land an ulp outside [a, b]
    eps = 1e-9 + 4e-15 * max(abs(v) for v in values)
    # The two sides may compute the fractional rank with differently
    # rounded expressions, so allow a few ulps of relative slack (the
    # pinned example lands at rel ~6e-15 via a 2.8e8 magnitude).
    assert got == pytest.approx(
        _brute_force_percentile(values, q), rel=1e-12, abs=1e-6
    )
    assert min(values) - eps <= got <= max(values) + eps
    assert percentile(list(reversed(values)), q) == pytest.approx(got)
    assert percentiles(values, [q]) == [got]


@settings(max_examples=60)
@given(
    values=st.lists(
        st.floats(min_value=-1e9, max_value=1e9,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=40,
    ),
    q_lo=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    q_hi=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
)
@example(values=[0.0, 0.0, -961890635.4346431, -961890635.4346431],
         q_lo=0.0, q_hi=23.75)
def test_percentile_monotone_in_q(values, q_lo, q_hi):
    from repro.utils.stats import percentile

    if q_lo > q_hi:
        q_lo, q_hi = q_hi, q_lo
    # The lerp can land an ulp outside [a, b], so the slack must scale
    # with magnitude (the pinned example undershoots min by 1 ulp of 1e9).
    eps = 1e-9 + 4e-15 * max(abs(v) for v in values)
    assert percentile(values, q_lo) <= percentile(values, q_hi) + eps


dht_keys = st.binary(min_size=32, max_size=32)


@settings(max_examples=80)
@given(a=dht_keys, b=dht_keys, c=dht_keys)
def test_xor_metric_axioms(a, b, c):
    """XOR distance is a metric: identity, symmetry, and the (strong)
    triangle inequality d(a,c) <= d(a,b) ^ d(b,c) <= d(a,b) + d(b,c)."""
    d_ab = xor_distance(a, b)
    d_bc = xor_distance(b, c)
    d_ac = xor_distance(a, c)
    assert xor_distance(a, a) == 0
    assert (d_ab == 0) == (a == b)
    assert d_ab == xor_distance(b, a)
    assert d_ac == d_ab ^ d_bc  # XOR geometry is exactly associative
    assert d_ac <= d_ab + d_bc


@settings(max_examples=80)
@given(a=dht_keys, b=dht_keys)
def test_common_prefix_bounds_distance(a, b):
    """Sharing cpl leading bits pins the distance into one bucket:
    2^(255-cpl) <= d < 2^(256-cpl) — monotonicity of bucket order."""
    from repro.dht.keyspace import KEY_BITS, common_prefix_length

    cpl = common_prefix_length(a, b)
    distance = xor_distance(a, b)
    assert 0 <= cpl <= KEY_BITS
    if a == b:
        assert cpl == KEY_BITS
    else:
        assert distance < 2 ** (KEY_BITS - cpl)
        assert distance >= 2 ** (KEY_BITS - cpl - 1)


@settings(max_examples=15)
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_simulation_event_order_is_deterministic(seed):
    """Two simulators fed the same schedule fire identically."""
    from repro.simnet.sim import Simulator
    from repro.utils.rng import rng_from_seed

    def trace(sim):
        rng = rng_from_seed(seed)
        fired = []
        for index in range(30):
            delay = rng.uniform(0, 10)
            sim.schedule(delay, lambda i=index: fired.append((sim.now, i)))
        sim.run()
        return fired

    assert trace(Simulator()) == trace(Simulator())
