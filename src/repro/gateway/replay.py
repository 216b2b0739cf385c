"""Batched full-day gateway replay: the 7.1 M-request day in minutes.

The day runs in three batched stages. :func:`run_replay` runs all
three; :func:`replay_trace` runs the last two on a trace in hand, which
is how :func:`~repro.experiments.datasets.gateway_dataset` serves the
figures and ``repro gateway``:

1. **Columnar trace** —
   :func:`~repro.workloads.gateway_trace.generate_columnar_trace`
   produces the day as parallel arrays (``iter_requests`` is the
   object view of the same arrays).
2. **Tier resolution** — one sequential, RNG-free pass over the CID
   column with a plain-dict LRU with
   :class:`~repro.gateway.cache.ObjectCache` semantics (hit-refresh,
   oversize decline, FIFO eviction) in front of the pinned store.
   Tier decisions never consume randomness, so the tier sequence is a
   pure function of the trace and the cache size.
3. **Batched windows** — the day is cut into fixed time windows
   (default 1800 s, the Fig 11b bin width) and each window becomes one
   deterministic :class:`~repro.experiments.runner.Cell`: latency
   sampling and the miss tail run per-window with RNG streams derived
   from ``(seed, stage, window)``, so the merged result is
   byte-identical for any ``--workers N``.

Two miss-tail backends:

- ``model`` — misses and node-store hits sample the fitted latency
  distributions (:func:`~repro.gateway.gateway.default_upstream_model`,
  :func:`~repro.gateway.gateway.node_store_latency`) through
  :func:`sample_latencies`. This is the one server of the day: the
  figures and the graded replay read it, and :func:`request_latencies`
  gives the same draws in request order (the access log, Fig 11's
  size/latency r).
- ``fleet`` — each window's misses replay through a fresh
  :class:`~repro.gateway.fleet.GatewayFleet` of real
  :class:`~repro.gateway.bridge.GatewayBridge` instances over a live
  simulated IPFS world, reusing the PR-8 overload machinery verbatim:
  single-flight coalescing, ``MissGate`` admission control (sheds
  become :data:`TIER_SHED`), brownout, health-checked consistent-hash
  failover and shared provider hints. The front-end tier decision is
  kept (the bounded nginx LRU); within a window a re-missed CID that
  the bridge already fetched is served from the bridge's node store —
  the same retention a real gateway's co-located IPFS node exhibits.
"""

from __future__ import annotations

import math
import random
import time
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from repro.errors import ReproError
from repro.experiments.runner import Cell, run_cells
from repro.gateway.bridge import GatewayBridge
from repro.gateway.fleet import FleetConfig, GatewayFleet, build_fleet_world
from repro.gateway.gateway import (
    _NODE_STORE_MAX_S,
    _NODE_STORE_MEDIAN_S,
    _NODE_STORE_SIGMA,
    _NON_CACHED_MEDIAN_REMAINDER_S,
    _NON_CACHED_SIGMA,
)
from repro.gateway.logs import AccessLogEntry, CacheTier
from repro.gateway.overload import OverloadConfig, ProviderHintCache
from repro.simnet.latency import PeerClass, Region
from repro.utils.rng import derive_rng
from repro.workloads.gateway_trace import (
    ColumnarTrace,
    GatewayTraceConfig,
    generate_columnar_trace,
)

#: The nginx cache holds ~15 % of the corpus, which lands the nginx
#: tier at Table 5's ≈46 % (the paper's gateway runs a bounded disk
#: cache against 274 k distinct objects).
DEFAULT_CACHE_FRACTION_OF_CORPUS = 0.15

#: Array-friendly tier codes (stage 2 output, one byte per request).
TIER_NGINX = 0
TIER_NODE_STORE = 1
TIER_NON_CACHED = 2
TIER_SHED = 3

TIER_NAMES: dict[int, CacheTier] = {
    TIER_NGINX: CacheTier.NGINX,
    TIER_NODE_STORE: CacheTier.NODE_STORE,
    TIER_NON_CACHED: CacheTier.NON_CACHED,
    TIER_SHED: CacheTier.SHED,
}

# The fitted constants of default_upstream_model and node_store_latency,
# hoisted for _model_cell's loop.
_LOG_REMAINDER = math.log(_NON_CACHED_MEDIAN_REMAINDER_S)
_LOG_STORE_MEDIAN = math.log(_NODE_STORE_MEDIAN_S)


@dataclass(frozen=True)
class ReplayConfig:
    """One replay run: a trace scale, a cache size and a miss backend."""

    seed: int = 42
    trace: GatewayTraceConfig = field(
        default_factory=lambda: GatewayTraceConfig(scale=1)
    )
    #: nginx-cache budget as a fraction of the corpus bytes. The
    #: default (0.15) lands Table 5's ≈46 % nginx share at the CI
    #: scales (40-120); the full-scale day calibrates its own fraction
    #: (see ``full_day_config``).
    cache_fraction_of_corpus: float = DEFAULT_CACHE_FRACTION_OF_CORPUS
    #: window/cell width in trace seconds (Fig 11b uses 1800 s bins).
    window_s: float = 1800.0
    miss_backend: str = "model"

    def __post_init__(self) -> None:
        if self.miss_backend not in {"model", "fleet"}:
            raise ReproError(f"unknown miss backend: {self.miss_backend!r}")
        if self.window_s <= 0:
            raise ReproError(f"window_s must be positive, got {self.window_s}")


# ----------------------------------------------------------------------
# stage 2: array-level LRU tier resolution
# ----------------------------------------------------------------------


def resolve_tiers(
    trace: ColumnarTrace, capacity_bytes: int
) -> tuple[array, list[int]]:
    """Resolve the cache tier of every request in one sequential pass.

    Makes an ``ObjectCache`` LRU's decisions in front of the pinned
    store — hit refreshes recency, pinned CIDs bypass the nginx
    cache, misses insert (oversize objects declined) and evict FIFO
    while over budget — using a plain insertion-ordered dict instead of
    per-request objects. No RNG is consumed: the tier sequence is a
    pure function of the trace and the capacity.

    Returns the tier column and the bytes requested per tier, indexed
    by tier code: the nginx and non-cached bytes are summed as the
    tiers are decided, the node store has the rest of the day's bytes,
    and nothing is shed here.
    """
    if capacity_bytes <= 0:
        raise ReproError(f"capacity must be positive, got {capacity_bytes}")
    n_pinned = trace.n_pinned
    sizes = trace.cid_sizes
    tiers = array("b", bytes(len(trace)))
    cache: dict[int, int] = {}  # cid -> size, oldest-inserted first
    used = nginx_bytes = miss_bytes = 0
    for index, cid in enumerate(trace.cid_ids):
        if cid in cache:
            cache[cid] = size = cache.pop(cid)  # re-insert = move to MRU end
            nginx_bytes += size
            tiers[index] = TIER_NGINX
        elif cid < n_pinned:
            # Pinned content is already on local disk, and nginx
            # bypasses its cache for it (double caching would only
            # evict remote content): that keeps the node store at
            # ~40 % of requests all day in Table 5.
            tiers[index] = TIER_NODE_STORE
        else:
            tiers[index] = TIER_NON_CACHED
            size = sizes[cid]
            miss_bytes += size
            if size <= capacity_bytes:
                cache[cid] = size
                used += size
                while used > capacity_bytes:
                    oldest = next(iter(cache))
                    used -= cache.pop(oldest)
    store_bytes = trace.total_bytes - nginx_bytes - miss_bytes
    return tiers, [nginx_bytes, store_bytes, miss_bytes, 0]


def window_slices(
    timestamps: array, window_s: float
) -> list[tuple[int, int, int]]:
    """Cut the sorted timestamp column into ``(start, stop, window)``
    index ranges, one per non-empty fixed-width window."""
    slices: list[tuple[int, int, int]] = []
    n = len(timestamps)
    start = 0
    while start < n:
        window = int(timestamps[start] // window_s)
        stop = bisect_left(timestamps, (window + 1) * window_s, start)
        slices.append((start, stop, window))
        start = stop
    return slices


# ----------------------------------------------------------------------
# stage 3 cells
# ----------------------------------------------------------------------


def sample_latencies(
    rnd: Callable[[], float], tiers: Iterable[int]
) -> tuple[array, array]:
    """Fitted latencies of a tier sequence, drawn from ``rnd`` in order:
    ``(node_store, non_cached)``, each in request order.

    Per node-store request the loop draws what
    :func:`~repro.gateway.gateway.node_store_latency` draws, per
    non-cached request what
    :func:`~repro.gateway.gateway.default_upstream_model` draws — one
    ``lognormvariate`` each, written out so that no stdlib frame is
    entered per sample; nginx and shed requests draw nothing. Tests
    hold the samples and the final generator state equal to the calls'.
    """
    log, exp = math.log, math.exp
    magic = random.NV_MAGICCONST
    store_mu, store_sigma, store_max = (
        _LOG_STORE_MEDIAN, _NODE_STORE_SIGMA, _NODE_STORE_MAX_S
    )
    rest_mu, rest_sigma = _LOG_REMAINDER, _NON_CACHED_SIGMA
    node_store = array("d")
    non_cached = array("d")
    for tier in tiers:
        if tier == TIER_NODE_STORE or tier == TIER_NON_CACHED:
            # rng.normalvariate(0, 1), spelled out: Kinderman-Monahan.
            while True:
                u1 = rnd()
                u2 = 1.0 - rnd()
                z = magic * (u1 - 0.5) / u2
                if z * z / 4.0 <= -log(u2):
                    break
            if tier == TIER_NODE_STORE:
                latency = exp(store_mu + z * store_sigma)
                node_store.append(latency if latency < store_max else store_max)
            else:
                non_cached.append(1.0 + exp(rest_mu + z * rest_sigma))
    return node_store, non_cached


def _model_cell(seed: int, window: int, tier_bytes: bytes) -> dict:
    """Sample fitted latencies for one window (picklable cell body).

    The RNG stream derives from ``(seed, "replay-latency", window)``:
    every window is independent of its siblings and of the worker
    layout, which is what makes the merged day byte-identical for any
    worker count.
    """
    rnd = derive_rng(seed, "replay-latency", str(window)).random
    node_store, non_cached = sample_latencies(rnd, tier_bytes)
    return {
        "window": window,
        "node_store": node_store,
        "non_cached": non_cached,
        "shed": bytes(len(tier_bytes)),  # model backend never sheds
    }


#: The per-window mini-world the ``fleet`` backend replays misses
#: against: a DATACENTER publisher holding every missed object, this
#: many bridge nodes behind the hardened fleet, and a small DHT backdrop.
FLEET_GATEWAYS = 3
FLEET_BACKDROP = 12
#: bytes actually published/fetched per missed object (the trace's own
#: sizes budget admission control via ``size_hint``; shipping multi-MB
#: payloads through the simulated network would only slow the replay
#: down without changing the overload semantics).
FLEET_PAYLOAD_SIZE = 24 * 1024
#: per-bridge nginx cache.
FLEET_BRIDGE_CACHE_BYTES = 256 * 1024 * 1024
FLEET_OVERLOAD = OverloadConfig(
    max_inflight_misses=8,
    queue_capacity_bytes=64 * 1024 * 1024,
    queue_deadline_s=20.0,
    brownout_threshold=0.9,
)
FLEET_ROUTING = FleetConfig()


def _fleet_cell(
    seed: int,
    window: int,
    window_start: float,
    rel_ts: array,
    miss_cids: array,
    size_hints: array,
) -> dict:
    """Replay one window's miss tail through a real gateway fleet.

    Builds a fresh simulated world (publisher + bridges + backdrop)
    derived from ``(seed, window)``, publishes every distinct missed
    object, then issues the misses at their in-window arrival times
    through :meth:`GatewayFleet.get` — the PR-8 coalescing, admission
    control, shedding and failover code paths, unmodified.
    """
    label = str(window)
    sim, publisher, gateway_nodes, _ = build_fleet_world(
        seed, "replay", label, Region.NA_WEST, PeerClass.DATACENTER,
        FLEET_GATEWAYS, FLEET_BACKDROP,
    )

    hints = ProviderHintCache()
    bridges = [
        GatewayBridge(
            node,
            cache_capacity_bytes=FLEET_BRIDGE_CACHE_BYTES,
            overload=FLEET_OVERLOAD,
            provider_hints=hints,
        )
        for node in gateway_nodes
    ]
    fleet = GatewayFleet(sim, bridges, FLEET_ROUTING)

    distinct = list(dict.fromkeys(miss_cids))  # first-appearance order
    payload_rng = derive_rng(seed, "replay-objects", label)

    n = len(rel_ts)
    latencies = array("d", [0.0]) * n
    shed_flags = bytearray(n)

    def client(index: int, cid, hint: int):
        started = sim.now
        response = yield from fleet.get(cid, user="replay", size_hint=hint)
        latencies[index] = sim.now - started
        shed_flags[index] = 1 if response.shed else 0

    def driver():
        yield from publisher.publish_peer_record()
        cid_map = {}
        for trace_cid in distinct:
            root, _ = yield from publisher.add_and_publish(
                payload_rng.randbytes(FLEET_PAYLOAD_SIZE)
            )
            cid_map[trace_cid] = root
        replay_start = sim.now
        futures = []
        for index in range(n):
            target = replay_start + rel_ts[index]
            if target > sim.now:
                yield target - sim.now
            futures.append(
                sim.spawn(
                    client(index, cid_map[miss_cids[index]], size_hints[index])
                ).future
            )
        for future in futures:
            if future.done:
                continue
            try:
                yield future
            except Exception:  # noqa: BLE001 - recorded by the client
                pass

    sim.run_process(driver())
    sim.run()

    totals = fleet.overload_totals()
    return {
        "window": window,
        "latencies": latencies,
        "shed": bytes(shed_flags),
        "overload": totals,
        "failovers": fleet.stats.failovers,
        "marked_offline": fleet.stats.marked_offline,
        "down_errors": fleet.stats.down_errors,
        "coalesced_joins": totals["coalesced_joins"],
    }


# ----------------------------------------------------------------------
# assembly
# ----------------------------------------------------------------------


@dataclass
class WindowSummary:
    """Per-window tier counts (the Fig 11b time series, one row per
    1800 s bin by default)."""

    window: int
    requests: int
    nginx: int
    node_store: int
    non_cached: int
    shed: int


@dataclass
class ReplayResult:
    """The merged day: tier accounting plus latency distributions."""

    config: ReplayConfig
    backend: str
    n_requests: int
    user_count: int
    cid_count: int
    #: bytes requested / actually served (sheds serve zero bytes).
    total_bytes: int
    served_bytes: int
    #: requests arriving via a third-party referrer / via one of the
    #: 72 semi-popular sites (Section 6.3, Gateway Referrals).
    referred_count: int
    semi_popular_count: int
    tier_counts: dict[str, int]
    tier_bytes: dict[str, int]
    #: sorted latency samples per non-trivial tier (nginx hits are 0.0
    #: and only counted — materializing 3.3 M zeros buys nothing).
    node_store_latencies: array
    non_cached_latencies: array
    overload_totals: dict[str, int]
    failovers: int
    marked_offline: int
    down_errors: int
    windows: list[WindowSummary]
    #: wall-clock seconds per stage — diagnostic only, excluded from
    #: every canonical artifact (it would break byte-identity).
    timings: dict[str, float]

    @property
    def nginx_share(self) -> float:
        return self.tier_counts["nginx"] / self.n_requests

    @property
    def node_store_share(self) -> float:
        return self.tier_counts["node_store"] / self.n_requests

    @property
    def non_cached_share(self) -> float:
        return self.tier_counts["non_cached"] / self.n_requests

    @property
    def shed_share(self) -> float:
        return self.tier_counts["shed"] / self.n_requests

    @property
    def combined_hit_rate(self) -> float:
        hits = self.tier_counts["nginx"] + self.tier_counts["node_store"]
        return hits / self.n_requests

    @property
    def answered_fraction(self) -> float:
        return 1.0 - self.shed_share

    @property
    def referred_share(self) -> float:
        return self.referred_count / self.n_requests

    @property
    def semi_popular_referral_share(self) -> float:
        if not self.referred_count:
            return 0.0
        return self.semi_popular_count / self.referred_count

    @property
    def requests_per_user(self) -> float:
        return self.n_requests / self.user_count

    @property
    def requests_per_cid(self) -> float:
        return self.n_requests / self.cid_count

    def latency_percentile(self, q: float) -> float:
        """Overall TTFB percentile across every *served* request:
        nginx hits (0.0 s) merge with the sorted node-store and
        non-cached samples without materializing the zeros."""
        zeros = self.tier_counts["nginx"]
        store = self.node_store_latencies
        upstream = self.non_cached_latencies

        def at(i: int) -> float:
            if i < zeros:
                return 0.0
            i -= zeros
            if i < len(store):
                # node-store latencies max out at 24 ms, below every
                # non-cached sample's 1 s Bitswap floor: the merged
                # order is zeros, then store, then upstream.
                return store[i]
            return upstream[i - len(store)]

        return _percentile(at, zeros + len(store) + len(upstream), q)

    def tier_percentile(self, tier: str, q: float) -> float:
        """Percentile within one tier's latencies (nginx hits are all
        0.0 s; a shed request has no latency, so ``"shed"`` is not a
        tier here)."""
        if tier == "nginx":
            samples = ()  # nothing is sampled: every nginx hit is 0.0 s
        elif tier == "node_store":
            samples = self.node_store_latencies
        elif tier == "non_cached":
            samples = self.non_cached_latencies
        else:
            raise ReproError(f"no latency samples for tier {tier!r}")
        return _percentile(samples.__getitem__, len(samples), q)


def _percentile(at: Callable[[int], float], n: int, q: float) -> float:
    """Linear-interpolated ``q``-th percentile of the sorted samples
    ``at(0) .. at(n - 1)``; 0.0 when there are none."""
    if not 0 <= q <= 100:
        raise ReproError(f"percentile must be within [0, 100], got {q}")
    if n == 0:
        return 0.0
    position = (n - 1) * q / 100.0
    lower = int(position)
    upper = min(lower + 1, n - 1)
    fraction = position - lower
    return at(lower) * (1.0 - fraction) + at(upper) * fraction


#: The merge sorts a stage's latency samples about this many at a time.
_SORT_BUCKET = 1 << 14
#: Every this-many-th sample of each sorted run votes for the pivots.
_PIVOT_STRIDE = 64


def _sorted_array(runs: Iterable[array]) -> array:
    """``array("d", sorted(all samples))``, without boxing every sample
    at once.

    Each run (one window's samples) is sorted on its own, and no
    original is held once its sorted copy exists. Shared pivots, taken
    from a regular sample of the sorted runs, then split every run with
    ``bisect_right``; value range by value range, the runs' slices are
    concatenated in run order, sorted and appended. Every copy of a
    value falls in the same range, and a range's copies keep run order
    and, within a run, input order — exactly ``sorted()``'s stable
    order over the concatenated runs, float for float, for any values
    without NaN (latencies are finite and positive).
    """
    runs = [array("d", sorted(run)) for run in runs]
    total = sum(map(len, runs))
    sample = sorted(
        value for run in runs for value in run[_PIVOT_STRIDE - 1::_PIVOT_STRIDE]
    )
    ranges = min(total // _SORT_BUCKET, len(sample)) + 1
    pivots = [sample[len(sample) * k // ranges] for k in range(1, ranges)]
    merged = array("d")
    starts = [0] * len(runs)
    for pivot in pivots + [math.inf]:
        bucket: list[float] = []
        for index, run in enumerate(runs):
            start = starts[index]
            stop = bisect_right(run, pivot, start)
            bucket.extend(run[start:stop])
            starts[index] = stop
        bucket.sort()
        merged.fromlist(bucket)
    return merged


def run_replay(config: ReplayConfig, workers: int = 1) -> ReplayResult:
    """Generate ``config``'s day (stage 1) and replay it
    (:func:`replay_trace`). The trace lives until this returns."""
    started = time.perf_counter()
    trace = generate_columnar_trace(config.trace, derive_rng(config.seed, "trace"))
    generate_s = time.perf_counter() - started
    result = replay_trace(trace, config, workers)
    result.timings = {
        "generate_s": generate_s,
        **result.timings,
        "total_s": time.perf_counter() - started,
    }
    return result


def _capacity(trace: ColumnarTrace, config: ReplayConfig) -> int:
    """The nginx-cache budget in bytes: ``config``'s share of the corpus."""
    return max(1, int(sum(trace.cid_sizes) * config.cache_fraction_of_corpus))


def replay_trace(
    trace: ColumnarTrace, config: ReplayConfig, workers: int = 1
) -> ReplayResult:
    """Serve one generated day through stages 2–3 and merge it.

    Tier resolution is sequential; stage 3 (latency sampling / the
    miss tail) shards per time window through ``run_cells``. The result
    is byte-identical for any ``workers`` count.
    """
    timings: dict[str, float] = {}
    resolve_started = time.perf_counter()
    tiers, bytes_by_tier = resolve_tiers(trace, _capacity(trace, config))
    timings["resolve_s"] = time.perf_counter() - resolve_started

    slices = window_slices(trace.timestamps, config.window_s)
    cells: list[Cell] = []
    if config.miss_backend == "model":
        for start, stop, window in slices:
            cells.append(
                Cell(
                    f"replay[model|{window}]",
                    _model_cell,
                    (config.seed, window, tiers[start:stop].tobytes()),
                )
            )
    else:
        for start, stop, window in slices:
            rel_ts = array("d")
            miss_cids = array("l")
            size_hints = array("l")
            window_start = window * config.window_s
            for index in range(start, stop):
                if tiers[index] == TIER_NON_CACHED:
                    rel_ts.append(trace.timestamps[index] - window_start)
                    cid = trace.cid_ids[index]
                    miss_cids.append(cid)
                    size_hints.append(trace.cid_sizes[cid])
            cells.append(
                Cell(
                    f"replay[fleet|{window}]",
                    _fleet_cell,
                    (
                        config.seed, window, window_start,
                        rel_ts, miss_cids, size_hints,
                    ),
                )
            )

    cells_started = time.perf_counter()
    cell_results = run_cells(cells, workers)
    timings["windows_s"] = time.perf_counter() - cells_started

    merge_started = time.perf_counter()
    # Sheds overlay the front-end decision: a shed miss served nothing.
    if config.miss_backend == "fleet":
        sizes, cid_ids = trace.cid_sizes, trace.cid_ids
        for (start, stop, _window), result in zip(slices, cell_results):
            shed = result["shed"]
            cursor = 0
            for index in range(start, stop):
                if tiers[index] == TIER_NON_CACHED:
                    if shed[cursor]:
                        tiers[index] = TIER_SHED
                        bytes_by_tier[TIER_NON_CACHED] -= sizes[cid_ids[index]]
                    cursor += 1

    names = ("nginx", "node_store", "non_cached", "shed")
    counts = dict.fromkeys(names, 0)
    windows: list[WindowSummary] = []
    for start, stop, window in slices:
        window_tiers = tiers[start:stop].tobytes()  # bytes.count is a C scan
        per_window = [window_tiers.count(code) for code in range(len(names))]
        for name, count in zip(names, per_window):
            counts[name] += count
        windows.append(
            WindowSummary(
                window=window,
                requests=stop - start,
                nginx=per_window[TIER_NGINX],
                node_store=per_window[TIER_NODE_STORE],
                non_cached=per_window[TIER_NON_CACHED],
                shed=per_window[TIER_SHED],
            )
        )
    tier_bytes = dict(zip(names, bytes_by_tier))

    if config.miss_backend == "model":
        node_store = _sorted_array(r.pop("node_store") for r in cell_results)
        non_cached = _sorted_array(r.pop("non_cached") for r in cell_results)
        overload_totals: dict[str, int] = {}
        failovers = marked_offline = down_errors = 0
    else:
        # Node-store hits still sample the fitted disk-read latency —
        # the bridge uses the identical distribution for its own store.
        store_cells = run_cells(
            [
                Cell(
                    f"replay[store|{window}]",
                    _model_cell,
                    (
                        config.seed, window,
                        bytes(
                            tier if tier == TIER_NODE_STORE else TIER_NGINX
                            for tier in tiers[start:stop]
                        ),
                    ),
                )
                for start, stop, window in slices
            ],
            workers,
        )
        node_store = _sorted_array(r.pop("node_store") for r in store_cells)
        non_cached = _sorted_array(
            array(
                "d",
                (
                    latency
                    for latency, was_shed in zip(r["latencies"], r["shed"])
                    if not was_shed
                ),
            )
            for r in cell_results
        )
        overload_totals = {}
        failovers = marked_offline = down_errors = 0
        for result in cell_results:
            for key, value in result["overload"].items():
                overload_totals[key] = overload_totals.get(key, 0) + value
            failovers += result["failovers"]
            marked_offline += result["marked_offline"]
            down_errors += result["down_errors"]

    timings["merge_s"] = time.perf_counter() - merge_started

    return ReplayResult(
        config=config,
        backend=config.miss_backend,
        n_requests=len(trace),
        user_count=trace.user_count,
        cid_count=trace.cid_count,
        referred_count=trace.referred_count,
        semi_popular_count=trace.semi_popular_count,
        total_bytes=trace.total_bytes,
        served_bytes=sum(tier_bytes.values()),
        tier_counts=counts,
        tier_bytes=tier_bytes,
        node_store_latencies=node_store,
        non_cached_latencies=non_cached,
        overload_totals=overload_totals,
        failovers=failovers,
        marked_offline=marked_offline,
        down_errors=down_errors,
        windows=windows,
        timings=timings,
    )


def request_latencies(
    trace: ColumnarTrace, config: ReplayConfig
) -> tuple[array, array]:
    """Each request's tier code and latency, in request order.

    The model backend's own draws: the same tiers and the same
    per-window streams as :func:`replay_trace`, so each tier's
    latencies, sorted, are :class:`ReplayResult`'s arrays float for
    float. nginx hits cost 0 s.
    """
    if config.miss_backend != "model":
        raise ReproError("request latencies come from the model backend only")
    tiers, _ = resolve_tiers(trace, _capacity(trace, config))
    latencies = array("d", bytes(8 * len(tiers)))
    for start, stop, window in window_slices(trace.timestamps, config.window_s):
        cell = _model_cell(config.seed, window, tiers[start:stop].tobytes())
        drawn = {
            TIER_NODE_STORE: iter(cell["node_store"]),
            TIER_NON_CACHED: iter(cell["non_cached"]),
        }
        for index in range(start, stop):
            if tiers[index] != TIER_NGINX:
                latencies[index] = next(drawn[tiers[index]])
    return tiers, latencies


def access_log(trace: ColumnarTrace, config: ReplayConfig) -> Iterator[AccessLogEntry]:
    """The served day as access-log rows, in request order."""
    tiers, latencies = request_latencies(trace, config)
    for index, latency in enumerate(latencies):
        request = trace.request_at(index)
        yield AccessLogEntry(
            timestamp=request.timestamp,
            user=request.user,
            country=request.country,
            cid_index=request.cid_index,
            size=request.size,
            latency=latency,
            tier=TIER_NAMES[tiers[index]],
            referrer=request.referrer,
        )
