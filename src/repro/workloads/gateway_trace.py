"""Gateway request trace generator (Sections 4.2 and 6.3).

Generates one day of GET requests statistically matching the ipfs.io
dataset: 7.1 M requests from 101 k users over 274 k CIDs (scaled down
by ``scale``), with:

- **diurnal demand** (Fig 4b): a two-peak daily curve in the gateway's
  timezone, produced by mixing each user country's local daytime curve;
- **user geography** (Fig 6): US 50.4 %, CN 31.9 %, HK 6.6 %,
  CA 4.6 %, JP 1.7 %, plus a 54-country tail;
- **Zipf CID popularity** feeding the cache analysis (Fig 11b,
  Table 5); a configurable slice of CIDs is *pinned* (the Web3/NFT
  Storage content held in the gateway's node store);
- **object sizes** from the Fig 11a distribution;
- **referrers**: 51.8 % of traffic arrives via third-party websites,
  70.6 % of that from 72 semi-popular sites hosted mostly in the US,
  Iceland and Canada.
"""

from __future__ import annotations

import hashlib
import math
import random
from array import array
from bisect import bisect
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import accumulate

from repro.workloads.objects import sample_object_size

#: Fig 6 user-country shares (top five are from the paper).
USER_COUNTRY_SHARES: list[tuple[str, float]] = [
    ("US", 0.504), ("CN", 0.319), ("HK", 0.066), ("CA", 0.046), ("JP", 0.017),
]

#: Rough UTC offsets used to shape each country's diurnal curve.
_COUNTRY_UTC_OFFSET = {"US": -8, "CN": 8, "HK": 8, "CA": -5, "JP": 9}

#: Referrer calibration (Section 6.3, "Gateway Referrals").
REFERRED_FRACTION = 0.518
SEMI_POPULAR_FRACTION = 0.706
SEMI_POPULAR_SITES = 72
REFERRER_HOST_COUNTRIES = [("US", 0.473), ("IS", 0.200), ("CA", 0.127), ("DE", 0.2)]


@dataclass(frozen=True)
class GatewayRequest:
    """One log line of the gateway dataset."""

    timestamp: float  # seconds since midnight, gateway (PST) clock
    user: str  # anonymized IP + user agent combination
    country: str
    cid_index: int  # index into the trace's CID universe
    size: int  # object bytes
    pinned: bool  # held in the gateway's IPFS node store
    referrer: str | None


@dataclass(frozen=True)
class GatewayTraceConfig:
    """Scale knobs; defaults are the paper's numbers divided by
    ``scale`` (the full trace is 7.1 M requests)."""

    scale: int = 50
    total_requests: int = 7_100_000
    total_users: int = 101_000
    total_cids: int = 274_000
    zipf_exponent: float = 1.15
    pinned_cid_fraction: float = 0.04
    #: Probability mass of requests that target pinned CIDs (~40 % of
    #: requests are served from the node store in Table 5).
    pinned_request_share: float = 0.402
    seconds_per_day: int = 86_400
    #: Spread demand over the *whole* CID catalog: every ``stride``-th
    #: request (stride = requests // cids) is redirected to the next
    #: catalog slot, guaranteeing each of the day's CIDs at least one
    #: hit. Pure Zipf sampling leaves ~35 % of the universe untouched
    #: (179 k of 274 k CIDs at scale=1), but the paper's day counts
    #: 274 k *requested* CIDs — the catalog IS the requested set. The
    #: override happens after the draws, so the RNG stream (and hence
    #: every other request field) is identical with the flag on or off.
    full_catalog: bool = False

    @property
    def n_requests(self) -> int:
        return self.total_requests // self.scale

    @property
    def n_users(self) -> int:
        return max(1, self.total_users // self.scale)

    @property
    def n_cids(self) -> int:
        return max(10, self.total_cids // self.scale)


@dataclass
class GatewayTrace:
    """The generated day of traffic.

    The aggregate views (:meth:`users`, :meth:`unique_cids`,
    :meth:`total_bytes`) are computed once on first use and cached —
    grading code calls them repeatedly on multi-million-request traces.
    """

    requests: list[GatewayRequest]
    config: GatewayTraceConfig
    cid_sizes: list[int] = field(default_factory=list)
    pinned_cids: set[int] = field(default_factory=set)
    _users: set[str] | None = field(default=None, init=False, repr=False)
    _unique_cids: set[int] | None = field(default=None, init=False, repr=False)
    _total_bytes: int | None = field(default=None, init=False, repr=False)

    def users(self) -> set[str]:
        if self._users is None:
            self._users = {request.user for request in self.requests}
        return self._users

    def unique_cids(self) -> set[int]:
        if self._unique_cids is None:
            self._unique_cids = {request.cid_index for request in self.requests}
        return self._unique_cids

    def total_bytes(self) -> int:
        if self._total_bytes is None:
            self._total_bytes = sum(request.size for request in self.requests)
        return self._total_bytes


def _country_pool(rng: random.Random) -> tuple[list[str], list[float]]:
    countries = [country for country, _ in USER_COUNTRY_SHARES]
    weights = [share for _, share in USER_COUNTRY_SHARES]
    remaining = 1.0 - sum(weights)
    # 54 further countries share the tail (59 total, Section 5.1).
    tail = ["T%02d" % i for i in range(54)]
    tail_weights = [remaining / len(tail)] * len(tail)
    return countries + tail, weights + tail_weights


def diurnal_weight(second: float, utc_offset: int) -> float:
    """Relative demand at a gateway-clock time for users at an offset.

    Users are active in their local daytime: a raised cosine peaking at
    local 15:00 with a secondary evening bump. The trace generator's
    hot loop writes these four lines out in place, term for term (float
    addition does not associate); ``tests/workloads/test_columnar_trace.py``
    holds the two equal.
    """
    local_hour = ((second / 3600.0) + 8 + utc_offset) % 24  # gateway is PST (UTC-8)
    primary = math.cos((local_hour - 15.0) / 24.0 * 2 * math.pi)
    evening = 0.45 * math.cos((local_hour - 21.0) / 24.0 * 2 * math.pi)
    return max(0.08, 0.6 + primary + evening)


def _zipf_weights(n: int, exponent: float) -> list[float]:
    weights = [1.0 / (rank**exponent) for rank in range(1, n + 1)]
    total = sum(weights)
    return [w / total for w in weights]


def _catalog_sweep_stride(config: GatewayTraceConfig) -> int:
    """Stride of the full-catalog sweep, or 0 when the mode is off.

    Positions 0, stride, 2*stride, ... (in generation order, i.e.
    uniformly over the day once sorted) are redirected to catalog slots
    0, 1, 2, ... — one guaranteed request per CID.
    """
    if not config.full_catalog or config.n_requests < config.n_cids:
        return 0
    return config.n_requests // config.n_cids


# --------------------------------------------------------------------------
# The generator: the full 7.1 M-request day without 7.1 M objects.
# --------------------------------------------------------------------------

#: ``referrer_codes`` encoding: 0 = direct hit, positive v = semi-popular
#: site v-1, negative v = long-tail site -v-1.
_REFERRER_NONE = 0
_LONG_TAIL_SITES = 2000


@dataclass
class ColumnarTrace:
    """The day of traffic as parallel arrays instead of request objects.

    Per-request state is four machine-typed arrays (18 bytes per
    request instead of a ~250-byte :class:`GatewayRequest`); everything
    else (country, size, pinned flag, user/referrer strings) is derived
    on demand from the per-user / per-CID side tables. Aggregates are
    computed once at construction.
    """

    config: GatewayTraceConfig
    timestamps: array  # 'd', sorted ascending (gateway clock seconds)
    user_ids: array  # 'i', index into user_countries
    cid_ids: array  # 'i', index into cid_sizes; pinned iff < n_pinned
    referrer_codes: array  # 'h', see _REFERRER_NONE encoding above
    cid_sizes: list[int]
    user_countries: list[str]
    n_pinned: int
    total_bytes: int
    user_count: int  # distinct users that issued >= 1 request
    cid_count: int  # distinct CIDs requested >= 1 time

    def __len__(self) -> int:
        return len(self.timestamps)

    @property
    def n_requests(self) -> int:
        return len(self.timestamps)

    @property
    def pinned_cids(self) -> set[int]:
        return set(range(self.n_pinned))

    def referrer_at(self, index: int) -> str | None:
        code = self.referrer_codes[index]
        if code == _REFERRER_NONE:
            return None
        if code > 0:
            return "site-%02d.example" % (code - 1)
        return "tail-%04d.example" % (-code - 1)

    def request_at(self, index: int) -> GatewayRequest:
        """Materialize one request (equivalence tests, miss handoff)."""
        user_id = self.user_ids[index]
        cid_id = self.cid_ids[index]
        return GatewayRequest(
            timestamp=self.timestamps[index],
            user="user-%06d" % user_id,
            country=self.user_countries[user_id],
            cid_index=cid_id,
            size=self.cid_sizes[cid_id],
            pinned=cid_id < self.n_pinned,
            referrer=self.referrer_at(index),
        )

    def iter_requests(self) -> Iterator[GatewayRequest]:
        """Stream the day as :class:`GatewayRequest` objects."""
        return (self.request_at(index) for index in range(len(self.timestamps)))

    def to_gateway_trace(self) -> GatewayTrace:
        """Materialize the list-of-objects trace (small scales)."""
        return GatewayTrace(
            list(self.iter_requests()),
            self.config,
            list(self.cid_sizes),
            self.pinned_cids,
        )


def trace_stream_sha256(requests: Iterable[GatewayRequest]) -> str:
    """Canonical digest of a request stream: the byte-identity
    contract the tests pin per seed, for the columnar trace's
    ``iter_requests()`` and for ``GatewayTrace.requests`` alike."""
    digest = hashlib.sha256()
    for request in requests:
        line = "%r|%s|%s|%d|%d|%d|%s\n" % (
            request.timestamp,
            request.user,
            request.country,
            request.cid_index,
            request.size,
            int(request.pinned),
            request.referrer or "-",
        )
        digest.update(line.encode("ascii"))
    return digest.hexdigest()


def generate_columnar_trace(
    config: GatewayTraceConfig, rng: random.Random
) -> ColumnarTrace:
    """Generate the full day of requests, sorted by timestamp, as arrays.

    Draw order: each user's country, then each user's Pareto demand
    weight; each CID's size; the user of every request (one
    ``choices`` call); then per request, in generation order — the
    fallback UTC offset (drawn for *every* request, used only for tail
    countries), the rejection-sampled time of day, the pinned/open
    roll, the Zipf CID, the referred roll and, when referred, the
    semi-popular roll and the site. The same seed gives a byte-identical
    stream and leaves ``rng`` in the same state; tests pin both.

    The hot loop spells out what the stdlib calls would consume, so no
    Python frame is entered per draw: ``rng.choice(seq)`` is
    ``getrandbits(len(seq).bit_length())`` redrawn until ``< len(seq)``;
    ``rng.choices(pop, weights)[0]`` is one ``random()`` bisected into
    the cumulative weights (accumulated once, not per request); and
    :func:`diurnal_weight` is written out term for term.
    """
    countries, country_weights = _country_pool(rng)

    # Users: each bound to a country; per-user demand is heavy-tailed.
    user_countries = rng.choices(countries, country_weights, k=config.n_users)
    user_weights = [rng.paretovariate(1.3) for _ in range(config.n_users)]

    # CID universe: sizes, and the pinned set — the most popular slots,
    # since pinning targets exactly the content initiatives push
    # through the gateway.
    cid_sizes = [sample_object_size(rng) for _ in range(config.n_cids)]
    n_pinned = max(1, int(config.n_cids * config.pinned_cid_fraction))
    # list(accumulate(w)) is exactly the cum_weights rng.choices()
    # builds internally; it bisects random() * (cum[-1] + 0.0) over
    # [0, len - 1), so these land on the same index.
    pinned_cum = list(accumulate(_zipf_weights(n_pinned, config.zipf_exponent)))
    pinned_total = pinned_cum[-1] + 0.0
    pinned_hi = n_pinned - 1
    open_cum = list(
        accumulate(_zipf_weights(config.n_cids - n_pinned, config.zipf_exponent))
    )
    open_total = open_cum[-1] + 0.0
    open_hi = len(open_cum) - 1

    n = config.n_requests
    user_ids = array("i", rng.choices(range(config.n_users), user_weights, k=n))
    timestamps = array("d", [0.0]) * n
    cid_ids = array("i", [0]) * n
    referrer_codes = array("h", [0]) * n

    # One table lookup per user, not per request; None marks a tail
    # country, whose offset is the per-request fallback draw.
    user_offsets = [_COUNTRY_UTC_OFFSET.get(country) for country in user_countries]
    fallback_offsets = (-8, -5, 0, 1, 8)
    n_fallback = len(fallback_offsets)
    fallback_bits = n_fallback.bit_length()
    n_sites = SEMI_POPULAR_SITES
    site_bits = n_sites.bit_length()
    n_tail = _LONG_TAIL_SITES
    tail_bits = n_tail.bit_length()
    referred = REFERRED_FRACTION
    semi_popular = SEMI_POPULAR_FRACTION
    pinned_share = config.pinned_request_share
    day = config.seconds_per_day
    rnd = rng.random
    bits = rng.getrandbits
    cos = math.cos
    pi = math.pi
    for index, user_id in enumerate(user_ids):
        # The fallback offset is drawn for every request, whether or not
        # the user's country needs it: that is the stream the pinned
        # digests (and every BENCH_*.json built on this trace) define.
        while (draw := bits(fallback_bits)) >= n_fallback:
            pass
        offset = user_offsets[user_id]
        if offset is None:
            offset = fallback_offsets[draw]
        while True:
            # uniform(0, day) is 0 + (day - 0) * random(): exactly this.
            second = day * rnd()
            local_hour = ((second / 3600.0) + 8 + offset) % 24
            primary = cos((local_hour - 15.0) / 24.0 * 2 * pi)
            evening = 0.45 * cos((local_hour - 21.0) / 24.0 * 2 * pi)
            weight = 0.6 + primary + evening
            if rnd() < (weight if weight > 0.08 else 0.08) / 2.2:
                break
        timestamps[index] = second
        if rnd() < pinned_share:
            cid_ids[index] = bisect(pinned_cum, rnd() * pinned_total, 0, pinned_hi)
        else:
            cid_ids[index] = n_pinned + bisect(
                open_cum, rnd() * open_total, 0, open_hi
            )
        if rnd() < referred:
            if rnd() < semi_popular:
                while (draw := bits(site_bits)) >= n_sites:
                    pass
                referrer_codes[index] = draw + 1
            else:
                while (draw := bits(tail_bits)) >= n_tail:
                    pass
                referrer_codes[index] = -1 - draw
    # The full-catalog override touches no draw, so it runs after them:
    # positions 0, stride, 2*stride, ... take catalog slots 0, 1, 2, ...
    sweep_stride = _catalog_sweep_stride(config)
    if sweep_stride:
        for slot, index in zip(range(config.n_cids), range(0, n, sweep_stride)):
            cid_ids[index] = slot

    # Stable argsort by timestamp: requests with equal timestamps keep
    # their generation order.
    order = sorted(range(n), key=timestamps.__getitem__)
    timestamps = array("d", [timestamps[i] for i in order])
    user_ids = array("i", [user_ids[i] for i in order])
    cid_ids = array("i", [cid_ids[i] for i in order])
    referrer_codes = array("h", [referrer_codes[i] for i in order])

    return ColumnarTrace(
        config=config,
        timestamps=timestamps,
        user_ids=user_ids,
        cid_ids=cid_ids,
        referrer_codes=referrer_codes,
        cid_sizes=cid_sizes,
        user_countries=user_countries,
        n_pinned=n_pinned,
        total_bytes=sum(map(cid_sizes.__getitem__, cid_ids)),
        user_count=len(set(user_ids)),
        cid_count=len(set(cid_ids)),
    )


def generate_gateway_trace(
    config: GatewayTraceConfig, rng: random.Random
) -> GatewayTrace:
    """The day as :class:`GatewayRequest` objects (small scales): the
    object view of :func:`generate_columnar_trace`'s arrays."""
    return generate_columnar_trace(config, rng).to_gateway_trace()
