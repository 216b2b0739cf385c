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
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter

from repro.errors import ReproError
from repro.workloads.objects import sample_object_size
from repro.workloads.population import _choices_table

#: The ipfs.io day (Section 4.2): requests, users and requested CIDs.
TOTAL_REQUESTS = 7_100_000
TOTAL_USERS = 101_000
TOTAL_CIDS = 274_000
SECONDS_PER_DAY = 86_400

#: CID popularity is Zipf with this exponent, within the pinned slice
#: (the most popular ``PINNED_CID_FRACTION`` of slots) and outside it.
ZIPF_EXPONENT = 1.15
PINNED_CID_FRACTION = 0.04
#: Probability mass of requests that target pinned CIDs (~40 % of
#: requests are served from the node store in Table 5).
PINNED_REQUEST_SHARE = 0.402

#: Fig 6 user-country shares (top five are from the paper).
USER_COUNTRY_SHARES: list[tuple[str, float]] = [
    ("US", 0.504), ("CN", 0.319), ("HK", 0.066), ("CA", 0.046), ("JP", 0.017),
]

#: Rough UTC offsets used to shape each country's diurnal curve; a
#: request from any other country draws one of the fallbacks.
_COUNTRY_UTC_OFFSET = {"US": -8, "CN": 8, "HK": 8, "CA": -5, "JP": 9}
_FALLBACK_UTC_OFFSETS = (-8, -5, 0, 1, 8)

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
    """The day's size: the paper's totals divided by ``scale`` (the
    full trace is 7.1 M requests)."""

    scale: int = 50
    #: Spread demand over the *whole* CID catalog: every ``stride``-th
    #: request (stride = requests // cids) is redirected to the next
    #: catalog slot, guaranteeing each of the day's CIDs at least one
    #: hit. Pure Zipf sampling leaves ~35 % of the universe untouched
    #: (179 k of 274 k CIDs at scale=1), but the paper's day counts
    #: 274 k *requested* CIDs — the catalog IS the requested set. The
    #: override happens after the draws, so the RNG stream (and hence
    #: every other request field) is identical with the flag on or off.
    full_catalog: bool = False

    def __post_init__(self) -> None:
        if not 1 <= self.scale <= TOTAL_REQUESTS:
            raise ReproError(
                f"scale must be between 1 and {TOTAL_REQUESTS}, got {self.scale}"
            )

    @property
    def n_requests(self) -> int:
        return TOTAL_REQUESTS // self.scale

    @property
    def n_users(self) -> int:
        return max(1, TOTAL_USERS // self.scale)

    @property
    def n_cids(self) -> int:
        return max(10, TOTAL_CIDS // self.scale)


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
    local 15:00 with a secondary evening bump. This is the only place
    the curve is defined: the trace generator's rejection test decides
    from the one-cosine form below where that is safe and calls this
    function where it is not (``_SQUEEZE_GUARD``).
    """
    local_hour = ((second / 3600.0) + 8 + utc_offset) % 24  # gateway is PST (UTC-8)
    primary = math.cos((local_hour - 15.0) / 24.0 * 2 * math.pi)
    evening = 0.45 * math.cos((local_hour - 21.0) / 24.0 * 2 * math.pi)
    return max(0.08, 0.6 + primary + evening)


#: The one-cosine form of :func:`diurnal_weight`. Its two cosines sit a
#: quarter period apart (21 h - 15 h = 6 h of 24), so with
#: t = (local_hour - 15) / 24 * 2 pi their sum is cos t + 0.45 sin t =
#: hypot(1, 0.45) * cos(t - atan2(0.45, 1)), and t is linear in
#: ``second`` (``% 24`` moves it by whole periods only):
#:
#:     0.6 + _SQUEEZE_AMPLITUDE * cos(second * _SQUEEZE_OMEGA
#:                                    + _squeeze_phase(utc_offset))
#:
#: equals the unfloored sum up to rounding — 2.5e-15 at worst over the
#: offsets in use; tests hold it under 1e-12. The trace generator
#: accepts a draw when ``roll < diurnal_weight(...) / 2.2``. It decides
#: that from the sign of ``max(0.08, one cosine) - roll * 2.2`` when the
#: difference is further than _SQUEEZE_GUARD from zero, which the two
#: forms' disagreement (and the rounding of ``* 2.2`` against ``/ 2.2``,
#: ~1e-16) cannot bridge, and evaluates the definition's own test inside
#: the band. Either way the decision is the definition's, which is what
#: keeps the day bit-identical.
_SQUEEZE_AMPLITUDE = math.hypot(1.0, 0.45)
_SQUEEZE_OMEGA = 2 * math.pi / SECONDS_PER_DAY
_SQUEEZE_GUARD = 1e-9

#: Each request's index is appended to its time-of-day bin as it is
#: drawn (15-minute bins), and the day is sorted bin by bin; the user
#: column is drawn this many requests at a time.
_TIME_BINS = 96
_USER_CHUNK = 8192


def _squeeze_phase(utc_offset: int) -> float:
    """Phase of the one-cosine diurnal curve for users at an offset."""
    return (8 + utc_offset - 15.0) / 24.0 * 2 * math.pi - math.atan2(0.45, 1.0)


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
    request instead of a ~250-byte :class:`GatewayRequest`), each the
    one copy of its column; everything else (country, size, pinned
    flag, user/referrer strings) is derived on demand from the
    per-user / per-CID side tables. The aggregates are counted by the
    generator, so no reader re-walks the day for them.
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
    referred_count: int  # requests with a referrer (code != 0)
    semi_popular_count: int  # requests referred by a semi-popular site

    def __len__(self) -> int:
        return len(self.timestamps)

    @property
    def n_requests(self) -> int:
        return len(self.timestamps)

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


def trace_stream_sha256(requests: Iterable[GatewayRequest]) -> str:
    """Canonical digest of a request stream: the byte-identity
    contract the tests pin per seed over the columnar trace's
    ``iter_requests()``."""
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


def _sorted_columns(bins: list[array], columns: list[array]) -> list[array]:
    """Gather generation-order columns into the day's timestamp order.

    ``bins[b]`` holds, in generation order, the indices of the requests
    whose timestamp (``columns[0]``) falls in time bin ``b``. Bins
    arrive in time order and no timestamp straddles two of them, so a
    stable sort of each bin's indices by timestamp is the stable argsort
    of the whole day: requests with equal timestamps keep generation
    order. The columns are then gathered one at a time, last first, and
    ``columns`` is emptied on the way, so each generation-order column
    is freed as soon as its sorted copy exists.
    """
    seconds = columns[0]
    for held in bins:
        held[:] = array("i", sorted(held, key=seconds.__getitem__))
    del seconds
    day = []
    while columns:
        day.append(_gathered(columns.pop(), bins))
    day.reverse()
    return day


def _gathered(column: array, bins: list[array]) -> array:
    """``column`` at the bins' indices, bin after bin, in one array
    allocated at its final size."""
    typecode = column.typecode
    merged = array(typecode, [0]) * len(column)
    start = 0
    for held in bins:
        stop = start + len(held)
        if stop - start > 1:  # itemgetter needs two indices to return a tuple
            merged[start:stop] = array(typecode, itemgetter(*held)(column))
        elif held:
            merged[start] = column[held[0]]
        start = stop
    return merged


def generate_columnar_trace(
    config: GatewayTraceConfig, rng: random.Random
) -> ColumnarTrace:
    """Generate the full day of requests, sorted by timestamp, as arrays.

    Draw order: each user's country, then each user's Pareto demand
    weight; each CID's size; the user of every request (one
    ``choices`` call's worth of draws); then per request, in generation
    order — the fallback UTC offset (drawn for *every* request, used
    only for tail countries), the rejection-sampled time of day, the
    pinned/open roll, the Zipf CID, the referred roll and, when
    referred, the semi-popular roll and the site. The same seed gives a
    byte-identical stream and leaves ``rng`` in the same state; tests
    pin both.

    The hot loop spells out what the stdlib calls would consume, so no
    Python frame is entered per draw: ``rng.choice(seq)`` is
    ``getrandbits(len(seq).bit_length())`` redrawn until ``< len(seq)``;
    ``rng.choices(pop, weights)[0]`` is one ``random()`` bisected into
    the cumulative weights (accumulated once, not per request). The
    rejection test is decided by the one-cosine form of
    :func:`diurnal_weight` and calls the definition itself only inside
    the ``_SQUEEZE_GUARD`` band around equality (see the constants).

    No per-request Python object outlives its iteration, and the day is
    held once: the user column is drawn in chunks straight into its
    array, each accepted request's timestamp, CID and referrer code are
    stored at its index in generation-order columns beside it
    (allocated at the day's size) and only the index is appended to
    its time bin, and :func:`_sorted_columns` sorts bin by bin and
    gathers the four columns into timestamp order one at a time, each
    generation-order column freed as soon as its sorted copy exists.
    The referral aggregates are counted as the draws are made.
    """
    countries, country_weights = _country_pool(rng)

    # Users: each bound to a country; per-user demand is heavy-tailed.
    user_countries = rng.choices(countries, country_weights, k=config.n_users)
    user_weights = [rng.paretovariate(1.3) for _ in range(config.n_users)]

    # CID universe: sizes, and the pinned set — the most popular slots,
    # since pinning targets exactly the content initiatives push
    # through the gateway.
    cid_sizes = [sample_object_size(rng) for _ in range(config.n_cids)]
    n_pinned = max(1, int(config.n_cids * PINNED_CID_FRACTION))
    # The tables rng.choices() builds before its one random(); the loop
    # bisects into them itself (an open-slot index is offset by n_pinned).
    _, pinned_cum, pinned_total, pinned_hi = _choices_table(
        range(n_pinned), _zipf_weights(n_pinned, ZIPF_EXPONENT)
    )
    _, open_cum, open_total, open_hi = _choices_table(
        range(n_pinned, config.n_cids),
        _zipf_weights(config.n_cids - n_pinned, ZIPF_EXPONENT),
    )

    n = config.n_requests
    rnd = rng.random
    # rng.choices(range(n_users), user_weights, k=n), spelled out the
    # same way and drawn a chunk at a time so the n boxed ints it would
    # return never exist at once.
    _, user_cum, user_total, user_hi = _choices_table(
        range(config.n_users), user_weights
    )
    drawn_users = array("i")
    for start in range(0, n, _USER_CHUNK):
        drawn_users.extend(
            [
                bisect(user_cum, rnd() * user_total, 0, user_hi)
                for _ in repeat(None, min(_USER_CHUNK, n - start))
            ]
        )

    # One table lookup per user, not per request; None marks a tail
    # country, whose offset is the per-request fallback draw.
    user_offsets = [_COUNTRY_UTC_OFFSET.get(country) for country in user_countries]
    fallback_offsets = _FALLBACK_UTC_OFFSETS
    n_fallback = len(fallback_offsets)
    fallback_bits = n_fallback.bit_length()
    phases = {
        offset: _squeeze_phase(offset)
        for offset in {*fallback_offsets, *_COUNTRY_UTC_OFFSET.values()}
    }
    n_sites = SEMI_POPULAR_SITES
    site_bits = n_sites.bit_length()
    n_tail = _LONG_TAIL_SITES
    tail_bits = n_tail.bit_length()
    referred = REFERRED_FRACTION
    semi_popular = SEMI_POPULAR_FRACTION
    pinned_share = PINNED_REQUEST_SHARE
    day = SECONDS_PER_DAY
    bits = rng.getrandbits
    cos = math.cos
    amplitude = _SQUEEZE_AMPLITUDE
    omega = _SQUEEZE_OMEGA
    guard = _SQUEEZE_GUARD
    # int(second * bins_per_second) is non-decreasing in second; the
    # product day * random() can round up to day itself, hence the
    # extra bin.
    bins_per_second = _TIME_BINS / day
    bins = [array("i") for _ in range(_TIME_BINS + 1)]
    add_to_bin = [held.append for held in bins]
    drawn_seconds = array("d", [0.0]) * n
    drawn_cids = array("i", [0]) * n
    drawn_codes = array("h", [0]) * n
    referred_count = semi_popular_count = 0
    for index, user_id in enumerate(drawn_users):
        # The fallback offset is drawn for every request, whether or not
        # the user's country needs it: that is the stream the pinned
        # digests (and every BENCH_*.json built on this trace) define.
        while (draw := bits(fallback_bits)) >= n_fallback:
            pass
        offset = user_offsets[user_id]
        if offset is None:
            offset = fallback_offsets[draw]
        phase = phases[offset]
        while True:
            # uniform(0, day) is 0 + (day - 0) * random(): exactly this.
            second = day * rnd()
            weight = 0.6 + amplitude * cos(second * omega + phase)
            margin = (weight if weight > 0.08 else 0.08) - (roll := rnd()) * 2.2
            if margin > guard or (
                margin >= -guard and roll < diurnal_weight(second, offset) / 2.2
            ):
                break
        if rnd() < pinned_share:
            cid = bisect(pinned_cum, rnd() * pinned_total, 0, pinned_hi)
        else:
            cid = n_pinned + bisect(open_cum, rnd() * open_total, 0, open_hi)
        code = _REFERRER_NONE
        if rnd() < referred:
            referred_count += 1
            if rnd() < semi_popular:
                while (draw := bits(site_bits)) >= n_sites:
                    pass
                code = draw + 1
                semi_popular_count += 1
            else:
                while (draw := bits(tail_bits)) >= n_tail:
                    pass
                code = -1 - draw
        drawn_seconds[index] = second
        drawn_cids[index] = cid
        drawn_codes[index] = code
        add_to_bin[int(second * bins_per_second)](index)
    # The full-catalog override touches no draw: generation positions
    # 0, stride, 2*stride, ... take catalog slots 0, 1, 2, ...
    sweep_stride = _catalog_sweep_stride(config)
    if sweep_stride:
        for slot, index in zip(range(config.n_cids), range(0, n, sweep_stride)):
            drawn_cids[index] = slot
    # _sorted_columns holds the only reference to each column, so that
    # each is freed once it is gathered.
    columns = [drawn_seconds, drawn_users, drawn_cids, drawn_codes]
    del drawn_seconds, drawn_users, drawn_cids, drawn_codes, add_to_bin
    timestamps, user_ids, cid_ids, referrer_codes = _sorted_columns(bins, columns)

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
        referred_count=referred_count,
        semi_popular_count=semi_popular_count,
    )

