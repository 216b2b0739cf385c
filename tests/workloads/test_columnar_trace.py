"""The gateway day's generator, pinned.

:func:`generate_columnar_trace` makes the day's draws and stores them
as parallel arrays instead of 7.1 M ``GatewayRequest`` objects;
``iter_requests`` is the object view of those arrays. Three things hold
the generator in place:

- sha256 literals of the request stream and of the generator's final
  state, recorded from the separate object generator the trace once
  had, at the commit before it was removed;
- a reference loop written with plain ``rng.choice`` / ``rng.choices``
  / ``rng.uniform`` calls (the generator's hot loop spells out what
  those consume), compared on stream *and* generator state, so a
  CPython change to any of them fails here instead of silently
  generating a different day;
- the view tests: objects, aggregates and typecodes.

The rejection test in the hot loop is decided by a one-cosine form of
:func:`diurnal_weight` and by the definition itself inside a guard band
around equality; ``TestSqueeze`` holds the cheap form to the definition
(the two differ by far less than the guard, and the day is the pinned
day whichever of them decides), and ``TestTimeBins`` holds the per-bin
sort to the whole-day stable sort it replaced.
"""

import math
import random
import tracemalloc
import weakref
from array import array

import pytest

from repro.utils.rng import derive_rng
from repro.workloads import gateway_trace
from repro.workloads.gateway_trace import (
    _COUNTRY_UTC_OFFSET,
    _FALLBACK_UTC_OFFSETS,
    _SQUEEZE_AMPLITUDE,
    _SQUEEZE_GUARD,
    _SQUEEZE_OMEGA,
    _TIME_BINS,
    PINNED_CID_FRACTION,
    PINNED_REQUEST_SHARE,
    REFERRED_FRACTION,
    SECONDS_PER_DAY,
    SEMI_POPULAR_FRACTION,
    SEMI_POPULAR_SITES,
    ZIPF_EXPONENT,
    GatewayRequest,
    GatewayTraceConfig,
    _country_pool,
    _sorted_columns,
    _squeeze_phase,
    _zipf_weights,
    diurnal_weight,
    generate_columnar_trace,
    trace_stream_sha256,
)
from repro.workloads.objects import sample_object_size
from tests.helpers import rng_state_sha256

SCALE = 1000

#: (seed, full_catalog) -> (trace_stream_sha256, sha256 of the repr of
#: ``rng.getstate()`` afterwards) at ``SCALE``. The full-catalog
#: override touches no draw: the state column repeats per seed.
PINNED = {
    (42, False): (
        "0958f820ca785deefaa8e509390b1ddf7a9fcf1acfb420511f703ba318eb7a19",
        "c0931b6b47135da7c947ead85f771228841d576db2f17b4fb5f80b25407e45c5",
    ),
    (42, True): (
        "a168164bde1f04d92d6247829dc325e080915517c608ba13d5f28c4b8087817b",
        "c0931b6b47135da7c947ead85f771228841d576db2f17b4fb5f80b25407e45c5",
    ),
    (43, False): (
        "c4947872a85cba287927e63959886a514f7fa32148fb199ccd5b2b3c9e3f05dd",
        "271949a2675c79157e996d2dc035fb2ddf033bc03c0485a5c1b834b2bbf87c67",
    ),
    (43, True): (
        "9ad50a6b7d68eefc68e94e8e3f98c6b11b545ed10e38b8cd47ba377ec872393a",
        "271949a2675c79157e996d2dc035fb2ddf033bc03c0485a5c1b834b2bbf87c67",
    ),
    (44, False): (
        "d04d01e37771baca0a1e726658627f5583fd3d115d816d50edf4974274e2082a",
        "7bdab9e12c5198b203b22405a169176e3036e736491af1a225e1699c6ddab366",
    ),
    (44, True): (
        "8b743d907ca93ab2e3ad5f4a33c6343dc6c78403deeb986609b877a6578cec7d",
        "7bdab9e12c5198b203b22405a169176e3036e736491af1a225e1699c6ddab366",
    ),
}


def _reference_requests(config, rng):
    """The day drawn with the stdlib's own ``choice`` / ``choices`` /
    ``uniform`` and :func:`diurnal_weight` as a call: what the
    generator's hot loop writes out by hand."""
    countries, country_weights = _country_pool(rng)
    user_countries = rng.choices(countries, country_weights, k=config.n_users)
    user_weights = [rng.paretovariate(1.3) for _ in range(config.n_users)]
    cid_sizes = [sample_object_size(rng) for _ in range(config.n_cids)]
    n_pinned = max(1, int(config.n_cids * PINNED_CID_FRACTION))
    pinned_weights = _zipf_weights(n_pinned, ZIPF_EXPONENT)
    open_indices = list(range(n_pinned, config.n_cids))
    open_weights = _zipf_weights(len(open_indices), ZIPF_EXPONENT)
    sites = ["site-%02d.example" % i for i in range(SEMI_POPULAR_SITES)]
    tail_sites = ["tail-%04d.example" % i for i in range(2000)]
    requests = []
    users = rng.choices(range(config.n_users), user_weights, k=config.n_requests)
    for user in users:
        country = user_countries[user]
        # dict.get evaluates its default eagerly: one choice per request
        offset = _COUNTRY_UTC_OFFSET.get(country, rng.choice([-8, -5, 0, 1, 8]))
        while True:
            second = rng.uniform(0, SECONDS_PER_DAY)
            if rng.random() < diurnal_weight(second, offset) / 2.2:
                break
        if rng.random() < PINNED_REQUEST_SHARE:
            cid = rng.choices(range(n_pinned), pinned_weights)[0]
        else:
            cid = rng.choices(open_indices, open_weights)[0]
        referrer = None
        if rng.random() < REFERRED_FRACTION:
            semi_popular = rng.random() < SEMI_POPULAR_FRACTION
            referrer = rng.choice(sites if semi_popular else tail_sites)
        requests.append(GatewayRequest(
            second, "user-%06d" % user, country, cid, cid_sizes[cid],
            cid < n_pinned, referrer,
        ))
    requests.sort(key=lambda request: request.timestamp)
    return requests


@pytest.fixture(scope="module")
def config():
    return GatewayTraceConfig(scale=SCALE)


@pytest.fixture(scope="module")
def columnar(config):
    return generate_columnar_trace(config, derive_rng(42, "trace"))


@pytest.fixture(scope="module")
def objects(columnar):
    return list(columnar.iter_requests())


class TestPinnedStream:
    @pytest.mark.parametrize("seed, full_catalog", sorted(PINNED))
    def test_stream_and_rng_state_are_pinned(self, seed, full_catalog):
        config = GatewayTraceConfig(scale=SCALE, full_catalog=full_catalog)
        rng = derive_rng(seed, "trace")
        columnar = generate_columnar_trace(config, rng)
        assert (
            trace_stream_sha256(columnar.iter_requests()), rng_state_sha256(rng)
        ) == PINNED[seed, full_catalog]

    @pytest.mark.parametrize("seed", [42, 43])
    def test_hand_spelled_draws_equal_the_stdlib_calls(self, seed):
        config = GatewayTraceConfig(scale=2000)
        reference_rng, rng = derive_rng(seed, "trace"), derive_rng(seed, "trace")
        reference = _reference_requests(config, reference_rng)
        columnar = generate_columnar_trace(config, rng)
        assert list(columnar.iter_requests()) == reference
        assert rng.getstate() == reference_rng.getstate()
        # both sides of the fallback-offset branch were compared
        countries = {request.country for request in reference}
        assert any(country.startswith("T") for country in countries)
        assert any(country in _COUNTRY_UTC_OFFSET for country in countries)

    def test_narrow_column_typecodes(self, columnar):
        assert columnar.timestamps.typecode == "d"
        assert columnar.user_ids.typecode == "i"
        assert columnar.cid_ids.typecode == "i"
        assert columnar.referrer_codes.typecode == "h"


@pytest.fixture
def fallbacks(monkeypatch):
    """The ``(second, offset)`` pairs the generator hands to
    :func:`diurnal_weight`: one per rejection-test iteration that
    lands inside the guard band."""
    calls = []

    def counted(second, utc_offset):
        calls.append((second, utc_offset))
        return diurnal_weight(second, utc_offset)

    monkeypatch.setattr(gateway_trace, "diurnal_weight", counted)
    return calls


def assert_every_pinned_day():
    """All six ``PINNED`` pairs, under whatever the caller patched."""
    for (seed, full_catalog), pinned in sorted(PINNED.items()):
        config = GatewayTraceConfig(scale=SCALE, full_catalog=full_catalog)
        rng = derive_rng(seed, "trace")
        columnar = generate_columnar_trace(config, rng)
        stream = trace_stream_sha256(columnar.iter_requests())
        assert (stream, rng_state_sha256(rng)) == pinned


class TestSqueeze:
    def test_the_definition_decides_the_same_day(self, fallbacks, monkeypatch):
        # guard 10: wider than the curve, every iteration asks the definition
        monkeypatch.setattr(gateway_trace, "_SQUEEZE_GUARD", 10.0)
        assert_every_pinned_day()
        every_iteration = len(fallbacks)
        assert every_iteration > len(PINNED) * 2 * (7_100_000 // SCALE)

        # guard 0.05: some iterations ask, the others take the one cosine
        del fallbacks[:]
        monkeypatch.setattr(gateway_trace, "_SQUEEZE_GUARD", 0.05)
        assert_every_pinned_day()
        assert 0 < len(fallbacks) < every_iteration / 10

        # the shipped guard: none of these days comes within 1e-9
        del fallbacks[:]
        monkeypatch.setattr(gateway_trace, "_SQUEEZE_GUARD", _SQUEEZE_GUARD)
        assert_every_pinned_day()
        assert fallbacks == []

    def test_one_cosine_is_the_two_cosine_sum(self):
        offsets = sorted({*_FALLBACK_UTC_OFFSETS, *_COUNTRY_UTC_OFFSET.values()})
        assert offsets == [-8, -5, 0, 1, 8, 9]
        rng = random.Random(20)
        worst = 0.0
        for offset in offsets:
            phase = _squeeze_phase(offset)
            for _ in range(100_000):
                second = rng.uniform(0, 86_400)
                squeezed = 0.6 + _SQUEEZE_AMPLITUDE * math.cos(
                    second * _SQUEEZE_OMEGA + phase
                )
                # diurnal_weight's sum before the 0.08 floor
                local_hour = ((second / 3600.0) + 8 + offset) % 24
                primary = math.cos((local_hour - 15.0) / 24.0 * 2 * math.pi)
                evening = 0.45 * math.cos((local_hour - 21.0) / 24.0 * 2 * math.pi)
                defined = 0.6 + primary + evening
                assert max(0.08, defined) == diurnal_weight(second, offset)
                worst = max(worst, abs(squeezed - defined))
        assert worst < 1e-12
        assert worst * 1000 < _SQUEEZE_GUARD  # three orders inside the band


class TestTimeBins:
    def test_bin_index_is_monotone_and_bounded(self):
        for day in (86_400, 86_399, 3600, 7):
            bins_per_second = _TIME_BINS / day
            rng = random.Random(day)
            seconds = sorted(day * rng.random() for _ in range(20_000))
            # the generator's product day * random() can round up to day
            seconds += [math.nextafter(day, 0), float(day)]
            indices = [int(second * bins_per_second) for second in seconds]
            assert indices == sorted(indices)
            assert indices[0] >= 0 and indices[-1] <= _TIME_BINS

    def test_equal_timestamps_keep_generation_order(self):
        # Seven requests in generation order; each bin holds the indices
        # of its requests, in generation order too.
        seconds = [5.0, 9.0, 2.5, 11.0, 5.0, 11.0, 2.5]
        columns = [
            array("d", seconds),
            array("i", [100 + index for index in range(7)]),
            array("i", [10 * index for index in range(7)]),
            array("h", [0, 1, -7, 0, 4, 0, -2]),
        ]
        originals = [weakref.ref(column) for column in columns]
        bins = [
            array("i", [0, 2, 4, 6]),
            array("i"),  # an empty and a one-request bin pass through
            array("i", [1]),
            array("i", [3, 5]),
        ]
        timestamps, user_ids, cid_ids, referrer_codes = _sorted_columns(
            bins, columns
        )
        # the columns list is emptied and every generation-order column
        # freed; each bin is left holding its indices in timestamp order
        assert columns == []
        assert [original() for original in originals] == [None] * 4
        assert bins == [
            array("i", [2, 6, 0, 4]), array("i"), array("i", [1]), array("i", [3, 5]),
        ]
        order = [2, 6, 0, 4, 1, 3, 5]  # stable by timestamp
        assert timestamps == array("d", [seconds[index] for index in order])
        assert user_ids == array("i", [100 + index for index in order])
        assert cid_ids == array("i", [10 * index for index in order])
        assert referrer_codes == array("h", [-7, -2, 0, 4, 1, 0, 0])
        assert [column.typecode for column in (
            timestamps, user_ids, cid_ids, referrer_codes
        )] == ["d", "i", "i", "h"]

    def test_chunked_user_draw_is_one_choices_call(self, monkeypatch):
        # 7 100 requests in chunks of 1 000: seven full chunks and a rest
        monkeypatch.setattr(gateway_trace, "_USER_CHUNK", 1000)
        assert_every_pinned_day()

    def test_no_whole_day_list_is_built(self):
        # 18 B of columns per request. The whole-day argsort and its four
        # gathered lists of boxed values peaked at 102 B per request
        # (at any scale; 600 keeps the traced run under two seconds).
        config = GatewayTraceConfig(scale=600, full_catalog=True)
        rng = derive_rng(42, "trace")
        tracemalloc.start()
        try:
            columnar = generate_columnar_trace(config, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / len(columnar) <= 60


class TestObjectView:
    def test_request_objects_are_the_columnar_stream(self, objects, columnar):
        assert trace_stream_sha256(objects) == PINNED[42, False][0]
        for index, request in enumerate(objects):
            assert request.pinned == (request.cid_index < columnar.n_pinned)
            assert request.size == columnar.cid_sizes[request.cid_index]

    def test_different_seed_differs(self, config, objects):
        other = generate_columnar_trace(config, derive_rng(43, "trace"))
        assert trace_stream_sha256(other.iter_requests()) != (
            trace_stream_sha256(objects)
        )


class TestAggregates:
    def test_counts_match_the_object_view(self, objects, columnar):
        assert len(columnar) == len(objects)
        assert columnar.user_count == len({r.user for r in objects})
        assert columnar.cid_count == len({r.cid_index for r in objects})
        assert columnar.total_bytes == sum(r.size for r in objects)
        assert columnar.referred_count == sum(1 for r in objects if r.referrer)
        assert columnar.semi_popular_count == sum(
            1 for r in objects if r.referrer and r.referrer.startswith("site-")
        )

    def test_timestamps_sorted(self, columnar):
        ts = columnar.timestamps
        assert all(ts[i] <= ts[i + 1] for i in range(len(ts) - 1))
