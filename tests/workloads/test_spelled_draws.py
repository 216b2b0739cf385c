"""Every draw the compact write path spells out, held to the running
interpreter's ``random`` module.

:func:`repro.workloads.compact.generate_compact_population` and
:func:`repro.simnet.compact._churn_schedules` enter no ``random.py``
frame per draw: each ``choices``, ``randrange``, ``choice``,
``lognormvariate`` and per-peer ``derive_rng`` is written out as the
``random()`` / ``getrandbits()`` / seed calls the stdlib makes for it.
The pinned worlds come out of them only while those spellings match the
stdlib, so this file checks, for each, that the spelling returns the
same value *and* leaves the generator in the same state as the call,
over Hypothesis-drawn seeds and arguments. The generator and the churn
pre-draw as they were before the spelling — making the stdlib calls —
are kept below as reference loops and compared with the real ones,
arrays and generator state. CI runs this file on every supported
CPython: a change to ``random`` (a threshold, a draw order,
``_randbelow``) fails here loudly instead of silently building another
world.

The latency model (:class:`repro.simnet.latency.LatencyModel`) spells
its three per-RPC ``uniform`` draws the same way, as
``a + (b - a) * random()``; the last three tests hold each one to
``rng.uniform(a, b)``.
"""

from __future__ import annotations

import hashlib
import math
import random
from array import array
from bisect import bisect
from functools import cache
from itertools import accumulate

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.measurement.registries import AsInfo
from repro.simnet.churn import WORLD_INITIAL_ONLINE_PROBABILITY, ChurnModel
from repro.simnet.compact import _churn_schedules
from repro.simnet.latency import (
    _ACCESS_SUM_MS,
    _CLASS_PROFILES,
    _RATE_MIN,
    _RTT_PAIR_MS,
    LatencyModel,
    PeerClass,
    Region,
)
from repro.utils.rng import _seed_to_bytes, derive_rng
from repro.workloads import compact as compact_module
from repro.workloads.compact import (
    _CLASS_CODE,
    _CLOUD_CUM,
    _REACH_CODE,
    REACH_CHURNING,
    REACH_NEVER,
    generate_compact_population,
)
from repro.workloads.population import (
    CLOUD_SHARES,
    IP_MULTIPLIER,
    N_TAIL_ASES,
    N_TAIL_COUNTRIES,
    PEER_COUNTRY_SHARES,
    PopulationConfig,
    _AGENT_VERSIONS,
    _MEGA_IP_COUNTRIES,
    _NAMED_SHARE_SCALE,
    _TAIL_AS_COUNTRIES,
    _TOP_ASES,
    _choices_table,
    _mega_probability,
    _sample_class,
    _sample_extra_ip_count,
    _sample_reachability,
)

seeds = st.integers(0, 2**64 - 1)
weight_lists = st.lists(
    st.floats(1e-6, 1e3, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=200,
)


def assert_same(seed: int, call, spelled) -> None:
    """``call(rng)`` and ``spelled(rng)`` on two generators seeded alike:
    equal results, equal states after."""
    want_rng, got_rng = random.Random(seed), random.Random(seed)
    want = call(want_rng)
    got = spelled(got_rng)
    assert got == want
    assert got_rng.getstate() == want_rng.getstate()


# ----------------------------------------------------------------------
# the spellings, one per stdlib call, as the source writes them
# ----------------------------------------------------------------------


def spelled_choices(rng: random.Random, table) -> object:
    """``rng.choices(seq, weights)[0]`` and the ``cum_weights=`` form."""
    population, cum, total, hi = table
    return population[bisect(cum, rng.random() * total, 0, hi)]


def spelled_randrange(rng: random.Random, start: int, stop: int) -> int:
    """``rng.randrange(start, stop)``; ``randrange(n)`` is ``start = 0``."""
    width = stop - start
    nbits = width.bit_length()
    while (r := rng.getrandbits(nbits)) >= width:
        pass
    return start + r


def spelled_octets(rng: random.Random) -> tuple[int, int, int, int]:
    """The four ``randrange`` calls of a new address, constants inlined."""
    getrandbits = rng.getrandbits
    while (a := getrandbits(8)) >= 223:
        pass
    while (b := getrandbits(9)) >= 256:
        pass
    while (c := getrandbits(9)) >= 256:
        pass
    while (d := getrandbits(8)) >= 254:
        pass
    return a + 1, b, c, d + 1


def spelled_choice(rng: random.Random, pool: list) -> object:
    """``rng.choice(pool)``."""
    size = len(pool)
    nbits = size.bit_length()
    while (j := rng.getrandbits(nbits)) >= size:
        pass
    return pool[j]


def spelled_lognormvariate(rng: random.Random, mu: float, sigma: float) -> float:
    """``rng.lognormvariate(mu, sigma)``: Kinderman–Monahan, then exp."""
    rnd, log, magic = rng.random, math.log, random.NV_MAGICCONST
    while True:
        u1 = rnd()
        u2 = 1.0 - rnd()
        z = magic * (u1 - 0.5) / u2
        if z * z / 4.0 <= -log(u2):
            break
    return math.exp(mu + z * sigma)


# ----------------------------------------------------------------------
# each spelling against the running stdlib
# ----------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(seed=seeds, weights=weight_lists)
def test_choices_weights(seed, weights):
    population = list(range(len(weights)))
    table = _choices_table(population, weights)
    assert_same(
        seed,
        lambda rng: rng.choices(population, weights)[0],
        lambda rng: spelled_choices(rng, table),
    )


@settings(max_examples=300, deadline=None)
@given(seed=seeds, weights=weight_lists)
def test_choices_cum_weights(seed, weights):
    population = [str(i) for i in range(len(weights))]
    table = _choices_table(population, weights)
    cum = list(accumulate(weights))
    assert_same(
        seed,
        lambda rng: rng.choices(population, cum_weights=cum)[0],
        lambda rng: spelled_choices(rng, table),
    )


@settings(max_examples=300, deadline=None)
@given(seed=seeds, start=st.integers(-1000, 1000), width=st.integers(1, 2**40))
def test_randrange_start_stop(seed, start, width):
    assert_same(
        seed,
        lambda rng: rng.randrange(start, start + width),
        lambda rng: spelled_randrange(rng, start, start + width),
    )


@settings(max_examples=300, deadline=None)
@given(seed=seeds, n=st.integers(1, 2**40))
def test_randrange_n(seed, n):
    assert_same(
        seed,
        lambda rng: rng.randrange(n),
        lambda rng: spelled_randrange(rng, 0, n),
    )


@settings(max_examples=300, deadline=None)
@given(seed=seeds)
def test_address_octets(seed):
    assert_same(
        seed,
        lambda rng: (
            rng.randrange(1, 224), rng.randrange(256),
            rng.randrange(256), rng.randrange(1, 255),
        ),
        spelled_octets,
    )


@settings(max_examples=300, deadline=None)
@given(seed=seeds, size=st.integers(1, 64))
def test_choice(seed, size):
    pool = [(i, -i, i % 3) for i in range(size)]
    assert_same(
        seed, lambda rng: rng.choice(pool), lambda rng: spelled_choice(rng, pool)
    )


@settings(max_examples=300, deadline=None)
@given(
    seed=seeds,
    mu=st.floats(-10.0, 15.0),
    sigma=st.floats(0.01, 3.0),
    k=st.integers(1, 20),
)
def test_lognormvariate(seed, mu, sigma, k):
    assert_same(
        seed,
        lambda rng: [rng.lognormvariate(mu, sigma) for _ in range(k)],
        lambda rng: [spelled_lognormvariate(rng, mu, sigma) for _ in range(k)],
    )


def test_lognormvariate_with_the_models_arguments():
    """The ``(log(median), sigma)`` pairs ``ChurnModel`` hands
    ``lognormvariate``, taken once and reused."""
    model = ChurnModel(median_session_s=24.2 * 60.0)
    for mu, sigma, sample in (
        (math.log(model.median_session_s), model.session_sigma,
         model.sample_session_length),
        (math.log(model.median_gap_s), model.gap_sigma, model.sample_gap_length),
    ):
        for seed in range(50):
            assert_same(
                seed,
                lambda rng: [sample(rng) for _ in range(30)],
                lambda rng: [spelled_lognormvariate(rng, mu, sigma) for _ in range(30)],
            )


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(-2**63, 2**63), index=st.integers(0, 10**7))
def test_derive_rng_with_the_prefix_hashed_once(seed, index):
    want = derive_rng(seed, "churn", str(index))
    prefix = hashlib.sha256(_seed_to_bytes(seed) + b"/churn").digest() + b"/"
    got = random.Random()
    got.random()  # a used generator: re-seeding must reset all of it
    super(random.Random, got).seed(
        int.from_bytes(hashlib.sha256(prefix + b"%d" % index).digest()[:8], "big")
    )
    assert got.getstate() == want.getstate()


@given(roll=st.floats(0.0, 1.0, exclude_max=True))
def test_cloud_roll_is_the_running_sum_loop(roll):
    want = -1
    cumulative = 0.0
    for code, (_name, share) in enumerate(CLOUD_SHARES):
        cumulative += share
        if roll < cumulative:
            want = code
            break
    got = bisect(_CLOUD_CUM, roll)
    assert (got if got < len(CLOUD_SHARES) else -1) == want


# ----------------------------------------------------------------------
# the latency model's draws against ``rng.uniform``
# ----------------------------------------------------------------------

jitters = st.tuples(
    st.floats(0.0, 10.0, allow_nan=False), st.floats(0.0, 10.0, allow_nan=False)
)


@settings(max_examples=300, deadline=None)
@given(
    seed=seeds, jitter=jitters,
    regions=st.tuples(st.sampled_from(Region), st.sampled_from(Region)),
    classes=st.tuples(st.sampled_from(PeerClass), st.sampled_from(PeerClass)),
)
def test_one_way_jitter(seed, jitter, regions, classes):
    (region_a, region_b), (class_a, class_b) = regions, classes
    base = _RTT_PAIR_MS[regions] / 2.0 + _ACCESS_SUM_MS[classes]
    model = LatencyModel(jitter)
    assert_same(
        seed,
        lambda rng: base * rng.uniform(*jitter) / 1000.0,
        lambda rng: model.one_way(region_a, class_a, region_b, class_b, rng),
    )


@settings(max_examples=300, deadline=None)
@given(seed=seeds, peer_class=st.sampled_from(PeerClass))
def test_processing_delay(seed, peer_class):
    model = LatencyModel()
    assert_same(
        seed,
        lambda rng: rng.uniform(*_CLASS_PROFILES[peer_class].processing_delay_s),
        lambda rng: model.processing_delay(peer_class, rng),
    )


@settings(max_examples=300, deadline=None)
@given(
    seed=seeds, jitter=jitters, size=st.integers(0, 2**31),
    classes=st.tuples(st.sampled_from(PeerClass), st.sampled_from(PeerClass)),
)
def test_transfer_time_jitter(seed, jitter, size, classes):
    model = LatencyModel(jitter)
    assert_same(
        seed,
        lambda rng: size / _RATE_MIN[classes] * rng.uniform(*jitter),
        lambda rng: model.transfer_time(size, *classes, rng),
    )


# ----------------------------------------------------------------------
# the reference loops: the write path as it was, making the calls
# ----------------------------------------------------------------------


def reference_as_table(rng: random.Random) -> list[tuple[AsInfo, str, float]]:
    table = [
        (AsInfo(asn, rank, name), country, share)
        for asn, rank, name, country, share in _TOP_ASES
    ]
    head_share = sum(share for *_, share in table)
    mid_weights = [1.0 / i for i in range(1, 91)]
    mid_scale = (0.906 - head_share) / sum(mid_weights)
    far_weights = [1.0 / i for i in range(1, N_TAIL_ASES - 90 + 1)]
    far_scale = (1.0 - 0.906) / sum(far_weights)
    countries = [c for c, _ in _TAIL_AS_COUNTRIES]
    weights = [w for _, w in _TAIL_AS_COUNTRIES]
    for position in range(N_TAIL_ASES):
        share = (
            mid_weights[position] * mid_scale
            if position < 90
            else far_weights[position - 90] * far_scale
        )
        country = rng.choices(countries, weights)[0]
        info = AsInfo(60000 + position, 300 + position * 3,
                      f"SYNTH-AS-{60000 + position}, {country}")
        table.append((info, country, share))
    return table


def reference_population(n: int, rng: random.Random) -> dict:
    """``generate_compact_population`` making one stdlib call per draw."""
    as_table = reference_as_table(rng)
    countries: list[str] = []
    code_of: dict[str, int] = {}

    def intern(country):
        if country not in code_of:
            code_of[country] = len(countries)
            countries.append(country)
        return code_of[country]

    by_country: dict[str, tuple[list, list]] = {}
    for info, country, share in as_table:
        asns, weights = by_country.setdefault(country, ([], []))
        asns.append(info.asn)
        weights.append(share)
    by_country_cum = {
        c: (asns, list(accumulate(w))) for c, (asns, w) in by_country.items()
    }
    fallback = (
        [info.asn for info, _, _ in as_table[:200]],
        list(accumulate(share for _, _, share in as_table[:200])),
    )
    used: set[int] = set()

    def new_ip(country):
        asns, cum = by_country_cum.get(country, fallback)
        asn = rng.choices(asns, cum_weights=cum)[0]
        while True:
            packed = (
                (((rng.randrange(1, 224) << 8) | rng.randrange(256)) << 16)
                | (rng.randrange(256) << 8) | rng.randrange(1, 255)
            )
            if packed not in used:
                used.add(packed)
                break
        roll = rng.random()
        cloud, cumulative = -1, 0.0
        for code, (_name, share) in enumerate(CLOUD_SHARES):
            cumulative += share
            if roll < cumulative:
                cloud = code
                break
        return packed, asn, cloud, intern(country)

    names = [c for c, _ in PEER_COUNTRY_SHARES]
    weights = [s * _NAMED_SHARE_SCALE for _, s in PEER_COUNTRY_SHARES]
    tail_raw = [1.0 / (i + 1) for i in range(N_TAIL_COUNTRIES)]
    scale = (1.0 - sum(weights)) / sum(tail_raw)
    names += ["X%03d" % i for i in range(N_TAIL_COUNTRIES)]
    country_cum = list(accumulate(weights + [w * scale for w in tail_raw]))

    def sample_country():
        return rng.choices(names, cum_weights=country_cum)[0]

    mega_creations = []
    mega_by_country: dict[str, tuple[list, list]] = {}
    for position, country in enumerate(_MEGA_IP_COUNTRIES):
        packed, asn, cloud, country_code = new_ip(country)
        mega_creations.append((packed, country_code, asn, cloud))
        entries, mega_weights = mega_by_country.setdefault(country, ([], []))
        entries.append((packed, asn, cloud))
        mega_weights.append(1.0 / (position + 1))

    shared_pool: dict[str, list] = {}
    agent_cum = list(accumulate(weight for _, weight in _AGENT_VERSIONS))
    out = {name: [] for name in (
        "peer_country", "peer_reach", "peer_class", "peer_agent",
        "addr_ip", "addr_asn", "addr_country", "addr_cloud",
    )}
    out["ip_off"] = [0]

    def push_slot(packed, asn, cloud, country_code):
        out["addr_ip"].append(packed)
        out["addr_asn"].append(asn)
        out["addr_country"].append(country_code)
        out["addr_cloud"].append(cloud)

    for _ in range(n):
        country = sample_country()
        country_code = intern(country)
        megas = mega_by_country.get(country)
        if megas is not None and rng.random() < _mega_probability(country):
            packed, asn, cloud = rng.choices(*megas)[0]
            push_slot(packed, asn, cloud, country_code)
        else:
            multiplier = IP_MULTIPLIER.get(country, 1.0)
            base = _sample_extra_ip_count(rng)
            extra = min(9, round(base * multiplier + (multiplier - 1.0)))
            pool = shared_pool.setdefault(country, [])
            if pool and rng.random() < 0.08:
                packed, asn, cloud = rng.choice(pool)
            else:
                packed, asn, cloud, _code = new_ip(country)
                if rng.random() < 0.05:
                    pool.append((packed, asn, cloud))
                    if len(pool) > 40:
                        pool.pop(0)
            push_slot(packed, asn, cloud, country_code)
            multihomed = rng.random() < 0.13
            for position in range(max(extra, 1 if multihomed else extra)):
                other_country = country
                if multihomed and position == 0:
                    for _ in range(4):
                        other_country = sample_country()
                        if other_country != country:
                            break
                push_slot(*new_ip(other_country))
        first_cloud = out["addr_cloud"][out["ip_off"][-1]]
        cloud_name = None if first_cloud < 0 else CLOUD_SHARES[first_cloud][0]
        out["peer_reach"].append(_REACH_CODE[_sample_reachability(rng, cloud_name)])
        out["peer_class"].append(_CLASS_CODE[_sample_class(rng, cloud_name)])
        out["peer_country"].append(country_code)
        out["peer_agent"].append(
            rng.choices(range(len(_AGENT_VERSIONS)), cum_weights=agent_cum)[0]
        )
        out["ip_off"].append(len(out["addr_ip"]))
    out.update(countries=countries, mega_creations=mega_creations, as_table=as_table)
    return out


def reference_churn(compact, seed: int, horizon_s: float):
    """``_churn_schedules`` with a ``derive_rng`` and two ``ChurnModel``
    calls per draw."""
    online = bytearray(len(compact))
    off = array("Q", [0])
    delays = array("d")
    for index in range(len(compact)):
        reach = compact.peer_reach[index]
        if reach != REACH_CHURNING:
            online[index] = 1 if reach != REACH_NEVER else 0
            off.append(len(delays))
            continue
        model = compact.churn_model_at(index)
        rng = derive_rng(seed, "churn", str(index))
        if math.isinf(model.median_session_s):
            online[index] = 1
            off.append(len(delays))
            continue
        state = rng.random() < WORLD_INITIAL_ONLINE_PROBABILITY
        online[index] = 1 if state else 0
        elapsed = 0.0
        while elapsed <= horizon_s:
            if state:
                delay = model.sample_session_length(rng)
            else:
                delay = model.sample_gap_length(rng)
            delays.append(delay)
            elapsed += delay
            state = not state
        off.append(len(delays))
    return online, off, delays


@settings(max_examples=25, deadline=None)
@given(seed=seeds, n=st.integers(0, 800))
def test_generator_equals_the_stdlib_calling_loop(seed, n):
    want_rng, got_rng = random.Random(seed), random.Random(seed)
    want = reference_population(n, want_rng)
    got = generate_compact_population(PopulationConfig(n_peers=n), got_rng)
    for name in (
        "peer_country", "peer_reach", "peer_class", "peer_agent", "ip_off",
        "addr_ip", "addr_asn", "addr_country", "addr_cloud",
    ):
        assert getattr(got, name).tolist() == want[name], name
    assert got.countries == want["countries"]
    assert got.mega_creations == want["mega_creations"]
    assert got.as_table == want["as_table"]
    assert got_rng.getstate() == want_rng.getstate()


@cache
def _population(seed: int):
    return generate_compact_population(
        PopulationConfig(n_peers=400), derive_rng(seed, "population")
    )


@settings(max_examples=40, deadline=None)
@given(
    population_seed=st.sampled_from([1, 2]),
    seed=st.integers(-2**63, 2**63),
    horizon_s=st.floats(0.0, 48 * 3600.0),
)
def test_churn_predraw_equals_the_stdlib_calling_loop(population_seed, seed, horizon_s):
    compact = _population(population_seed)
    assert _churn_schedules(compact, seed, horizon_s) == reference_churn(
        compact, seed, horizon_s
    )


def test_churn_of_a_model_that_never_ends_a_session(monkeypatch):
    """Infinite-median models: online, nothing drawn — like ``SessionProcess``."""
    compact = _population(1)
    monkeypatch.setattr(
        compact_module, "_churn_model_for",
        lambda country: ChurnModel(
            median_session_s=math.inf if country == "US" else 40 * 60.0
        ),
    )
    got = _churn_schedules(compact, 5, 3600.0)
    assert got == reference_churn(compact, 5, 3600.0)
    us = compact.countries.index("US")
    always_on = [
        i for i in range(len(compact))
        if compact.peer_country[i] == us and compact.peer_reach[i] == REACH_CHURNING
    ]
    assert always_on and all(got[0][i] for i in always_on)
