"""The peer population generator, and its struct-of-arrays result.

:func:`generate_compact_population` is the one place the population's
random draws are made. It stores the result as parallel arrays — about
a hundred bytes per peer instead of an object graph of ``PeerId`` and
string IPs per peer, which is what lets worlds reach a million peers
(the same idiom as ``ColumnarTrace`` for the gateway day):

- per peer: country code, reachability, peer class, agent version, and
  an offset into the flat address table;
- per address slot: packed IPv4, ASN, country code, cloud code.

These columns are the population: one row per PeerID and one slot per
address, the two counting units of the deployment analysis. The
per-peer accessors (``peer_id_at``, ``ips_at``, ...) read one row, and
:meth:`CompactPopulation.registries` fills the GeoIP/AS and cloud
registries the analysis joins against.

``tests/workloads/test_compact_population.py`` pins the output (every
per-peer field, registry contents in insertion order, and the
generator's final state) to sha256 literals.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect
from itertools import accumulate

from repro.measurement.registries import CloudRegistry, GeoIpRegistry
from repro.multiformats.peerid import PeerId
from repro.simnet.churn import ChurnModel
from repro.simnet.latency import PeerClass, Region
from repro.workloads.population import (
    CLOUD_SHARES,
    COUNTRY_REGION,
    IP_MULTIPLIER,
    N_TAIL_COUNTRIES,
    PEER_COUNTRY_SHARES,
    _AGENT_VERSIONS,
    _MEGA_IP_COUNTRIES,
    _NAMED_SHARE_SCALE,
    _build_as_table,
    _choices_table,
    _churn_model_for,
    _mega_probability,
    _sample_class,
    _sample_extra_ip_count,
    _sample_reachability,
    PopulationConfig,
)

#: Reachability codes (array values -> the tags ``reachability_at`` names).
REACHABILITY_NAMES = ("churning", "reliable", "never")
REACH_CHURNING, REACH_RELIABLE, REACH_NEVER = 0, 1, 2

#: Peer-class codes (array values -> the latency-model enum).
PEER_CLASSES = (PeerClass.HOME, PeerClass.SLOW, PeerClass.DATACENTER)

_REACH_CODE = {name: code for code, name in enumerate(REACHABILITY_NAMES)}
_CLASS_CODE = {cls: code for code, cls in enumerate(PEER_CLASSES)}
_AGENT_NAMES = [name for name, _ in _AGENT_VERSIONS]


def pack_ip(ip: str) -> int:
    """``"a.b.c.d"`` -> the 32-bit integer the compact arrays store."""
    a, b, c, d = ip.split(".")
    return (((int(a) << 8) | int(b)) << 16) | (int(c) << 8) | int(d)


def unpack_ip(packed: int) -> str:
    return "%d.%d.%d.%d" % (
        (packed >> 24) & 0xFF, (packed >> 16) & 0xFF,
        (packed >> 8) & 0xFF, packed & 0xFF,
    )


class CompactPopulation:
    """Struct-of-arrays peer state; ``PeerId``s materialize on demand."""

    __slots__ = (
        "config",
        "countries",
        "peer_country",
        "peer_reach",
        "peer_class",
        "peer_agent",
        "ip_off",
        "addr_ip",
        "addr_asn",
        "addr_country",
        "addr_cloud",
        "as_table",
        "mega_creations",
        "_peer_ids",
        "_region_by_code",
    )

    def __init__(
        self,
        config: PopulationConfig,
        countries: list[str],
        peer_country: array,
        peer_reach: array,
        peer_class: array,
        peer_agent: array,
        ip_off: array,
        addr_ip: array,
        addr_asn: array,
        addr_country: array,
        addr_cloud: array,
        as_table: list,
        mega_creations: list[tuple[int, int, int, int]],
    ) -> None:
        self.config = config
        self.countries = countries
        self.peer_country = peer_country
        self.peer_reach = peer_reach
        self.peer_class = peer_class
        self.peer_agent = peer_agent
        self.ip_off = ip_off
        self.addr_ip = addr_ip
        self.addr_asn = addr_asn
        self.addr_country = addr_country
        self.addr_cloud = addr_cloud
        self.as_table = as_table
        self.mega_creations = mega_creations
        self._peer_ids: list[PeerId | None] = [None] * len(peer_country)
        self._region_by_code = [
            COUNTRY_REGION.get(name, Region.EU) for name in countries
        ]

    def __len__(self) -> int:
        return len(self.peer_country)

    @property
    def n_peers(self) -> int:
        return len(self.peer_country)

    def nbytes(self) -> int:
        """Bytes held by the columnar state (arrays only)."""
        total = 0
        for name in (
            "peer_country", "peer_reach", "peer_class", "peer_agent",
            "ip_off", "addr_ip", "addr_asn", "addr_country", "addr_cloud",
        ):
            column = getattr(self, name)
            total += column.buffer_info()[1] * column.itemsize
        return total

    # -- lazy per-peer materialization ----------------------------------

    def peer_id_at(self, index: int) -> PeerId:
        """The peer's ``PeerId`` (memoized; a pure function of index)."""
        peer_id = self._peer_ids[index]
        if peer_id is None:
            peer_id = PeerId.from_public_key(b"population-peer-%d" % index)
            self._peer_ids[index] = peer_id
        return peer_id

    def peer_ids_at(self, indices) -> list[PeerId]:
        """``peer_id_at`` of each index, reading the memo inline (a
        routing-table view names up to 20 peers per FIND_NODE answer).

        Every PeerId named here stays in the memo for the population's
        life, about 45 % of what an attached peer keeps. The memo
        stays because a crawl names the same peers again and again:
        without it the bench ``crawl`` runs 1.30x longer and peaks
        1.1 MiB higher, while ``build`` saves 4 MiB
        (``benchmarks/ledger/pr-43.md``)."""
        memo = self._peer_ids
        return [memo[index] or self.peer_id_at(index) for index in indices]

    def country_at(self, index: int) -> str:
        return self.countries[self.peer_country[index]]

    def region_at(self, index: int) -> Region:
        return self._region_by_code[self.peer_country[index]]

    def reachability_at(self, index: int) -> str:
        return REACHABILITY_NAMES[self.peer_reach[index]]

    def peer_class_at(self, index: int) -> PeerClass:
        return PEER_CLASSES[self.peer_class[index]]

    def agent_at(self, index: int) -> str:
        return _AGENT_NAMES[self.peer_agent[index]]

    def churn_model_at(self, index: int) -> ChurnModel:
        return _churn_model_for(self.country_at(index))

    def churn_models(self) -> list[ChurnModel]:
        """Each country code's model (``peer_country`` indexes it): what
        :meth:`churn_model_at` builds, once per country instead of per
        peer."""
        return [_churn_model_for(name) for name in self.countries]

    def ips_at(self, index: int) -> tuple[str, ...]:
        lo, hi = self.ip_off[index], self.ip_off[index + 1]
        return tuple(unpack_ip(self.addr_ip[slot]) for slot in range(lo, hi))

    def cloud_at(self, index: int) -> str | None:
        code = self.addr_cloud[self.ip_off[index]]
        return None if code < 0 else CLOUD_SHARES[code][0]

    # -- the analysis view -----------------------------------------------

    def peer_ips(self) -> dict[int, tuple[str, ...]]:
        """Each peer's addresses, keyed by peer index (the per-PeerID
        unit of the deployment analysis)."""
        return {index: self.ips_at(index) for index in range(len(self))}

    def all_ips(self) -> list[str]:
        """Every distinct address, first sight in slot order (the per-IP
        unit)."""
        return [unpack_ip(packed) for packed in dict.fromkeys(self.addr_ip)]

    def registries(self) -> tuple[GeoIpRegistry, CloudRegistry]:
        """The GeoIP/AS and cloud registries of these addresses.

        Registries are filled in address creation order: the ten mega
        IPs first, then each address slot's IP on first sight.
        """
        geo = GeoIpRegistry()
        clouds = CloudRegistry()
        for name, _ in CLOUD_SHARES:
            clouds.add_provider(name)
        for info, _country, _share in self.as_table:
            geo.add_as(info)
        seen: set[int] = set()

        def register(packed: int, country_code: int, asn: int, cloud: int) -> None:
            if packed in seen:
                return
            seen.add(packed)
            ip = unpack_ip(packed)
            geo.add_ip(ip, self.countries[country_code], asn)
            if cloud >= 0:
                clouds.add_ip(ip, CLOUD_SHARES[cloud][0])

        for packed, country_code, asn, cloud in self.mega_creations:
            register(packed, country_code, asn, cloud)
        for slot in range(len(self.addr_ip)):
            register(
                self.addr_ip[slot], self.addr_country[slot],
                self.addr_asn[slot], self.addr_cloud[slot],
            )
        return geo, clouds


def _peer_country_table() -> tuple[list[str], list[float], float, int]:
    """The peer-country draw's :func:`_choices_table` (Fig 5 targets):
    the 20 named shares, then a Zipf-ish tail of pseudo countries so
    some are visibly larger. The hottest draw of the generator at 1M
    peers."""
    countries = [c for c, _ in PEER_COUNTRY_SHARES]
    weights = [s * _NAMED_SHARE_SCALE for _, s in PEER_COUNTRY_SHARES]
    tail_total = 1.0 - sum(weights)
    tail_raw = [1.0 / (i + 1) for i in range(N_TAIL_COUNTRIES)]
    scale = tail_total / sum(tail_raw)
    countries += ["X%03d" % i for i in range(N_TAIL_COUNTRIES)]
    weights += [w * scale for w in tail_raw]
    return _choices_table(countries, weights)


_PEER_COUNTRIES = _peer_country_table()
_AGENTS = _choices_table(
    list(range(len(_AGENT_VERSIONS))), [weight for _, weight in _AGENT_VERSIONS]
)
#: Table 3's shares accumulated once: a cloud roll is one ``random()``
#: bisected into them, and one past the last provider is "not a cloud".
_CLOUD_CUM = list(accumulate(share for _, share in CLOUD_SHARES))
_N_CLOUDS = len(CLOUD_SHARES)


def generate_compact_population(
    config: PopulationConfig, rng: random.Random
) -> CompactPopulation:
    """Generate the population as arrays.

    Deterministic for a given (config, RNG state). Draw order: the AS
    table's tail countries; the ten mega IPs (Fig 7c); then per peer its
    country (Fig 5 marginals), a mega-IP roll where the country hosts
    one, else its addresses within that country's ASes
    (:func:`_draw_addresses`), its reachability, class and agent
    version. A new address draws its AS, its four octets (redrawn on
    collision) and its cloud roll, in that order. Per-country IP
    multipliers and the mega-IP skew reproduce the IP-level marginals
    (Table 2, Fig 7c).

    Every draw goes through the generator's own ``random()`` and
    ``getrandbits()``, spent exactly as the stdlib call it stands for
    would spend them, so no ``random.py`` frame is entered per draw
    (``tests/workloads/test_spelled_draws.py`` holds each spelling, and
    a generator making the calls, to the running interpreter):

    - ``rng.choices(seq, weights)[0]`` / ``rng.choices(seq,
      cum_weights=cum)[0]`` — the country, the AS, the mega IP, the
      agent version, the AS table's tail countries — is
      ``seq[bisect(cum, random() * total, 0, hi)]`` over a
      :func:`~repro.workloads.population._choices_table` built once;
    - ``rng.randrange(a, b)`` — the four octets — is ``a + r`` for the
      first ``r = getrandbits((b - a).bit_length())`` below ``b - a``,
      and ``rng.choice(pool)`` is ``pool[r]`` the same way with
      ``len(pool)``;
    - the cloud roll is one ``random()`` bisected into Table 3's shares,
      accumulated at module load: the first provider whose running share
      exceeds the roll, none past the last.
    """
    as_table = _build_as_table(rng)
    rnd = rng.random
    getrandbits = rng.getrandbits

    # Country-code interning: sampler countries first (stable codes for
    # the hot path), then any AS-table-only countries on first sight.
    countries: list[str] = []
    code_of: dict[str, int] = {}

    def intern(country: str) -> int:
        code = code_of.get(country)
        if code is None:
            code = len(countries)
            code_of[country] = code
            countries.append(country)
        return code

    # Per-country AS index (weights = the AS's global share),
    # accumulated once: one ``random()`` and a bisect per address.
    by_country: dict[str, tuple[list[int], list[float]]] = {}
    for info, country, share in as_table:
        asns, weights = by_country.setdefault(country, ([], []))
        asns.append(info.asn)
        weights.append(share)
    as_draws = {
        country: _choices_table(asns, weights)
        for country, (asns, weights) in by_country.items()
    }
    fallback = _choices_table(
        [info.asn for info, _, _ in as_table[:200]],
        [share for _, _, share in as_table[:200]],
    )

    used: set[int] = set()

    def new_ip(country: str) -> tuple[int, int, int, int]:
        """(packed ip, asn, cloud code, country code)."""
        asns, cum, total, hi = as_draws.get(country, fallback)
        # rng.choices(asns, cum_weights=cum)[0]
        asn = asns[bisect(cum, rnd() * total, 0, hi)]
        # rng.randrange(1, 224), randrange(256), randrange(256),
        # randrange(1, 255); the address redrawn while it is taken.
        while True:
            while (a := getrandbits(8)) >= 223:
                pass
            while (b := getrandbits(9)) >= 256:
                pass
            while (c := getrandbits(9)) >= 256:
                pass
            while (d := getrandbits(8)) >= 254:
                pass
            packed = ((((a + 1) << 8) | b) << 16) | (c << 8) | (d + 1)
            if packed not in used:
                break
        used.add(packed)
        cloud = bisect(_CLOUD_CUM, rnd())
        return packed, asn, cloud if cloud < _N_CLOUDS else -1, intern(country)

    # The ten mega IPs (Fig 7c), in fixed countries roughly matching
    # the peer-country distribution so they do not skew Fig 5.
    mega_creations: list[tuple[int, int, int, int]] = []
    mega_lists: dict[str, tuple[list[tuple[int, int, int]], list[float]]] = {}
    for position, country in enumerate(_MEGA_IP_COUNTRIES):
        packed, asn, cloud, country_code = new_ip(country)
        mega_creations.append((packed, country_code, asn, cloud))
        entries, weights = mega_lists.setdefault(country, ([], []))
        entries.append((packed, asn, cloud))
        weights.append(1.0 / (position + 1))
    # country -> (P(the peer lives on a mega IP), the mega IPs' table)
    mega_by_country = {
        country: (_mega_probability(country), _choices_table(entries, weights))
        for country, (entries, weights) in mega_lists.items()
    }

    shared_pool: dict[str, list[tuple[int, int, int]]] = {}
    names, country_cum, country_total, country_hi = _PEER_COUNTRIES
    agents, agent_cum, agent_total, agent_hi = _AGENTS

    n = config.n_peers
    peer_country = array("H", bytes(2 * n))
    peer_reach = array("b", bytes(n))
    peer_class = array("b", bytes(n))
    peer_agent = array("b", bytes(n))
    ip_off = array("I", bytes(4 * (n + 1)))
    addr_ip = array("I")
    addr_asn = array("i")
    addr_country = array("H")
    addr_cloud = array("b")

    def push_slot(packed: int, asn: int, cloud: int, country_code: int) -> None:
        addr_ip.append(packed)
        addr_asn.append(asn)
        addr_country.append(country_code)
        addr_cloud.append(cloud)

    for index in range(n):
        # rng.choices(countries, cum_weights=cum)[0]
        country = names[bisect(country_cum, rnd() * country_total, 0, country_hi)]
        country_code = intern(country)
        mega = mega_by_country.get(country)
        if mega is not None and rnd() < mega[0]:
            entries, cum, total, hi = mega[1]
            # rng.choices(entries, weights)[0]
            packed, asn, cloud = entries[bisect(cum, rnd() * total, 0, hi)]
            push_slot(packed, asn, cloud, country_code)
        else:
            _draw_addresses(
                rng, country, country_code, new_ip, shared_pool, push_slot,
            )
        first = ip_off[index]
        cloud_name = (
            None if addr_cloud[first] < 0 else CLOUD_SHARES[addr_cloud[first]][0]
        )
        reachability = _sample_reachability(rng, cloud_name)
        peer_klass = _sample_class(rng, cloud_name)
        peer_country[index] = country_code
        peer_reach[index] = _REACH_CODE[reachability]
        peer_class[index] = _CLASS_CODE[peer_klass]
        # rng.choices(agents, cum_weights=cum)[0]
        peer_agent[index] = agents[bisect(agent_cum, rnd() * agent_total, 0, agent_hi)]
        ip_off[index + 1] = len(addr_ip)

    return CompactPopulation(
        config=config,
        countries=countries,
        peer_country=peer_country,
        peer_reach=peer_reach,
        peer_class=peer_class,
        peer_agent=peer_agent,
        ip_off=ip_off,
        addr_ip=addr_ip,
        addr_asn=addr_asn,
        addr_country=addr_country,
        addr_cloud=addr_cloud,
        as_table=as_table,
        mega_creations=mega_creations,
    )


def _draw_addresses(
    rng, country, country_code, new_ip, shared_pool, push_slot,
) -> None:
    """Regular peers: 1..N address slots, mostly within their country.

    The per-country multiplier (see :data:`IP_MULTIPLIER`) gives
    address-rotating ISPs (HKT, Brazilian and Chinese carriers) more
    IPs per peer, reconciling Fig 5 with Table 2. A small fraction of
    primary addresses is drawn from a shared pool (university NATs,
    small hosters), producing the 2-10-PeerID IPs below the mega tier
    in Figure 7c.
    """
    rnd = rng.random
    multiplier = IP_MULTIPLIER.get(country, 1.0)
    base = _sample_extra_ip_count(rng)
    extra = min(9, round(base * multiplier + (multiplier - 1.0)))
    pool = shared_pool.setdefault(country, [])
    if pool and rnd() < 0.08:
        # rng.choice(pool)
        size = len(pool)
        nbits = size.bit_length()
        while (j := rng.getrandbits(nbits)) >= size:
            pass
        packed, asn, cloud = pool[j]
    else:
        packed, asn, cloud, _code = new_ip(country)
        if rnd() < 0.05:
            pool.append((packed, asn, cloud))
            if len(pool) > 40:
                pool.pop(0)
    push_slot(packed, asn, cloud, country_code)
    # Target ~8.8 % multihomed peers overall; only regular peers (about
    # two thirds of the population) can be, hence the 0.13 local rate.
    multihomed = rnd() < 0.13
    for position in range(max(extra, 1 if multihomed else extra)):
        other_country = country
        if multihomed and position == 0:
            names, cum, total, hi = _PEER_COUNTRIES
            for _ in range(4):
                # rng.choices(countries, cum_weights=cum)[0], as for the peer
                other_country = names[bisect(cum, rnd() * total, 0, hi)]
                if other_country != country:
                    break
        packed, asn, cloud, other_code = new_ip(other_country)
        push_slot(packed, asn, cloud, other_code)
