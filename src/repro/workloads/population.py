"""Synthetic peer population calibrated to Section 5 of the paper.

The generator reproduces, at a configurable scale, every structural
property the deployment analysis measures:

- **Geography (Fig 5)** — peer-country shares led by US (28.5 %) and
  CN (24.2 %); ~152 countries total; ~8.8 % multihomed peers.
- **AS structure (Table 2, Fig 7d)** — the five named top ASes with
  their published IP shares (>50 % combined), top-10 ≈ 65 %,
  top-100 ≈ 90 %, ~2715 ASes total (Zipf tail).
- **PeerIDs per IP (Fig 7c)** — >92 % of IPs host one PeerID while ten
  "mega" IPs host roughly a third of all PeerIDs.
- **Dialability (Fig 4a/7b)** — ~45 % of addresses never reachable;
  about one third of peers never accessible.
- **Reliability (Fig 7a)** — ~1.4 % of peers with >90 % uptime.
- **Clouds (Table 3)** — <2.3 % of IPs in cloud providers, Contabo
  first, AWS second.
- **Churn (Fig 8)** — log-normal session lengths with country-specific
  medians (HK 24.2 min; Germany more than double that).

Because peer-level and IP-level marginals interact (the paper's CN has
31.7 % of IPs but only 24.2 % of peers), IP attributes are drawn from
the AS table first and the *mega-IP skew* then shifts the peer-level
distribution — the same mechanism the paper observes.
"""

from __future__ import annotations

import random
from bisect import bisect
from dataclasses import dataclass, field
from itertools import accumulate
from typing import TYPE_CHECKING

from repro.measurement.registries import AsInfo, CloudRegistry, GeoIpRegistry
from repro.multiformats.peerid import PeerId
from repro.simnet.churn import ChurnModel
from repro.simnet.latency import PeerClass, Region

if TYPE_CHECKING:
    from repro.workloads.compact import CompactPopulation

# --------------------------------------------------------------------------
# Calibration tables
# --------------------------------------------------------------------------

#: country -> macro region of the latency matrix.
COUNTRY_REGION: dict[str, Region] = {
    "US": Region.NA_WEST, "CA": Region.NA_EAST, "MX": Region.NA_EAST,
    "BR": Region.SA, "AR": Region.SA, "CL": Region.SA, "CO": Region.SA,
    "CN": Region.ASIA_EAST, "TW": Region.ASIA_EAST, "KR": Region.ASIA_EAST,
    "JP": Region.ASIA_EAST, "HK": Region.ASIA_EAST,
    "SG": Region.ASIA_SE, "TH": Region.ASIA_SE, "VN": Region.ASIA_SE,
    "ID": Region.ASIA_SE, "MY": Region.ASIA_SE, "IN": Region.ASIA_SE,
    "FR": Region.EU, "DE": Region.EU, "GB": Region.EU, "NL": Region.EU,
    "PL": Region.EU, "RU": Region.EU, "UA": Region.EU, "IT": Region.EU,
    "ES": Region.EU, "SE": Region.EU, "CH": Region.EU, "FI": Region.EU,
    "ZA": Region.AFRICA, "NG": Region.AFRICA, "KE": Region.AFRICA,
    "EG": Region.AFRICA,
    "AE": Region.MIDDLE_EAST, "SA": Region.MIDDLE_EAST, "IL": Region.MIDDLE_EAST,
    "TR": Region.MIDDLE_EAST, "BH": Region.MIDDLE_EAST,
    "AU": Region.OCEANIA, "NZ": Region.OCEANIA,
}

#: Median session length in minutes, per country (Fig 8 calibration:
#: Hong Kong 24.2 min; Germany "more than double that figure").
CHURN_MEDIAN_MIN: dict[str, float] = {
    "HK": 24.2, "DE": 52.0, "US": 40.0, "CN": 29.0, "FR": 46.0,
    "KR": 33.0, "TW": 30.0, "JP": 44.0, "GB": 45.0, "CA": 42.0,
}
DEFAULT_CHURN_MEDIAN_MIN = 38.0

#: The five ASes of Table 2 with their published IP shares, followed by
#: five fabricated-but-plausible next entries chosen so the top-10
#: cumulative share lands on the paper's 64.9 %.
_TOP_ASES: list[tuple[int, int, str, str, float]] = [
    (4134, 76, "CHINANET-BACKBONE No.31,Jin-rong Street, CN", "CN", 0.189),
    (4837, 160, "CHINA169-BACKBONE CHINA UNICOM China169 Back., CN", "CN", 0.128),
    (4760, 2976, "HKTIMS-AP HKT Limited, HK", "HK", 0.096),
    (26599, 6797, "TELEFONICA BRASIL S.A, BR", "BR", 0.069),
    (3462, 340, "HINET Data Communication Business Group, TW", "TW", 0.053),
    (4766, 523, "KIXS-AS-KR Korea Telecom, KR", "KR", 0.035),
    (7922, 19, "COMCAST-7922, US", "US", 0.025),
    (3215, 233, "Orange S.A., FR", "FR", 0.020),
    (701, 18, "UUNET Verizon Business, US", "US", 0.018),
    (9808, 257, "CMNET-GD Guangdong Mobile, CN", "CN", 0.016),
]

#: Country weights for the fabricated AS tail (shapes the long tail of
#: the IP-level geography).
_TAIL_AS_COUNTRIES: list[tuple[str, float]] = [
    ("US", 0.30), ("DE", 0.07), ("FR", 0.06), ("KR", 0.05), ("JP", 0.05),
    ("GB", 0.045), ("CA", 0.04), ("NL", 0.035), ("RU", 0.03), ("PL", 0.025),
    ("CN", 0.025), ("TW", 0.02), ("BR", 0.02), ("AU", 0.02), ("SG", 0.02),
    ("IN", 0.02), ("IT", 0.02), ("ES", 0.02), ("SE", 0.015), ("CH", 0.015),
    ("ZA", 0.01), ("AE", 0.01), ("TR", 0.01), ("UA", 0.01), ("MX", 0.01),
    ("AR", 0.01), ("CL", 0.01), ("TH", 0.01), ("VN", 0.01), ("ID", 0.01),
    ("MY", 0.01), ("FI", 0.01), ("EG", 0.005), ("KE", 0.005), ("NG", 0.005),
    ("IL", 0.005), ("NZ", 0.005), ("SA", 0.005), ("CO", 0.005), ("HK", 0.005),
]

#: Cloud providers of Table 3 with their share of all IP addresses.
CLOUD_SHARES: list[tuple[str, float]] = [
    ("Contabo GmbH", 0.0048),
    ("Amazon AWS", 0.0038),
    ("Microsoft Azure/Corporation", 0.0033),
    ("Digital Ocean", 0.0018),
    ("Hetzner Online", 0.0013),
    ("GZ Systems", 0.00075),
    ("OVH", 0.00073),
    ("Google Cloud", 0.00062),
    ("Tencent Cloud", 0.00056),
    ("Choopa, LLC. Cloud", 0.00053),
    ("Alibaba Cloud", 0.00039),
    ("CloudFlare Inc", 0.00030),
    ("Oracle Cloud", 0.00006),
    ("IBM Cloud", 0.00002),
    ("Other Cloud Providers", 0.0043),
]

#: Peer-level country shares (Figure 5 targets; top five are the
#: paper's numbers, the rest plausible fill, scaled to leave a 6 % tail
#: across ~132 further pseudo countries for the 152-country total).
PEER_COUNTRY_SHARES: list[tuple[str, float]] = [
    ("US", 0.285), ("CN", 0.242), ("FR", 0.083), ("TW", 0.072), ("KR", 0.067),
    ("DE", 0.048), ("HK", 0.036), ("JP", 0.028), ("GB", 0.022), ("CA", 0.019),
    ("BR", 0.015), ("NL", 0.015), ("RU", 0.014), ("PL", 0.011), ("SG", 0.010),
    ("AU", 0.008), ("IN", 0.007), ("IT", 0.007), ("ES", 0.006), ("SE", 0.005),
]
_NAMED_SHARE_SCALE = 0.94  # leaves 6 % for the pseudo-country tail
N_TAIL_COUNTRIES = 132

#: IPs-per-peer multiplier per country. This reconciles the peer-level
#: geography (Fig 5) with the IP-level AS shares (Table 2): HKT's 9.6 %
#: of IPs with only ~3.6 % of peers means Hong Kong addresses rotate
#: under their peers (many IPs per peer); the US is the opposite.
IP_MULTIPLIER: dict[str, float] = {
    "HK": 3.7, "CN": 1.85, "BR": 5.5, "TW": 1.35, "US": 0.75,
    "KR": 0.75, "FR": 0.5,
}

#: Mega-IP host countries: ten addresses hosting ~a third of all
#: PeerIDs (Fig 7c). Skewed to the US, which is how the peer-level
#: country distribution ends up US-led while the IP level is CN-led.
_MEGA_IP_COUNTRIES = ["US", "CN", "US", "CN", "FR", "TW", "KR", "US", "DE", "HK"]

#: Fraction of all PeerIDs hosted on the ten mega IPs.
MEGA_PEER_FRACTION = 0.33

#: Paper: 464 k IPs over 199 k peers — about 2.3 addresses per peer.
MEAN_IPS_PER_PEER = 2.3

#: Fraction of peers advertising IPs in multiple countries.
MULTIHOMING_FRACTION = 0.088

#: Fabricated tail ASes: + 10 named = 2715 total (Section 5.2).
N_TAIL_ASES = 2705
#: Peers never accessible (Fig 7b) and peers with > 90 % uptime
#: (Fig 7a), among peers outside the clouds.
NEVER_REACHABLE_FRACTION = 0.33
RELIABLE_FRACTION = 0.014
#: Home peers on a slow access link.
SLOW_FRACTION_OF_HOME = 0.10


@dataclass(frozen=True)
class PopulationConfig:
    """The population's scale; the mixture is the paper's, in the
    tables and constants above."""

    n_peers: int = 5000


@dataclass(frozen=True)
class PeerSpec:
    """Everything the simulator and analysis need about one peer."""

    index: int
    peer_id: PeerId
    ips: tuple[str, ...]
    country: str  # of the primary address
    countries: tuple[str, ...]
    asn: int
    region: Region
    cloud_provider: str | None
    reachability: str  # 'reliable' | 'never' | 'churning'
    peer_class: PeerClass
    churn_model: ChurnModel
    agent_version: str

    @property
    def multihomed(self) -> bool:
        return len(set(self.countries)) > 1


@dataclass
class Population:
    """The generated peers plus their consistent lookup registries."""

    peers: list[PeerSpec]
    geo: GeoIpRegistry
    clouds: CloudRegistry
    config: PopulationConfig
    #: the columns these objects were built from (what the world is built from)
    compact: CompactPopulation = field(compare=False, repr=False)

    def peer_ips(self) -> dict[PeerId, tuple[str, ...]]:
        return {peer.peer_id: peer.ips for peer in self.peers}

    def all_ips(self) -> list[str]:
        seen: set[str] = set()
        out: list[str] = []
        for peer in self.peers:
            for ip in peer.ips:
                if ip not in seen:
                    seen.add(ip)
                    out.append(ip)
        return out


def _choices_table(population: list, weights) -> tuple[list, list[float], float, int]:
    """``(population, cum, total, hi)``: what ``random.Random.choices``
    computes from its arguments before its one ``random()``.

    ``rng.choices(population, weights)[0]`` — and the ``cum_weights=``
    form, whose ``cum`` is the running sum — is then
    ``population[bisect(cum, rng.random() * total, 0, hi)]``, with no
    stdlib frame entered and nothing re-accumulated per draw.
    ``tests/workloads/test_spelled_draws.py`` holds the spelling to the
    running interpreter's ``choices``.
    """
    cum = list(accumulate(weights))
    return population, cum, cum[-1] + 0.0, len(cum) - 1


def _build_as_table(rng: random.Random) -> list[tuple[AsInfo, str, float]]:
    """The global AS share table: named heads + Zipf tail.

    Tail shares are scaled so ranks 11-100 sum to ~25.7 % (making the
    top-100 share 90.6 %) and the rest covers the remainder.
    """
    table: list[tuple[AsInfo, str, float]] = [
        (AsInfo(asn, rank, name), country, share)
        for asn, rank, name, country, share in _TOP_ASES
    ]
    head_share = sum(share for *_, share in table)
    mid_total = 0.906 - head_share  # ranks 11..100
    tail_total = 1.0 - 0.906  # ranks 101..
    mid_weights = [1.0 / i for i in range(1, 91)]
    mid_scale = mid_total / sum(mid_weights)
    far_count = N_TAIL_ASES - 90
    far_weights = [1.0 / i for i in range(1, far_count + 1)]
    far_scale = tail_total / sum(far_weights)
    countries, cum, total, hi = _choices_table(
        [c for c, _ in _TAIL_AS_COUNTRIES], [w for _, w in _TAIL_AS_COUNTRIES]
    )
    rnd = rng.random
    next_asn = 60000
    next_rank = 300
    for position in range(N_TAIL_ASES):
        share = (
            mid_weights[position] * mid_scale
            if position < 90
            else far_weights[position - 90] * far_scale
        )
        # rng.choices(countries, weights)[0]
        country = countries[bisect(cum, rnd() * total, 0, hi)]
        info = AsInfo(next_asn + position, next_rank + position * 3,
                      f"SYNTH-AS-{next_asn + position}, {country}")
        table.append((info, country, share))
    return table


def _churn_model_for(country: str) -> ChurnModel:
    median_min = CHURN_MEDIAN_MIN.get(country, DEFAULT_CHURN_MEDIAN_MIN)
    return ChurnModel(median_session_s=median_min * 60.0)


_AGENT_VERSIONS = [
    ("go-ipfs/0.10.0", 0.38), ("go-ipfs/0.9.1", 0.22), ("go-ipfs/0.8.0", 0.15),
    ("hydra-booster/0.7.4", 0.05), ("storm/1.0", 0.06), ("go-ipfs/0.11.0-rc1", 0.04),
    ("other", 0.10),
]


def generate_population(
    config: PopulationConfig, rng: random.Random
) -> Population:
    """Generate a population plus its consistent registries.

    Deterministic for a given (config, RNG state). The draws are made
    once, by :func:`repro.workloads.compact.generate_compact_population`
    (country first, then addresses within that country's ASes; see its
    docstring for the order); this is the object view of its arrays.
    """
    # Imported here: compact.py imports this module's tables and types.
    from repro.workloads.compact import generate_compact_population

    return generate_compact_population(config, rng).to_population()


def _mega_probability(country: str) -> float:
    """P(live on a mega IP | country has one), tuned so the global
    mega-hosted fraction lands near :data:`MEGA_PEER_FRACTION`.

    Countries with mega IPs cover ~85 % of peers, so 0.33/0.85 ≈ 0.39.
    """
    return MEGA_PEER_FRACTION / 0.85


def _sample_extra_ip_count(rng: random.Random) -> int:
    """Extra addresses per regular peer before the country multiplier;
    tuned so the global average lands near :data:`MEAN_IPS_PER_PEER`."""
    roll = rng.random()
    if roll < 0.25:
        return 0
    if roll < 0.55:
        return 1
    if roll < 0.85:
        return 2
    return 3


def _sample_reachability(rng: random.Random, cloud: str | None) -> str:
    if cloud is not None:  # cloud hosts are never behind a NAT
        return "reliable" if rng.random() < 0.5 else "churning"
    roll = rng.random()
    if roll < NEVER_REACHABLE_FRACTION:
        return "never"
    if roll < NEVER_REACHABLE_FRACTION + RELIABLE_FRACTION:
        return "reliable"
    return "churning"


def _sample_class(rng: random.Random, cloud: str | None) -> PeerClass:
    if cloud is not None:
        return PeerClass.DATACENTER
    if rng.random() < SLOW_FRACTION_OF_HOME:
        return PeerClass.SLOW
    return PeerClass.HOME
