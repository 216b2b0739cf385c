"""Flash-crowd request generators for the overload experiments.

Two storm shapes the steady-state day of
:mod:`repro.workloads.gateway_trace` never produces:

- **NFT drop** (:func:`generate_nft_drop`): baseline Poisson traffic
  over a background catalogue, then at ``drop_at_s`` a spike of
  requests concentrated on a handful of brand-new *hot* objects — the
  minting-rush access pattern Section 3.4's Web3/NFT Storage arrangement
  funnels through the gateways. Hot objects are cold in every cache at
  the moment the spike lands, which is exactly what makes the stock
  miss path melt (every request walks the DHT and refetches).
- **Diurnal storm** (:func:`generate_diurnal_storm`): a compressed
  region-skewed day (each country requests in its local daytime, as in
  Fig 4b) with one region's demand multiplied during a storm window —
  the regional-event overload that shifts load between fleet members
  rather than concentrating on a few objects.

Both emit :class:`BurstRequest` records whose ``object_index`` points
into the experiment's CID catalogue (hot objects first, then
background), sorted by timestamp. Generation is a pure function of the
config and the supplied RNG.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import ReproError
from repro.workloads.gateway_trace import _zipf_weights, diurnal_weight

#: Region-skewed country pool for the storm generator: (country, share,
#: rough UTC offset), a condensed version of Fig 6's geography.
STORM_COUNTRIES: list[tuple[str, float, int]] = [
    ("US", 0.45, -8), ("CN", 0.30, 8), ("HK", 0.08, 8),
    ("CA", 0.07, -5), ("JP", 0.05, 9), ("DE", 0.05, 1),
]


@dataclass(frozen=True)
class BurstRequest:
    """One GET in a flash-crowd trace."""

    timestamp: float
    #: index into the experiment's CID catalogue (hot objects first).
    object_index: int
    #: part of the spike's hot set (vs background catalogue).
    hot: bool
    user: str
    country: str


#: the region whose demand surges in the diurnal storm.
STORM_COUNTRY = "US"

#: popularity skew inside the drop's hot set and background catalogue
#: (flatter than the steady-state day: a fresh collection has no
#: established favourites yet), and across the storm's objects.
NFT_DROP_ZIPF_EXPONENT = 0.9
DIURNAL_STORM_ZIPF_EXPONENT = 1.1


@dataclass(frozen=True)
class NftDropConfig:
    """Shape of the minting-rush spike."""

    duration_s: float = 70.0
    #: when the drop goes live.
    drop_at_s: float = 15.0
    spike_duration_s: float = 25.0
    #: steady background request rate (Poisson).
    baseline_rate_hz: float = 1.2
    #: extra request rate aimed at the hot set during the spike.
    spike_rate_hz: float = 50.0
    #: the freshly-minted collection everyone browses. Many distinct
    #: items is what makes a drop brutal: the miss path stays active
    #: for the whole spike instead of one warm object's cache window.
    n_hot_objects: int = 100
    n_background_objects: int = 24

    def __post_init__(self) -> None:
        if self.duration_s <= 0 or self.spike_duration_s <= 0:
            raise ReproError("durations must be positive")
        if self.drop_at_s < 0 or self.drop_at_s >= self.duration_s:
            raise ReproError(
                f"drop_at_s must fall inside the trace, got {self.drop_at_s}"
            )
        if self.baseline_rate_hz < 0 or self.spike_rate_hz < 0:
            raise ReproError("rates must be non-negative")
        if self.n_hot_objects < 1 or self.n_background_objects < 1:
            raise ReproError("need at least one hot and one background object")

    @property
    def n_objects(self) -> int:
        return self.n_hot_objects + self.n_background_objects


@dataclass(frozen=True)
class DiurnalStormConfig:
    """Shape of the region-skewed storm: a compressed day with one
    region's demand multiplied inside a window."""

    #: simulated seconds the compressed "day" spans.
    duration_s: float = 120.0
    #: mean total request rate before diurnal shaping.
    baseline_rate_hz: float = 3.0
    #: the window sits in US local afternoon on the compressed clock
    #: (t=75 s maps to local 15:00), where the diurnal curve peaks —
    #: a surge in the storm region's own daytime.
    storm_start_s: float = 55.0
    storm_duration_s: float = 40.0
    #: demand multiplier for the storm region inside the window.
    storm_multiplier: float = 10.0
    n_objects: int = 40

    def __post_init__(self) -> None:
        if self.duration_s <= 0 or self.storm_duration_s <= 0:
            raise ReproError("durations must be positive")
        if not 0 <= self.storm_start_s < self.duration_s:
            raise ReproError(
                f"storm_start_s must fall inside the trace, got {self.storm_start_s}"
            )
        if self.baseline_rate_hz < 0 or self.storm_multiplier < 1.0:
            raise ReproError("need baseline_rate_hz >= 0 and storm_multiplier >= 1")
        if self.n_objects < 1:
            raise ReproError("need at least one object")


def _poisson_arrivals(
    rng: random.Random, rate_hz: float, start_s: float, end_s: float
) -> list[float]:
    """Poisson arrival times in [start_s, end_s) at ``rate_hz``."""
    arrivals: list[float] = []
    if rate_hz <= 0:
        return arrivals
    t = start_s
    while True:
        t += rng.expovariate(rate_hz)
        if t >= end_s:
            return arrivals
        arrivals.append(t)


def generate_nft_drop(
    config: NftDropConfig, rng: random.Random
) -> list[BurstRequest]:
    """The minting rush: baseline catalogue traffic plus a hot-set
    spike starting at ``drop_at_s``, sorted by timestamp."""
    background_weights = _zipf_weights(
        config.n_background_objects, NFT_DROP_ZIPF_EXPONENT
    )
    hot_weights = _zipf_weights(config.n_hot_objects, NFT_DROP_ZIPF_EXPONENT)
    countries = [country for country, _, _ in STORM_COUNTRIES]
    country_weights = [share for _, share, _ in STORM_COUNTRIES]

    requests: list[BurstRequest] = []
    serial = 0
    for timestamp in _poisson_arrivals(
        rng, config.baseline_rate_hz, 0.0, config.duration_s
    ):
        index = config.n_hot_objects + rng.choices(
            range(config.n_background_objects), background_weights
        )[0]
        requests.append(
            BurstRequest(
                timestamp=timestamp,
                object_index=index,
                hot=False,
                user="bg-%05d" % serial,
                country=rng.choices(countries, country_weights)[0],
            )
        )
        serial += 1
    spike_end = min(config.duration_s, config.drop_at_s + config.spike_duration_s)
    for timestamp in _poisson_arrivals(
        rng, config.spike_rate_hz, config.drop_at_s, spike_end
    ):
        index = rng.choices(range(config.n_hot_objects), hot_weights)[0]
        requests.append(
            BurstRequest(
                timestamp=timestamp,
                object_index=index,
                hot=True,
                user="drop-%05d" % serial,
                country=rng.choices(countries, country_weights)[0],
            )
        )
        serial += 1
    requests.sort(key=lambda request: (request.timestamp, request.user))
    return requests


def generate_diurnal_storm(
    config: DiurnalStormConfig, rng: random.Random
) -> list[BurstRequest]:
    """The regional surge: diurnal per-country demand over a compressed
    day, with the storm region's rate multiplied inside its window."""
    object_weights = _zipf_weights(config.n_objects, DIURNAL_STORM_ZIPF_EXPONENT)
    #: map compressed-trace seconds onto the 86 400 s diurnal curve.
    day_scale = 86_400.0 / config.duration_s
    storm_end = min(
        config.duration_s, config.storm_start_s + config.storm_duration_s
    )

    requests: list[BurstRequest] = []
    serial = 0
    for country, share, utc_offset in STORM_COUNTRIES:
        # Thinned Poisson: draw at the country's peak-possible rate and
        # keep each arrival with probability weight/peak, which yields
        # an inhomogeneous Poisson process shaped by the diurnal curve.
        peak_multiplier = (
            config.storm_multiplier if country == STORM_COUNTRY else 1.0
        )
        peak_rate = config.baseline_rate_hz * share * 2.2 * peak_multiplier
        for timestamp in _poisson_arrivals(rng, peak_rate, 0.0, config.duration_s):
            weight = diurnal_weight(timestamp * day_scale, utc_offset) / 2.2
            in_storm = (
                country == STORM_COUNTRY
                and config.storm_start_s <= timestamp < storm_end
            )
            if not in_storm:
                weight /= peak_multiplier
            if rng.random() >= weight:
                continue
            index = rng.choices(range(config.n_objects), object_weights)[0]
            requests.append(
                BurstRequest(
                    timestamp=timestamp,
                    object_index=index,
                    hot=in_storm,
                    user="%s-%05d" % (country.lower(), serial),
                    country=country,
                )
            )
            serial += 1
    requests.sort(key=lambda request: (request.timestamp, request.user))
    return requests
