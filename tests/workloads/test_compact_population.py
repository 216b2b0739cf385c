"""The population generator's output, pinned.

:func:`repro.workloads.compact.generate_compact_population` makes the
population's draws; ``generate_population`` and ``spec_at`` are views of
its arrays. The sha256 literals below were recorded from the separate
object generator ``generate_population`` used to be, at the commit
before it was removed, so they hold the one remaining generator to that
output: every ``PeerSpec`` field, the registries' contents **in
insertion order** (dict equality would not notice a reordering; CI runs
this file under several ``PYTHONHASHSEED`` values), and the generator's
state afterwards.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.utils.rng import derive_rng
from repro.workloads.compact import generate_compact_population
from repro.workloads.population import PopulationConfig, generate_population
from tests.helpers import rng_state_sha256

#: seed -> (population_sha256, rng_state_sha256) at 400 peers.
PINNED = {
    42: (
        "0290e91761adc4a39a08676217c0efec315e6febe0db364c7cc8cc546e664b7c",
        "82caa69cd65913c00b0b24aecef2f8e1b78097496d44885d5f2dd03d33f31947",
    ),
    7: (
        "1bc73e8b3203320a891fa1b4254109e522ad5ec2fe64bdca9e15faf41aa2c251",
        "b24d87b6ca7ad5ae77fe091a35d7160d8492f64b0882ed223d124c9bb90ed3b0",
    ),
    20260808: (
        "d57b916285dfe5df5c44880dc36930e8b9dc0b525fb7570a2520922525aa0571",
        "6523b9466c3dabe03c4986f3f8f4ac107c11c22fb578ec5ce82805b87d5b4d7a",
    ),
}


def population_sha256(population) -> str:
    """Canonical digest: one line per peer from its accessors and
    address slots, then registry contents in iteration order."""
    digest = hashlib.sha256()

    def put(*fields):
        digest.update(("|".join(map(str, fields)) + "\n").encode("ascii"))

    for i in range(len(population)):
        slots = range(population.ip_off[i], population.ip_off[i + 1])
        put("peer", i, population.peer_id_at(i), ",".join(population.ips_at(i)),
            population.country_at(i),
            ",".join(population.countries[population.addr_country[slot]] for slot in slots),
            population.addr_asn[slots[0]], population.region_at(i).value,
            population.cloud_at(i), population.reachability_at(i),
            population.peer_class_at(i).value, repr(population.churn_model_at(i)),
            population.agent_at(i))
    geo, clouds = population.registries()
    for ip, country in geo._country_by_ip.items():
        put("geo", ip, country)
    for ip, asn in geo._asn_by_ip.items():
        put("asn", ip, asn)
    for asn, info in geo._as_info.items():
        put("as", asn, info.asn, info.rank, info.name)
    put("providers", *clouds.providers)
    for ip, provider in clouds._provider_by_ip.items():
        put("cloud", ip, provider)
    return digest.hexdigest()


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_population_is_pinned(seed):
    rng = derive_rng(seed, "population")
    population = generate_population(PopulationConfig(n_peers=400), rng)
    assert (population_sha256(population), rng_state_sha256(rng)) == PINNED[seed]


#: seed -> (arrays_sha256, rng_state_sha256) at 20 000 peers, recorded
#: before the generator's stdlib calls were written out inline. At this
#: size the shared pools fill past their 40-entry cap (225 evictions)
#: and one packed-IP draw collides and is redrawn; the 400-peer rows
#: reach neither. The arrays stand in for the per-peer lines and the
#: registries, which would more than double the row's time.
PINNED_ARRAYS = {
    42: (
        "2d7f50e0817cd567d55edb1f8ca20fef49368787f61f815914f03dc755cfe760",
        "25935095eb65b72f2b46526c48d7e71dc19cde968c0dd782e41fb3b800be5663",
    ),
}


def compact_sha256(compact) -> str:
    """Canonical digest of the arrays, the country codes and the mega IPs."""
    digest = hashlib.sha256()
    for name in (
        "peer_country", "peer_reach", "peer_class", "peer_agent",
        "ip_off", "addr_ip", "addr_asn", "addr_country", "addr_cloud",
    ):
        column = getattr(compact, name)
        digest.update(b"%s:%d:%d\n" % (name.encode(), column.itemsize, len(column)))
        digest.update(column.tobytes())
    digest.update(repr(compact.countries).encode("ascii"))
    digest.update(repr(compact.mega_creations).encode("ascii"))
    return digest.hexdigest()


def _arrays_digests(seed: int) -> tuple[str, str]:
    rng = derive_rng(seed, "population")
    compact = generate_compact_population(PopulationConfig(n_peers=20_000), rng)
    return compact_sha256(compact), rng_state_sha256(rng)


@pytest.mark.parametrize("seed", sorted(PINNED_ARRAYS))
def test_arrays_are_pinned_at_scale(seed):
    assert _arrays_digests(seed) == PINNED_ARRAYS[seed]


def test_compact_is_actually_compact():
    compact = generate_compact_population(
        PopulationConfig(n_peers=2000), derive_rng(42, "population")
    )
    # The whole point: tens of bytes per peer in arrays (peer ids
    # materialize lazily), versus ~kilobytes of objects.
    assert compact.nbytes() / len(compact) < 200
