"""Tests for the Hydra booster extension."""

from repro.dht.bootstrap import populate_routing_tables
from repro.dht.hydra import HydraBooster
from repro.multiformats.cid import make_cid
from repro.utils.rng import derive_rng
from tests.helpers import build_world


def world_with_hydra(n=60, heads=10, seed=95):
    world = build_world(n=n, seed=seed, populate=False)
    booster = HydraBooster(world.sim, world.net)
    booster.spawn_heads(heads, derive_rng(seed, "hydra"))
    populate_routing_tables(
        [node for node in world.nodes] + booster.heads, world.rng
    )
    return world, booster


class TestHeads:
    def test_heads_are_distinct_servers(self):
        world, booster = world_with_hydra()
        ids = [head.host.peer_id for head in booster.heads]
        assert len(set(ids)) == 10
        for head in booster.heads:
            assert head.server

    def test_heads_share_the_record_store(self):
        world, booster = world_with_hydra()
        from repro.dht.records import ProviderRecord
        from repro.multiformats.peerid import PeerId

        record = ProviderRecord(make_cid(b"x"), PeerId.from_public_key(b"p"), 0.0)
        booster.heads[0].provider_store.add(record)
        assert booster.heads[5].provider_store.providers_for(
            make_cid(b"x"), now=1.0
        )
        assert booster.shared_providers.record_count() == 1

    def test_spawn_more_heads_extends(self):
        world, booster = world_with_hydra(heads=4)
        booster.spawn_heads(3, derive_rng(1, "more"))
        assert len(booster.heads) == 7


class TestBoosterAbsorbsRecords:
    def test_publications_land_on_heads(self):
        # With heads comparable in number to real peers, most
        # publications store at least one record on the booster.
        world, booster = world_with_hydra(n=50, heads=25, seed=96)
        publisher = world.node(0)
        hits = 0
        for index in range(6):
            cid = make_cid(b"hydra-content-%d" % index)

            def publish(cid=cid):
                return (yield from publisher.provide(cid))

            world.sim.run_process(publish())
            if booster.shared_providers.providers_for(cid, world.sim.now):
                hits += 1
        assert hits >= 3
        assert booster.shared_providers.record_count() >= hits

    def test_any_head_serves_a_record_stored_on_another(self):
        world, booster = world_with_hydra(n=50, heads=25, seed=97)
        publisher = world.node(0)
        cid = make_cid(b"find me via any head")

        def publish():
            return (yield from publisher.provide(cid))

        world.sim.run_process(publish())
        if not booster.shared_providers.providers_for(cid, world.sim.now):
            import pytest

            pytest.skip("no head among the 20 closest for this key/seed")
        # Ask a head that was NOT necessarily among the closest.
        from repro.dht import rpc
        from repro.dht.keyspace import key_for_cid

        requester = world.node(10)

        def ask():
            response = yield world.net.rpc(
                requester.host,
                booster.heads[0].host.peer_id,
                rpc.GET_PROVIDERS,
                rpc.GetProvidersRequest(key_for_cid(cid), cid),
            )
            return response.providers

        providers = world.sim.run_process(ask())
        assert providers
