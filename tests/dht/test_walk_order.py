"""The walk's tie rule: replies that settle together are consumed in
launch order, and the shortlist stays in distance order.

A walk sleeps on one future that any settling reply wakes, then takes
the earliest *launched* query that has settled. Two replies can settle
before it sleeps at all (an answer ready when its query launches);
this pins that they are taken in the order their queries went out.
Candidates are dicts keyed by ``PeerId``, so the order must not depend
on the hash seed either.
"""

from __future__ import annotations

from repro.dht import rpc
from repro.dht.keyspace import key_for_cid
from repro.dht.lookup import _Walk
from repro.multiformats.cid import make_cid
from repro.simnet.sim import Future
from tests.helpers import build_world

LIVE = ("new", "inflight", "ok")


def test_replies_settled_before_the_walk_sleeps_are_taken_in_launch_order():
    world = build_world(n=60, seed=7)
    node = world.node(0)
    by_id = {n.host.peer_id: n for n in world.nodes}
    key = key_for_cid(make_cid(b"walk tie order"))
    launched: list = []
    ready: list = []
    network_rpc = world.net.rpc

    def rpc_with_two_ready_answers(src, target_id, method, payload, **kwargs):
        launched.append(target_id)
        if src is node.host and len(launched) <= 2:
            # the remote's own answer, there before the walk can sleep
            closer = by_id[target_id].routing_table.closest(payload.target_key)
            answer = Future.resolved(rpc.FindNodeResponse(tuple(closer)))
            ready.append(target_id)
            return answer
        return network_rpc(src, target_id, method, payload, **kwargs)

    world.net.rpc = rpc_with_two_ready_answers
    walk = _Walk(node, key)
    consumed: list = []

    def handle_response(peer_id, response) -> bool:
        consumed.append((peer_id, world.sim.now, len(launched)))
        live = walk._sorted_live()
        fresh = sorted(
            (c for c in walk.candidates.values() if c.state in LIVE),
            key=lambda c: c.distance,
        )
        assert live == fresh
        return False

    def make_request():
        return rpc.FIND_NODE, rpc.FindNodeRequest(key), 64

    world.sim.run_process(walk.run(make_request, handle_response, want_closest=False))

    assert len(ready) == 2 and launched[:2] == ready
    # both answers settled as their queries launched: the walk filled
    # its α slots, then took them without sleeping, first launched first
    assert [(peer, now) for peer, now, _ in consumed[:2]] == [
        (ready[0], 0.0), (ready[1], 0.0),
    ]
    assert consumed[0][2] == node.config.alpha
    # the rest came over the network, one wake per reply
    assert len(consumed) > 2 and consumed[2][1] > 0.0
    assert walk._sorted_live() == sorted(walk._sorted_live(), key=lambda c: c.distance)
