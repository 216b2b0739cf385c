"""Routing-table bootstrap.

Two ways to wire up a simulated DHT:

- :func:`join_network` — the organic path a real node takes: seed the
  table with the canonical bootstrap peers, then walk towards our own
  key to discover our neighbourhood (Section 2.2's "joining ... by
  connecting to a set of canonical bootstrap peers").
- :func:`populate_routing_tables` — a fast-forward for large worlds:
  fill every node's k-buckets directly from the global peer list, with
  the same per-bucket structure an organically-converged Kademlia
  reaches. Building a 10 k-peer network organically would cost millions
  of simulated RPCs for no extra fidelity in the steady state the
  paper's experiments measure.

The bucket-fill trick: peers whose key shares exactly ``i`` leading
bits with ours occupy one contiguous interval of the sorted key space,
so each bucket is a binary search plus a bounded sample.
"""

from __future__ import annotations

import bisect
import random
from collections.abc import Generator

from repro.dht.dht_node import DhtNode
from repro.dht.keyspace import KEY_BITS, key_for_peer
from repro.multiformats.peerid import PeerId


def join_network(node: DhtNode, bootstrap_peers: list[PeerId]) -> Generator:
    """Organic join: seed with bootstrap peers, then self-lookup.

    Returns the join's :class:`~repro.dht.lookup.LookupStats`.
    """
    node.bootstrap(bootstrap_peers)
    _, stats = yield from node.walk_closest(key_for_peer(node.host.peer_id))
    return stats


def populate_routing_tables(
    nodes: list[DhtNode],
    rng: random.Random,
    stale_fraction: float = 0.05,
) -> None:
    """Fill k-buckets of every node from the server subset of ``nodes``.

    Only DHT servers are inserted into tables (the client/server rule
    of Section 2.3); client nodes still get tables so they can launch
    lookups. Each bucket receives at most its table's bucket size.

    ``stale_fraction`` bounds the share of *unreachable* peers per
    bucket. Live routing tables are continuously maintained, so they
    are much healthier than the crawl-wide 45.5 % undialable rate —
    but never perfectly clean, and those stale entries are what the
    walk's dial timeouts hit.

    Every table must be empty on entry: each node's picks go to
    :meth:`RoutingTable.load` in one call, which raises
    :class:`~repro.errors.SimulationError` on a table that holds a peer.
    """
    servers = [n for n in nodes if n.server]
    ordered = sorted(
        (int.from_bytes(key_for_peer(n.host.peer_id), "big"), n.host.peer_id, n)
        for n in servers
    )
    keys = [key for key, _, _ in ordered]
    ids = [peer_id for _, peer_id, _ in ordered]
    reachable = [n.host.reachable for _, _, n in ordered]
    # Ascending positions of live / stale servers. A bucket's live set
    # is then a bisect slice of these instead of a comprehension over
    # the whole bucket interval — bucket 0 spans half the keyspace, so
    # the comprehensions made table fill quadratic in network size.
    # Slicing preserves the exact ascending order the comprehensions
    # produced, so rng.sample draws identical elements.
    live_positions = [i for i, ok in enumerate(reachable) if ok]
    stale_positions = [i for i, ok in enumerate(reachable) if not ok]

    for node in nodes:
        own_int = node.host.peer_id.dht_key_int()
        cap = node.routing_table.bucket_size
        picks: list[PeerId] = []
        # [cur_lo, cur_hi) tracks the servers sharing our first `bucket`
        # key bits; bucket `bucket`'s interval is its sibling half, so
        # one boundary bisect (bounded to the parent interval) per
        # bucket replaces two over the whole key list.
        cur_lo, cur_hi = 0, len(keys)
        for bucket in range(KEY_BITS):
            if cur_hi - cur_lo <= cap:
                # Every remaining peer shares >= bucket leading bits
                # with us, so each deeper bucket's slice fits under
                # `cap` and is inserted wholesale — same entries the
                # per-bucket walk would add, without iterating the
                # ~240 empty tail buckets.
                picks += [
                    ids[index] for index in range(cur_lo, cur_hi)
                    if keys[index] != own_int
                ]
                break
            shift = KEY_BITS - bucket - 1
            prefix = own_int >> shift
            if prefix & 1:
                mid = bisect.bisect_left(keys, prefix << shift, cur_lo, cur_hi)
                start, end = cur_lo, mid
                cur_lo = mid
            else:
                mid = bisect.bisect_left(keys, (prefix ^ 1) << shift, cur_lo, cur_hi)
                start, end = mid, cur_hi
                cur_hi = mid
            if start >= end:
                continue
            population = range(start, end)
            if len(population) <= cap:
                chosen = list(population)
            else:
                live = live_positions[
                    bisect.bisect_left(live_positions, start):
                    bisect.bisect_left(live_positions, end)
                ]
                stale = stale_positions[
                    bisect.bisect_left(stale_positions, start):
                    bisect.bisect_left(stale_positions, end)
                ]
                n_stale = min(len(stale), int(cap * stale_fraction))
                chosen = rng.sample(live, min(len(live), cap - n_stale))
                chosen += rng.sample(stale, n_stale)
                if len(chosen) < cap:
                    taken = set(chosen)
                    leftovers = [i for i in stale if i not in taken]
                    chosen += rng.sample(
                        leftovers, min(len(leftovers), cap - len(chosen))
                    )
            picks += [ids[index] for index in chosen if keys[index] != own_int]
        node.routing_table.load(picks)
