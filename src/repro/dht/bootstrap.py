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
bits with ours are one contiguous interval of the sorted server keys —
the sibling subtree at depth ``i`` of our path through the binary trie
over those keys. All peers walk the *same* trie, so it is built once
per world (:class:`KeyspaceTree`, about one node per 14 servers) and a
fill (:func:`sample_table_positions`) is a chain of node hits, one key
comparison per level and a bounded sample of the other side. A node
holds only what the sorted keys and the live/stale split determine —
bucket size, stale quota and every draw stay in the walk — so one tree
serves any bucket size, and creating nodes on first reach is
order-independent and RNG-free. :func:`fill_positions` is the one
fill every world runs: it sorts the servers, splits them live/stale,
walks one tree per node and stores every pick as a position in the
sorted server order, all tables in one flat array. An object world
(:func:`populate_routing_tables`) and a
:class:`~repro.simnet.compact.CompactWorld` both read their tables as
run views over that array (:meth:`RoutingTable.view`), and both take a
table's bucket runs from :func:`table_runs`: the same walk, reading
window sizes instead of drawing picks, so a table's ~200 stored
entries are never scanned to find its buckets.
"""

from __future__ import annotations

import math
import random
from array import array
from bisect import bisect_left
from collections.abc import Generator, Sequence
from itertools import groupby

from repro.dht.dht_node import DhtNode
from repro.dht.keyspace import KEY_BITS, key_for_peer
from repro.dht.routing_table import K_BUCKET_SIZE
from repro.multiformats.peerid import PeerId
from repro.utils.columns import index_typecode


def join_network(node: DhtNode, bootstrap_peers: list[PeerId]) -> Generator:
    """Organic join: seed with bootstrap peers, then self-lookup.

    Returns the join's :class:`~repro.dht.lookup.LookupStats`.
    """
    node.bootstrap(bootstrap_peers)
    _, stats = yield from node.walk_closest(key_for_peer(node.host.peer_id))
    return stats


#: Default cap on the share of unreachable peers per filled bucket.
STALE_FRACTION = 0.05


def _sample_window(getrandbits, base: list[int], lo: int, hi: int, k: int) -> list[int]:
    """``random.Random.sample(base[lo:hi], k)``, draw for draw, given
    the generator's bound ``getrandbits``.

    Both of ``sample``'s branches, with ``_randbelow`` spelled out
    (``getrandbits(n.bit_length())`` redrawn until ``< n``): a copied
    pool with swap-removal for short windows, else a set of picked
    offsets indexed straight into ``base`` — so bucket 0 (half the
    keyspace) costs no O(interval) copy and no Python frame per draw.
    ``tests/simnet/test_sample_window.py`` holds it equal to the
    running interpreter's stdlib, generator state included.
    """
    n = hi - lo
    setsize = 21  # size of a small set minus size of an empty list
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))  # table size for big sets
    result = []
    if n <= setsize:
        pool = base[lo:hi]
        for remaining in range(n, n - k, -1):
            nbits = remaining.bit_length()
            while (j := getrandbits(nbits)) >= remaining:
                pass
            result.append(pool[j])
            pool[j] = pool[remaining - 1]  # move non-selected item into vacancy
    else:
        selected: set[int] = set()
        nbits = n.bit_length()
        for _ in range(k):
            while (j := getrandbits(nbits)) >= n or j in selected:
                pass
            selected.add(j)
            result.append(base[lo + j])
    return result


class KeyspaceTree:
    """The binary trie over one sorted server list, grown on demand.

    ``keys``: the servers' DHT keys, ascending; ``live`` / ``stale``:
    the ascending positions of the reachable / unreachable ones. A
    *window* ``(start, end, live_lo, live_hi, stale_lo, stale_hi)`` is
    the servers under one key prefix and the slices of ``live`` and
    ``stale`` among them (so bucket 0, half the keyspace, is never
    scanned). ``nodes[depth, start]`` splits a ``depth``-bit prefix's
    window at the next bit: ``(boundary, low, high)`` — the upper
    half's smallest possible key and both half windows, empty or not.
    """

    __slots__ = ("keys", "live", "stale", "root", "nodes")

    def __init__(self, keys: list[int], live: list[int], stale: list[int]) -> None:
        self.keys, self.live, self.stale = keys, live, stale
        self.root = (0, len(keys), 0, len(live), 0, len(stale))
        self.nodes: dict[tuple[int, int], tuple] = {}

    def split(self, depth: int, window: tuple) -> tuple:
        """Create the node under the (non-empty) ``window`` at ``depth``."""
        start, end, live_lo, live_hi, stale_lo, stale_hi = window
        shift = KEY_BITS - depth - 1
        boundary = (self.keys[start] >> shift | 1) << shift
        mid = bisect_left(self.keys, boundary, start, end)
        live_mid = bisect_left(self.live, mid, live_lo, live_hi)
        stale_mid = bisect_left(self.stale, mid, stale_lo, stale_hi)
        low = (start, mid, live_lo, live_mid, stale_lo, stale_mid)
        high = (mid, end, live_mid, live_hi, stale_mid, stale_hi)
        node = self.nodes[depth, start] = (boundary, low, high)
        return node


def sample_table_positions(
    sink, own_int: int, tree: KeyspaceTree, cap: int, max_stale: int, rng: random.Random
) -> None:
    """One node's k-bucket fill, as positions into the sorted servers.

    Walks ``tree`` from the root towards ``own_int`` (which need not be
    a server's key): at each level the half on our side is the next
    window, the other half is bucket ``depth``. Chosen positions go to
    ``sink.extend`` (a list or an ``array``) bucket by bucket: at most
    ``cap`` per bucket, of which at most ``max_stale`` unreachable
    unless the live ones run out. The node's own key is never chosen.
    """
    extend = sink.extend
    bits = rng.getrandbits
    keys, live, stale, nodes = tree.keys, tree.live, tree.stale, tree.nodes
    own = tree.root
    for depth in range(KEY_BITS):
        if own[1] - own[0] <= cap:
            # Every remaining peer shares >= depth leading bits with
            # us, so each deeper bucket's slice fits under `cap` and is
            # taken wholesale — the same entries the per-bucket walk
            # would add, without iterating the ~240 empty tail buckets.
            extend([pos for pos in range(own[0], own[1]) if keys[pos] != own_int])
            return
        boundary, low, high = nodes.get((depth, own[0])) or tree.split(depth, own)
        # We share the window's prefix, so one comparison reads our bit.
        if own_int >= boundary:
            own, (start, end, live_lo, live_hi, stale_lo, stale_hi) = high, low
        else:
            own, (start, end, live_lo, live_hi, stale_lo, stale_hi) = low, high
        # A sibling half never holds our own key (it differs at bit
        # `depth`), so its picks need no own-key filter.
        if end - start <= cap:
            extend(range(start, end))
            continue
        n_stale = min(stale_hi - stale_lo, max_stale)
        chosen = _sample_window(
            bits, live, live_lo, live_hi, min(live_hi - live_lo, cap - n_stale)
        )
        if n_stale == 1:
            # The default quota (int(20 * 0.05)): both branches of
            # `sample(window, 1)` are one `_randbelow(len(window))`.
            n = stale_hi - stale_lo
            nbits = n.bit_length()
            while (j := bits(nbits)) >= n:
                pass
            chosen.append(stale[stale_lo + j])
        else:
            chosen += _sample_window(bits, stale, stale_lo, stale_hi, n_stale)
        if len(chosen) < cap:
            taken = set(chosen)
            leftovers = [p for p in stale[stale_lo:stale_hi] if p not in taken]
            chosen += rng.sample(leftovers, min(len(leftovers), cap - len(chosen)))
        extend(chosen)


def run_tree(keys: list[int]) -> KeyspaceTree:
    """A tree over the sorted server keys ``keys`` for
    :func:`table_runs` alone: runs read window sizes, not the
    live/stale split, so it holds none."""
    return KeyspaceTree(keys, [], [])


def table_runs(own_int: int, tree: KeyspaceTree) -> bytes:
    """The bucket runs of the fill :func:`sample_table_positions` makes
    for ``own_int`` at ``K_BUCKET_SIZE``, without reading the fill.

    The same walk, taking sizes instead of picks: the sibling window at
    ``depth`` is bucket ``depth``, and it yields every peer it holds up
    to k, then exactly k (a sampled window tops its live picks up from
    the stale ones). Only the wholesale tail's entries, at most k, are
    placed by their XOR distance; they are in key order, so each bucket
    among them is one run. The result is ``bytes``, the populated bucket
    indexes in stored order followed by each run's length (at most
    ``K_BUCKET_SIZE`` <= 255): with a table's offset into the flat fill
    it locates every run (:meth:`~repro.dht.routing_table.RoutingTable.view`).
    """
    keys, nodes = tree.keys, tree.nodes
    populated: list[int] = []
    sizes: list[int] = []
    own = tree.root
    for depth in range(KEY_BITS):
        if own[1] - own[0] <= K_BUCKET_SIZE:
            # An entry whose XOR distance has `length` bits is in bucket
            # KEY_BITS - length; length 0 is our own key, never stored.
            lengths = [
                length for pos in range(own[0], own[1])
                if (length := (own_int ^ keys[pos]).bit_length())
            ]
            for length, run in groupby(lengths):
                populated.append(KEY_BITS - length)
                sizes.append(len(list(run)))
            break
        boundary, low, high = nodes.get((depth, own[0])) or tree.split(depth, own)
        own, sibling = (high, low) if own_int >= boundary else (low, high)
        if sibling[1] > sibling[0]:
            populated.append(depth)
            sizes.append(min(sibling[1] - sibling[0], K_BUCKET_SIZE))
    return bytes(populated + sizes)


def fill_positions(
    key_ints: Sequence[int],
    servers: Sequence[int],
    live: Sequence,
    max_stale: int,
    rng: random.Random,
) -> tuple[list[int], KeyspaceTree, array, array]:
    """Every node's k-bucket fill, as positions into the sorted servers.

    Node ``i`` has DHT key ``key_ints[i]``; ``servers`` are the nodes
    that tables may hold, and ``live[i]`` says whether node ``i`` is
    reachable. Returns ``(order, tree, entries, off)``: the servers
    sorted by key, the tree the walks shared (``tree.keys`` are the
    sorted servers' keys; :func:`table_runs` walks it again), and one
    flat array of every node's :func:`sample_table_positions` picks
    (``K_BUCKET_SIZE`` per bucket, at most ``max_stale`` unreachable),
    node ``i``'s at ``entries[off[i]:off[i + 1]]``, each a position in
    ``order``.
    """
    order = sorted(servers, key=key_ints.__getitem__)
    keys = [key_ints[index] for index in order]
    live_positions: list[int] = []
    stale_positions: list[int] = []
    for position, index in enumerate(order):
        (live_positions if live[index] else stale_positions).append(position)
    entries = array(index_typecode(len(order)))
    off = array("I", [0])
    tree = KeyspaceTree(keys, live_positions, stale_positions)
    for own_int in key_ints:
        sample_table_positions(entries, own_int, tree, K_BUCKET_SIZE, max_stale, rng)
        off.append(len(entries))
    return order, tree, entries, off


def populate_routing_tables(nodes: list[DhtNode], rng: random.Random) -> None:
    """Fill k-buckets of every node from the server subset of ``nodes``.

    Only DHT servers are inserted into tables (the client/server rule
    of Section 2.3); client nodes still get tables so they can launch
    lookups. Each bucket receives at most ``K_BUCKET_SIZE`` peers.

    :data:`STALE_FRACTION` bounds the share of *unreachable* peers per
    bucket. Live routing tables are continuously maintained, so they
    are much healthier than the crawl-wide 45.5 % undialable rate —
    but never perfectly clean, and those stale entries are what the
    walk's dial timeouts hit.

    Each table becomes a run view over the one :func:`fill_positions`
    array (:meth:`RoutingTable.view`), its runs walked on the fill's
    own tree (:func:`table_runs`), so every table must be empty on
    entry: ``view`` raises :class:`~repro.errors.SimulationError` on a
    table that holds a peer.
    """
    key_ints = [node.host.peer_id.dht_key_int() for node in nodes]
    order, tree, entries, off = fill_positions(
        key_ints,
        [index for index, node in enumerate(nodes) if node.server],
        [node.host.reachable for node in nodes],
        int(K_BUCKET_SIZE * STALE_FRACTION),
        rng,
    )
    ids = [nodes[index].host.peer_id for index in order]

    def peers_at(positions) -> list[PeerId]:
        return list(map(ids.__getitem__, positions))

    for index, node in enumerate(nodes):
        node.routing_table.view(
            entries, tree.keys, peers_at, off[index], table_runs(key_ints[index], tree)
        )
