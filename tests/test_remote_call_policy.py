"""What a protection rung does to one remote call, at every call site.

A node has six kinds of remote call that its rung may re-attempt: a
DHT walk hop, a record store, the retrieval dial to a provider, the
hedged race of two provider dials, the gateway bridge's dial to a
hinted provider and a Bitswap want. Each site forces exactly one failed
attempt toward one peer, then lets the re-attempt through. On the
``retry`` rung the network must count exactly one re-attempt; on the
``resilient`` rung the peer's circuit breaker must also be fed the
call's outcome once (a success: the failed attempt was retried, not
given up on).

``Resilience.call`` is the one place a schedule is run, so no module
but ``resilience/core.py`` may call ``repro.utils.retry.retry``.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

from repro.bitswap.messages import WANT_BLOCK
from repro.bitswap.session import BitswapSession
from repro.dht import rpc
from repro.dht.bootstrap import populate_routing_tables
from repro.dht.keyspace import key_for_cid
from repro.errors import DialError
from repro.gateway.bridge import GatewayBridge
from repro.multiformats.cid import make_cid
from repro.node.config import NodeConfig
from repro.node.host import IpfsNode
from repro.simnet.network import SimNetwork
from repro.simnet.sim import Future, Simulator
from repro.utils.rng import derive_rng

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
PAYLOAD = b"one remote call, one policy" * 64


class Cluster:
    """DHT servers around a client requester and two client providers
    that only the requester's call under test ever dials."""

    def __init__(self, protection: str, monkeypatch, seed: int = 47) -> None:
        self.sim = Simulator()
        self.net = SimNetwork(self.sim, derive_rng(seed, "net"))
        # Every reachable peer accepts every dial, so the one injected
        # failure is the only failed attempt the run sees.
        real_profile = self.net.latency.class_profile
        monkeypatch.setattr(
            self.net.latency, "class_profile",
            lambda peer_class: dataclasses.replace(
                real_profile(peer_class), accept_probability=1.0
            ),
        )
        config = NodeConfig(protection=protection)
        # A client requester: the providers' own walks never reach it.
        self.requester = IpfsNode(
            self.sim, self.net, derive_rng(seed, "requester"), config=config,
            dht_server=False,
        )
        servers = [
            IpfsNode(self.sim, self.net, derive_rng(seed, "server", str(i)))
            for i in range(24)
        ]
        self.providers = [
            IpfsNode(self.sim, self.net, derive_rng(seed, "provider", str(i)),
                     dht_server=False)
            for i in range(2)
        ]
        populate_routing_tables(
            [node.dht for node in [self.requester, *servers, *self.providers]],
            derive_rng(seed, "tables"),
        )
        self.root = None
        #: (peer, outcome) for every breaker feed of the requester's rung
        self.feeds: list[tuple] = []
        self.victim = None
        self._mark = 0

    def publish(self, providers: int) -> None:
        def proc():
            for node in self.providers[:providers]:
                yield from node.publish_peer_record()
                self.root, _ = yield from node.add_and_publish(PAYLOAD)

        self.sim.run_process(proc())

    def fail_once(self, monkeypatch, name: str, matches) -> None:
        """Fail the requester's first ``net.<name>`` call that
        ``matches`` ``(target, method)``, then pass every call through."""
        real = getattr(self.net, name)
        source = self.requester.host

        def patched(src, target_id, *args, **kwargs):
            method = args[0] if args else None
            if self.victim is None and src is source and matches(target_id, method):
                self.victim = target_id
                self._mark = len(self.feeds)
                return Future.failed_with(DialError("injected failure"))
            return real(src, target_id, *args, **kwargs)

        monkeypatch.setattr(self.net, name, patched)

    def spy_breaker(self, monkeypatch) -> None:
        res = self.requester.resilience
        for outcome in ("success", "failure"):
            real = getattr(res, f"record_{outcome}")

            def spy(peer_id, real=real, outcome=outcome):
                self.feeds.append((peer_id, outcome))
                real(peer_id)

            monkeypatch.setattr(res, f"record_{outcome}", spy)

    def victim_feeds(self) -> list[str]:
        """The victim's breaker feeds since its failed attempt."""
        return [o for peer, o in self.feeds[self._mark:] if peer == self.victim]


def provider_ids(cluster: Cluster) -> set:
    return {node.peer_id for node in cluster.providers}


def walk_hop(cluster, monkeypatch):
    cluster.fail_once(monkeypatch, "rpc", lambda _t, m: m == rpc.FIND_NODE)
    node = cluster.requester
    return node.dht.walk_closest(key_for_cid(make_cid(b"walk target")))


def store(cluster, monkeypatch):
    cluster.fail_once(monkeypatch, "rpc", lambda _t, m: m == rpc.ADD_PROVIDER)
    node = cluster.requester
    return node.add_and_publish(b"stored by the requester")


def retrieval_dial(cluster, monkeypatch):
    cluster.publish(providers=1)
    targets = provider_ids(cluster)
    cluster.fail_once(monkeypatch, "dial", lambda t, _m: t in targets)
    return cluster.requester.retrieve(cluster.root)


def hedged_dial(cluster, monkeypatch):
    cluster.publish(providers=2)
    targets = provider_ids(cluster)
    cluster.fail_once(monkeypatch, "dial", lambda t, _m: t in targets)
    node = cluster.requester
    real = node._dial_hedged
    raced = []

    def counted(primary, backup):
        raced.append((primary, backup))
        return (yield from real(primary, backup))

    monkeypatch.setattr(node, "_dial_hedged", counted)

    def proc():
        receipt = yield from node.retrieve(cluster.root)
        assert raced, "the retrieval never reached the hedged dial"
        return receipt

    return proc()


def bridge_hint_dial(cluster, monkeypatch):
    cluster.publish(providers=1)
    targets = provider_ids(cluster)
    cluster.fail_once(monkeypatch, "dial", lambda t, _m: t in targets)
    bridge = GatewayBridge(cluster.requester, cache_capacity_bytes=1_000_000)
    return bridge._fetch_from_hint(cluster.root, cluster.providers[0].peer_id)


def bitswap_want(cluster, monkeypatch):
    cluster.publish(providers=1)
    cluster.fail_once(monkeypatch, "rpc", lambda _t, m: m == WANT_BLOCK)
    node = cluster.requester
    session = BitswapSession(
        node.bitswap, [cluster.providers[0].peer_id], node.resilience
    )
    return session.fetch_dag(cluster.root)


#: site -> (its call, the victim's breaker feeds on the top rung): a
#: dial's success, then the block's over the new connection.
SITES = {
    "walk_hop": (walk_hop, ["success"]),
    "store": (store, ["success"]),
    "retrieval_dial": (retrieval_dial, ["success", "success"]),
    "hedged_dial": (hedged_dial, ["success", "success"]),
    "bridge_hint_dial": (bridge_hint_dial, ["success", "success"]),
    "bitswap_want": (bitswap_want, ["success"]),
}
#: the hedged dial races providers on the top rung only.
CASES = [
    (site, protection)
    for site in SITES
    for protection in ("retry", "resilient")
    if site != "hedged_dial" or protection == "resilient"
]


@pytest.mark.parametrize(("site", "protection"), CASES)
def test_one_failure_is_one_retry_and_one_breaker_feed(site, protection, monkeypatch):
    cluster = Cluster(protection, monkeypatch)
    cluster.spy_breaker(monkeypatch)
    call, feeds = SITES[site]
    process = call(cluster, monkeypatch)
    before = cluster.net.stats.retries_attempted
    cluster.sim.run_process(process)
    assert cluster.victim is not None, "the site never made the call"
    assert cluster.net.stats.retries_attempted - before == 1
    if protection == "resilient":
        assert cluster.victim_feeds() == feeds


def test_only_the_facade_runs_retry_schedules():
    callers = []
    for path in sorted(SRC.rglob("*.py")):
        name = str(path.relative_to(SRC))
        if name in ("resilience/core.py", "utils/retry.py"):
            continue
        tree = ast.parse(path.read_text())
        imports_retry = any(
            isinstance(node, ast.ImportFrom)
            and node.module == "repro.utils.retry"
            and any(alias.name == "retry" for alias in node.names)
            for node in ast.walk(tree)
        )
        calls_retry = any(
            isinstance(node, ast.Call)
            and (
                (isinstance(node.func, ast.Name) and node.func.id == "retry")
                or (isinstance(node.func, ast.Attribute) and node.func.attr == "retry")
            )
            for node in ast.walk(tree)
        )
        if imports_retry or calls_retry:
            callers.append(name)
    assert not callers, f"modules running a retry schedule: {callers}"
