"""Publishing and resolving IPNS names over the DHT.

The publisher stores the signed record under the name's DHT key on the
k closest servers (same machinery as provider records); the resolver
walks the DHT for the record and validates it end to end. DHT servers
install :func:`install_ipns_validator` so forged or stale records are
rejected *at the storing peer*, not just at the resolver.
"""

from __future__ import annotations

from collections.abc import Generator

from repro.crypto.keys import KeyPair
from repro.dht.dht_node import DhtNode
from repro.errors import IpnsError
from repro.ipns.record import DEFAULT_VALIDITY_S, IpnsRecord, ipns_key_for, make_record
from repro.multiformats.cid import Cid
from repro.multiformats.peerid import PeerId
from repro.simnet.sim import with_timeout


def install_ipns_validator(node: DhtNode) -> None:
    """Make a DHT server validate IPNS records before storing them.

    Accepts a value only if it decodes, verifies against its own
    embedded key, and has a sequence number at least as high as the
    stored record's.
    """

    def validator(key: bytes, value: bytes, existing: bytes | None) -> bool:
        try:
            record = IpnsRecord.decode(value)
        except IpnsError:
            return False
        if key != ipns_key_for(record.name):
            return False
        if not record.verify(record.name, node.sim.now):
            return False
        if existing is not None:
            try:
                current = IpnsRecord.decode(existing)
            except IpnsError:
                return True  # replace garbage
            if current.sequence > record.sequence:
                return False
        return True

    node.value_validator = validator


class IpnsPublisher:
    """Publishes a key pair's name, bumping the sequence each update."""

    def __init__(self, dht: DhtNode, keypair: KeyPair) -> None:
        if keypair.peer_id != dht.host.peer_id:
            raise IpnsError("key pair does not match the node's PeerID")
        self.dht = dht
        self.keypair = keypair
        self.sequence = 0

    @property
    def name(self) -> PeerId:
        return self.keypair.peer_id

    def publish(self, value: Cid, validity_s: float = DEFAULT_VALIDITY_S) -> Generator:
        """Sign and store a record pointing the name at ``value``.

        Returns ``(record, peers_stored)``.
        """
        with self.dht.network.tracer.span(
            "ipns.publish", name=str(self.name)
        ) as span:
            record = make_record(
                self.keypair, value, self.sequence, self.dht.sim.now, validity_s
            )
            self.sequence += 1
            result = yield from self.dht.put_value(
                ipns_key_for(self.name), record.encode()
            )
            span.set_attrs(sequence=record.sequence,
                           peers_stored=result["peers_stored"])
            return record, result["peers_stored"]


class IpnsResolver:
    """Resolves ``/ipns/<PeerID>`` names to CIDs."""

    #: fixed ceiling on one resolution walk; on the ``resilient`` rung
    #: of the DHT node the budget tightens to
    #: :data:`~repro.resilience.core.WALK_HOP_BUDGET` per-hop deadlines.
    RESOLVE_BUDGET_S = 60.0

    def __init__(self, dht: DhtNode) -> None:
        self.dht = dht

    def _resolve_once(self, name: PeerId) -> Generator:
        raw, _stats = yield from self.dht.get_value(ipns_key_for(name))
        if raw is None:
            raise IpnsError(f"no IPNS record found for {name}")
        record = IpnsRecord.decode(raw)
        if not record.verify(name, self.dht.sim.now):
            raise IpnsError(f"IPNS record for {name} failed verification")
        return record.value

    def _bounded_resolve_once(self, name: PeerId) -> Generator:
        """One resolution walk under the adaptive time budget.

        Below the ``resilient`` rung this is :meth:`_resolve_once`
        verbatim — no extra process, no timer.
        """
        res = self.dht.resilience
        if not res.enabled:
            value = yield from self._resolve_once(name)
            return value
        budget = res.walk_budget_s(self.RESOLVE_BUDGET_S)
        process = self.dht.sim.spawn(self._resolve_once(name))
        value = yield with_timeout(self.dht.sim, process.future, budget)
        return value

    def resolve(self, name: PeerId) -> Generator:
        """Walk the DHT for the name's record; returns the CID.

        Raises :class:`IpnsError` when no valid record can be found
        (unknown name, expired record, or forged bytes).
        """
        with self.dht.network.tracer.span("ipns.resolve", name=str(name)) as span:
            value = yield from self._bounded_resolve_once(name)
            span.set_attrs(value=str(value))
            return value
