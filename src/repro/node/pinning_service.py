"""Pinning services (Section 3.1).

"Peers behind NATs cannot host content themselves. Thus, third party
hosts, commonly called *pinning services*, are used to publish content
on behalf of NAT'ed end-users (usually for a fee)."

A :class:`PinningService` wraps a reliable, publicly reachable
:class:`~repro.node.host.IpfsNode`: clients upload content over the
simulated network, the service pins it, publishes the provider records,
keeps them refreshed through its republisher, and bills per stored
byte. This is the Pinata/Infura model the paper references.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass

from repro.errors import PublishError
from repro.merkledag.builder import DagBuilder
from repro.multiformats.cid import Cid
from repro.multiformats.peerid import PeerId
from repro.node.host import IpfsNode, PublishReceipt

#: Upload protocol name on the service host.
UPLOAD_RPC = "pinning/UPLOAD"

#: Default price per stored byte per (simulated) month.
DEFAULT_PRICE_PER_BYTE_MONTH = 1e-9

_SECONDS_PER_MONTH = 30 * 24 * 3600.0


@dataclass
class PinRecord:
    """One pinned object and its billing state."""

    cid: Cid
    owner: PeerId
    size: int
    pinned_at: float
    unpinned_at: float | None = None

    def byte_months(self, now: float) -> float:
        """Stored-byte months accrued by this pin up to ``now``."""
        end = self.unpinned_at if self.unpinned_at is not None else now
        return self.size * max(0.0, end - self.pinned_at) / _SECONDS_PER_MONTH


@dataclass
class UploadResult:
    """Outcome of pinning one object through the service."""

    cid: Cid
    size: int
    upload_duration: float
    publish_receipt: PublishReceipt


class PinningService:
    """A for-fee publisher running on a public node."""

    def __init__(
        self,
        node: IpfsNode,
        price_per_byte_month: float = DEFAULT_PRICE_PER_BYTE_MONTH,
    ) -> None:
        self.node = node
        self.price = price_per_byte_month
        self.pins: dict[Cid, PinRecord] = {}
        self._accounts: dict[PeerId, list[PinRecord]] = {}
        node.host.register_handler(UPLOAD_RPC, self._on_upload)
        node.start_republisher()

    # -- service side ------------------------------------------------------

    def _on_upload(self, sender: PeerId, data: bytes):
        """Receive uploaded bytes; import + pin them locally."""
        builder = DagBuilder(self.node.blockstore)
        result = builder.add_bytes(data)
        self.node.blockstore.pin(result.root)
        record = PinRecord(result.root, sender, len(data), self.node.sim.now)
        self.pins[result.root] = record
        self._accounts.setdefault(sender, []).append(record)
        return result.root, 64

    # -- client side ---------------------------------------------------------

    def pin_bytes(self, client: IpfsNode, data: bytes) -> Generator:
        """Upload ``data`` from ``client`` and publish it network-wide.

        The upload pays real transfer time over the client's uplink;
        the service then announces the provider records (pointing at
        *itself* — the whole point for a NAT'ed client) and returns an
        :class:`UploadResult`.
        """
        start = self.node.sim.now
        root = yield self.node.network.rpc(
            client.host,
            self.node.peer_id,
            UPLOAD_RPC,
            data,
            request_size=len(data),
        )
        upload_duration = self.node.sim.now - start
        receipt = yield from self.node.publish(root)
        if receipt.peers_stored == 0:
            raise PublishError(f"pinning service failed to announce {root}")
        return UploadResult(root, len(data), upload_duration, receipt)

    def unpin(self, client: IpfsNode, cid: Cid) -> None:
        """Stop hosting ``cid`` (billing stops; GC may reclaim it)."""
        record = self.pins.get(cid)
        if record is None or record.owner != client.peer_id:
            raise PublishError(f"{client.peer_id} has no pin for {cid}")
        record.unpinned_at = self.node.sim.now
        self.node.blockstore.unpin(cid)
        self.node.published.discard(cid)
        del self.pins[cid]

    # -- billing ----------------------------------------------------------

    def invoice(self, client_id: PeerId) -> float:
        """Total owed by a client for its byte-months so far."""
        records = self._accounts.get(client_id, [])
        now = self.node.sim.now
        return sum(record.byte_months(now) for record in records) * self.price

    def stored_bytes(self) -> int:
        """Total bytes currently pinned for all clients."""
        return sum(record.size for record in self.pins.values())
