"""Per-peer exchange ledgers.

Bitswap keeps an account of bytes exchanged with each partner (the
basis of BitTorrent-style reciprocity experiments; IPFS itself runs a
best-effort policy, see Section 7 "Incentives", but the ledger is part
of the protocol state and useful for measurement).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.multiformats.peerid import PeerId


@dataclass
class Ledger:
    """Running totals with one exchange partner."""

    peer_id: PeerId
    bytes_sent: int = 0
    bytes_received: int = 0
    blocks_sent: int = 0
    blocks_received: int = 0

    @property
    def debt_ratio(self) -> float:
        """sent / (received + 1) — the classic BitTorrent-style metric."""
        return self.bytes_sent / (self.bytes_received + 1)


@dataclass
class LedgerBook:
    """All ledgers of one node."""

    _ledgers: dict[PeerId, Ledger] = field(default_factory=dict)

    def ledger_for(self, peer_id: PeerId) -> Ledger:
        if peer_id not in self._ledgers:
            self._ledgers[peer_id] = Ledger(peer_id)
        return self._ledgers[peer_id]

    def record_sent(self, peer_id: PeerId, num_bytes: int) -> None:
        ledger = self.ledger_for(peer_id)
        ledger.bytes_sent += num_bytes
        ledger.blocks_sent += 1

    def record_received(self, peer_id: PeerId, num_bytes: int) -> None:
        ledger = self.ledger_for(peer_id)
        ledger.bytes_received += num_bytes
        ledger.blocks_received += 1

    def partners(self) -> list[PeerId]:
        return list(self._ledgers)

    def total_sent(self) -> int:
        return sum(ledger.bytes_sent for ledger in self._ledgers.values())
