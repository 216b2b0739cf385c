"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors
(``TypeError``, ``ValueError`` from unrelated code, etc.).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class DecodeError(ReproError):
    """Raised when malformed binary or textual data cannot be decoded."""


class CidError(ReproError):
    """Raised for malformed or unsupported Content Identifiers."""


class MultiaddrError(ReproError):
    """Raised for malformed Multiaddresses."""


class CryptoError(ReproError):
    """Raised on signature verification failures or malformed keys."""


class BlockNotFoundError(ReproError):
    """Raised when a blockstore does not hold the requested block."""

    def __init__(self, cid: object) -> None:
        super().__init__(f"block not found: {cid}")
        self.cid = cid


class DagError(ReproError):
    """Raised when a Merkle-DAG is malformed or fails verification."""


class RoutingError(ReproError):
    """Raised when DHT routing cannot make progress."""


class ProviderNotFoundError(RoutingError):
    """Raised when no provider record can be located for a CID."""


class PeerNotFoundError(RoutingError):
    """Raised when a PeerID cannot be resolved to a network address."""


class DialError(ReproError):
    """Raised when a connection to a remote peer cannot be established."""


class TransportTimeoutError(DialError):
    """Raised when a dial or handshake exceeds its transport timeout.

    Holds the dial's target, timeout and transport, and spells them
    only when the message is read: a crawl fails thousands of dials
    whose messages nobody reads, and naming a target base58-encodes
    its PeerId and caches the string on it.
    """

    def __init__(self, target: object, timeout_s: float, transport: object) -> None:
        super().__init__(target, timeout_s, transport)
        self.target = target
        self.timeout_s = timeout_s
        self.transport = transport

    def __str__(self) -> str:
        return (
            f"dial to {self.target} timed out after {self.timeout_s}s "
            f"({self.transport.value})"
        )


class RetrievalError(ReproError):
    """Raised when content retrieval fails end to end."""


class PublishError(ReproError):
    """Raised when content publication fails end to end."""


class IpnsError(ReproError):
    """Raised for invalid or unverifiable IPNS records."""


class FaultInjectionError(ReproError):
    """Raised when an injected fault aborts a dial or RPC mid-flight."""


class PartitionError(FaultInjectionError):
    """Raised when a regional partition severs the path between peers."""


class SimulationError(ReproError):
    """Raised on inconsistent simulator state (a bug in the caller)."""


class OverloadError(ReproError):
    """Raised when gateway admission control sheds a request (a 503)."""


class GatewayDownError(ReproError):
    """Raised when a fleet routes a request to an offline gateway."""
