"""Node configuration: what an experiment arm varies about a node."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dht.lookup import LookupConfig
from repro.dht.records import REPUBLISH_INTERVAL_S
from repro.errors import ReproError
from repro.resilience import PROTECTIONS


@dataclass(frozen=True)
class NodeConfig:
    """Tunables of an :class:`~repro.node.host.IpfsNode`.

    Defaults reproduce go-ipfs v0.10 as described in the paper: k = 20
    replication, α = 3 lookups, 12 h republish. What no arm varies is
    a constant of the module that reads it: 256 kB chunks and the
    174-link fanout (:mod:`repro.merkledag`), the 1 s Bitswap window
    (:data:`~repro.bitswap.messages.BITSWAP_TIMEOUT_S`), 24 h expiry
    (:data:`~repro.dht.records.EXPIRY_INTERVAL_S`), the 900-entry
    address book (:data:`~repro.node.addressbook.ADDRESS_BOOK_CAPACITY`).
    How hard the node fights failures is one knob, ``protection``.
    """

    republish_interval_s: float = REPUBLISH_INTERVAL_S
    lookup: LookupConfig = field(default_factory=LookupConfig)
    #: Run DHT lookups in parallel with the Bitswap window instead of
    #: after it — the optimization Section 6.2 proposes as future work
    #: ("running DHT lookups in parallel to Bitswap could be superior").
    parallel_discovery: bool = False
    #: Use provider addresses attached to GET_PROVIDERS responses to
    #: skip the peer-discovery walk. Newer go-ipfs releases do this;
    #: the v0.10 build the paper measures performs the second walk
    #: (Figure 9e), so the default is off.
    provider_addr_hints: bool = False
    #: The node's rung of the protection ladder
    #: (:data:`~repro.resilience.core.PROTECTIONS`): ``"bare"`` is the
    #: go-ipfs v0.10 node the paper measures, ``"retry"`` adds jittered
    #: backoff to walks, stores, dials and Bitswap wants, and
    #: ``"resilient"`` adds breakers, hedging, adaptive deadlines and
    #: fallbacks. The rung's retry schedules and thresholds are
    #: constants of :mod:`repro.resilience.core`.
    protection: str = "bare"

    def __post_init__(self) -> None:
        if self.protection not in PROTECTIONS:
            raise ReproError(
                f"protection must be one of {', '.join(PROTECTIONS)}, "
                f"got {self.protection!r}"
            )
