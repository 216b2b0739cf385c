"""Node configuration: what an experiment arm varies about a node."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dht.lookup import LookupConfig
from repro.dht.records import REPUBLISH_INTERVAL_S
from repro.resilience import ResilienceConfig
from repro.utils.retry import RetryPolicy


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
    #: Dial schedule for peer routing (step 3 of the retrieval path).
    #: The default — two attempts, no backoff — is exactly go-ipfs's
    #: immediate second dial over the peer's other addresses, which
    #: the seed hard-coded as a lone ``retry once``.
    dial_retry: RetryPolicy = RetryPolicy(
        max_attempts=2, base_delay_s=0.0, max_delay_s=0.0
    )
    #: Per-provider Bitswap re-want policy: after
    #: :data:`~repro.bitswap.session.SILENCE_TIMEOUT_S` of silence the
    #: session re-sends the want instead of writing the provider off.
    #: Off by default (the paper's go-bitswap session behaviour at
    #: measurement time).
    bitswap_retry: RetryPolicy = RetryPolicy()
    #: Graceful-degradation features (circuit breakers, adaptive
    #: deadlines, hedging, fallbacks); every flag defaults off, so the
    #: stock node is byte-identical to the pre-resilience stack.
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)
