"""Defense arms: the knobs the network can turn against an attacker.

The matrix runs every attack twice — once against the paper's stock
go-ipfs v0.10 stack ("off") and once with every defense enabled
("on"):

- **extra replication** (``store_k = 40``) — hydra-booster-style
  over-replication of record stores. A Sybil ring owning the 20
  closest peers captures at most half of a 40-peer store set, so
  records survive on honest peers just outside the ring;
- **the ``resilient`` protection rung** — jittered, per-peer-
  decorrelated backoff on walks, stores, dials and Bitswap wants, plus
  circuit breakers (repeatedly-failing eclipse peers get skipped),
  hedged walks, adaptive deadlines and the Bitswap-broadcast fallback;
- **aggressive re-publishing** — provider records are re-announced
  every ``DEFENSE_REPUBLISH_S`` instead of every 12 h, repairing
  whatever records an incident wiped out.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dht.lookup import LookupConfig
from repro.errors import ReproError
from repro.node.config import NodeConfig

#: Hydra-style replication factor for record stores (2x the paper's k).
DEFENSE_STORE_K = 40

#: Defense-arm republish cadence (simulated seconds). Short enough to
#: repair records within an attack window, long enough that a cell's
#: retrieval phase sees at most a handful of republishes.
DEFENSE_REPUBLISH_S = 150.0


@dataclass(frozen=True)
class DefenseSpec:
    """One defense arm of the matrix."""

    name: str
    #: enable extra replication / resilience / retries / republishing.
    hardened: bool

    def node_config(self) -> NodeConfig | None:
        """The :class:`NodeConfig` every node in this arm runs.

        ``None`` selects the stock default config — the baseline arm is
        *exactly* the paper's stack, not a reconstruction of it.
        """
        if not self.hardened:
            return None
        return NodeConfig(
            protection="resilient",
            lookup=LookupConfig(store_k=DEFENSE_STORE_K),
            republish_interval_s=DEFENSE_REPUBLISH_S,
            # Dial providers straight from the addresses GET_PROVIDERS
            # responses carry (post-v0.10 go-ipfs). Under an incident
            # this removes the peer-record walk — a whole second
            # keyspace neighbourhood that the attack can take out.
            provider_addr_hints=True,
        )

    @property
    def republishes(self) -> bool:
        return self.hardened


def defended_node_config() -> NodeConfig:
    """The hardened arm's config (exported for tests and docs)."""
    config = DEFENSES["on"].node_config()
    assert config is not None
    return config


DEFENSES = {
    "off": DefenseSpec(name="off", hardened=False),
    "on": DefenseSpec(name="on", hardened=True),
}


def defense(name: str) -> DefenseSpec:
    try:
        return DEFENSES[name]
    except KeyError:
        raise ReproError(f"unknown defense arm: {name!r}") from None
