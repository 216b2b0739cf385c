"""A deterministic discrete-event network simulator.

This is the substrate that replaces the live IPFS network (see
DESIGN.md). It has four layers:

- :mod:`repro.simnet.sim` — the event kernel: a virtual clock, timers,
  futures, and generator-based processes (protocol code is written as
  generators that ``yield`` delays and futures).
- :mod:`repro.simnet.latency` — region-pair RTTs modelled on published
  AWS inter-region latencies, plus per-peer last-mile quality classes.
- :mod:`repro.simnet.transport` — TCP/QUIC/WebSocket dial and handshake
  behaviour with the timeout constants that produce the 5 s and 45 s
  spikes of Figure 9c.
- :mod:`repro.simnet.network` — hosts, dialing, connections and RPC
  delivery; :mod:`repro.simnet.churn` — peer session (uptime) models;
  :mod:`repro.simnet.nat` — NAT reachability and the AutoNAT protocol.
"""

from repro.simnet.churn import ChurnModel
from repro.simnet.latency import LatencyModel, PeerClass, Region
from repro.simnet.nat import AutoNatService, NatBox, NatMode
from repro.simnet.network import Connection, SimHost, SimNetwork
from repro.simnet.relay import CircuitDialer, NatTraversal
from repro.simnet.sim import Future, Process, Simulator, all_of, any_of, sleep, with_timeout
from repro.simnet.transport import Transport, TransportProfile

__all__ = [
    "AutoNatService",
    "ChurnModel",
    "CircuitDialer",
    "Connection",
    "Future",
    "LatencyModel",
    "NatBox",
    "NatMode",
    "NatTraversal",
    "PeerClass",
    "Process",
    "Region",
    "SimHost",
    "SimNetwork",
    "Simulator",
    "Transport",
    "TransportProfile",
    "all_of",
    "any_of",
    "sleep",
    "with_timeout",
]
