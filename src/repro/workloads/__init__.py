"""Synthetic workload generators.

The paper's evaluation rests on three data sources we cannot access
offline (the live DHT population, the ipfs.io gateway logs, the AWS
testbed). This package generates statistically-calibrated synthetic
equivalents:

- :mod:`repro.workloads.population` — a peer population matching the
  Section 5 deployment measurements (geography, ASes, clouds,
  dialability, multihoming, PeerIDs-per-IP, churn).
- :mod:`repro.workloads.gateway_trace` — a day of gateway GET requests
  matching the Section 4.2/6.3 usage characteristics (diurnal demand,
  Zipf popularity, object sizes, referrers).
- :mod:`repro.workloads.bursts` — flash-crowd storms (NFT drops,
  region-skewed diurnal surges) for the overload experiments.
- :mod:`repro.workloads.objects` — content corpora for experiments.
"""

from repro.workloads.bursts import (
    BurstRequest,
    DiurnalStormConfig,
    NftDropConfig,
    generate_diurnal_storm,
    generate_nft_drop,
)
from repro.workloads.gateway_trace import (
    ColumnarTrace,
    GatewayTraceConfig,
    generate_columnar_trace,
    trace_stream_sha256,
)
from repro.workloads.objects import generate_corpus
from repro.workloads.population import PopulationConfig, generate_population

__all__ = [
    "BurstRequest",
    "ColumnarTrace",
    "generate_columnar_trace",
    "trace_stream_sha256",
    "DiurnalStormConfig",
    "GatewayTraceConfig",
    "NftDropConfig",
    "generate_diurnal_storm",
    "generate_nft_drop",
    "PopulationConfig",
    "generate_corpus",
    "generate_population",
]
