"""Every public name of ``repro`` the end-to-end benchmark touches.

The benchmark measures the program from outside, so this file is the
whole contract between the two: what the pipelines *call*
(:data:`CALLS`), what they *read* from result and counter objects
(:data:`READS`), and what the traced run *wraps* (:data:`WRAPS`). A
simplification PR that wants to delete or rename something checks here
first; anything not listed is free to go.

Everything is resolved once, at start-up, by :func:`resolve`: a name
that no longer exists fails fast with ``benchmark seam `X` is gone``
instead of surfacing as an ``AttributeError`` twenty seconds into a
run. Knobs the roadmap may delete (``workers``) go through
:func:`optional`, which passes them only while the callee still
declares them.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
from types import SimpleNamespace
from typing import Any


class SeamError(RuntimeError):
    """A name the benchmark depends on no longer exists."""

    def __init__(self, name: str) -> None:
        super().__init__(f"benchmark seam `{name}` is gone")
        self.seam = name


#: Called by the pipelines in ``workloads.py``: attribute on the
#: resolved namespace -> ``module:qualname``.
CALLS: dict[str, str] = {
    # inputs
    "derive_rng": "repro.utils.rng:derive_rng",
    "PopulationConfig": "repro.workloads.population:PopulationConfig",
    "generate_population": "repro.workloads.population:generate_population",
    "generate_compact_population":
        "repro.workloads.compact:generate_compact_population",
    "GatewayTraceConfig": "repro.workloads.gateway_trace:GatewayTraceConfig",
    # worlds
    "AWS_REGIONS": "repro.experiments.scenario:AWS_REGIONS",
    "ScenarioConfig": "repro.experiments.scenario:ScenarioConfig",
    "build_scenario": "repro.experiments.scenario:build_scenario",
    "build_compact_world": "repro.simnet.compact:build_compact_world",
    # campaigns
    "PerfConfig": "repro.experiments.perf:PerfConfig",
    "run_perf_experiment": "repro.experiments.perf:run_perf_experiment",
    "ScaleCrawlConfig": "repro.experiments.scale:ScaleCrawlConfig",
    "run_crawl_timeseries": "repro.experiments.deployment:run_crawl_timeseries",
    "full_day_config": "repro.experiments.replay:full_day_config",
    "run_replay": "repro.gateway.replay:run_replay",
    # analysis / grading
    "grade_scale_results": "repro.experiments.scale:grade_scale_results",
    "grade_replay": "repro.experiments.replay:grade_replay",
}

#: Read after a run: ``module:Class`` -> methods, properties and
#: dataclass fields, all verified at start-up.
READS: dict[str, tuple[str, ...]] = {
    "repro.experiments.perf:PerfResults": (
        "failures", "all_publications", "all_retrievals", "latency_percentiles",
    ),
    "repro.node.host:PublishReceipt": (
        "walk_duration", "rpc_batch_duration", "total_duration",
        "peers_stored", "peers_targeted", "walk_rpcs",
    ),
    "repro.node.host:RetrievalReceipt": (
        "via_bitswap", "bitswap_window", "provider_walk_duration",
        "peer_walk_duration", "dial_duration", "fetch_duration",
        "total_duration", "bytes_fetched",
    ),
    "repro.experiments.scenario:Scenario": ("sim", "net"),
    "repro.simnet.sim:Simulator": ("events_processed", "run"),
    "repro.simnet.network:NetworkStats": (
        "dials_attempted", "dials_succeeded", "dials_failed", "rpcs_sent",
        "rpcs_completed", "rpcs_timed_out", "bytes_transferred",
    ),
    "repro.simnet.compact:CompactWorld": (
        "nbytes", "online_at", "table_peer_ids",
    ),
    "repro.multiformats.peerid:PeerId": ("to_bytes",),
    "repro.experiments.deployment:CrawlCampaignResults": (
        "crawls", "sessions", "timeseries",
    ),
    "repro.crawler.crawl:CrawlResult": ("peers_seen", "undialable", "rpcs_sent"),
    "repro.measurement.churn_analysis:SessionObservation": (
        "peer", "group", "start", "end",
    ),
    "repro.experiments.scale:ScaleCrawlConfig": (
        "duration_s", "crawl_interval_s", "campaign",
    ),
    "repro.experiments.nat_sweep:GradedClaim": ("grade",),
    "repro.gateway.replay:ReplayResult": (
        "timings", "n_requests", "tier_counts", "tier_bytes",
        "node_store_latencies", "non_cached_latencies", "nginx_share",
        "combined_hit_rate", "tier_percentile",
    ),
    "repro.experiments.replay:ReplayReport": ("rows",),
    "repro.experiments.replay:ReplayGradeRow": ("grade",),
}

#: Plain instance attributes (set in ``__init__``, invisible on the
#: class): the pipelines fetch them through :func:`read`, which turns a
#: missing one into the same error.
INSTANCE_READS: dict[str, tuple[str, ...]] = {
    "repro.simnet.sim:Simulator": ("now",),
    "repro.simnet.network:SimNetwork": ("stats", "host_resolver"),
    "repro.simnet.compact:CompactWorld": ("sim", "net", "materialized"),
}

#: Keys :func:`repro.gateway.replay.run_replay` must keep in
#: ``ReplayResult.timings`` (checked when the replay workload reads them).
REPLAY_TIMINGS = ("generate_s", "resolve_s", "windows_s", "merge_s")

#: Wrapped by the traced run: ``(layer, module:qualname, kind)``.
#: ``kind`` is ``call`` for a plain timing shim and ``op`` / ``fanout``
#: for entry points that start a new root operation (``fanout``: every
#: process spawned inside is an operation of its own). The remaining
#: kinds name the special shims of ``trace.py``.
WRAPS: tuple[tuple[str, str, str], ...] = (
    # kernel: callbacks and spawned processes inherit the layer that
    # asked for them; what is left of run() is dispatch cost
    ("simnet.sim", "repro.simnet.sim:Simulator.schedule", "schedule"),
    ("simnet.sim", "repro.simnet.shard:ShardedSimulator.schedule", "schedule"),
    ("simnet.sim", "repro.simnet.sim:Simulator.spawn", "spawn"),
    ("simnet.sim", "repro.simnet.sim:Simulator.run", "call"),
    ("simnet.sim", "repro.simnet.shard:ShardedSimulator.run", "call"),
    ("simnet.sim", "repro.simnet.sim:Simulator.run_process", "run_process"),
    ("simnet.sim", "repro.simnet.shard:ShardedSimulator.run_process",
     "run_process"),
    # network
    ("simnet.network", "repro.simnet.network:SimNetwork.dial", "call"),
    ("simnet.network", "repro.simnet.network:SimNetwork.rpc", "call"),
    ("simnet.network", "repro.simnet.network:SimNetwork.disconnect", "call"),
    # server-side RPC handlers are charged to the protocol that owns
    # the method name ("dht/FIND_NODE" -> dht, "bitswap/..." -> bitswap)
    ("simnet.network", "repro.simnet.network:SimHost.register_handler",
     "handler"),
    # compact worlds (build = write side, *_at = read side)
    ("simnet.compact", "repro.simnet.compact:build_compact_world", "op"),
    ("simnet.compact", "repro.simnet.compact:CompactWorld.host_at", "call"),
    ("simnet.compact", "repro.simnet.compact:CompactWorld.node_at", "call"),
    ("simnet.compact", "repro.simnet.compact:CompactWorld.engine_at", "call"),
    # DHT: client walks, routing table, legacy table fill
    ("dht", "repro.dht.dht_node:DhtNode.provide", "call"),
    ("dht", "repro.dht.dht_node:DhtNode.find_providers", "call"),
    ("dht", "repro.dht.dht_node:DhtNode.find_peer", "call"),
    ("dht", "repro.dht.dht_node:DhtNode.walk_closest", "call"),
    ("dht", "repro.dht.dht_node:DhtNode.publish_peer_record", "call"),
    ("dht", "repro.dht.routing_table:RoutingTable.closest", "call"),
    ("dht", "repro.dht.routing_table:RoutingTable.add", "call"),
    ("dht", "repro.dht.bootstrap:populate_routing_tables", "call"),
    # Bitswap
    ("bitswap", "repro.bitswap.engine:BitswapEngine.discover_connected",
     "call"),
    ("bitswap", "repro.bitswap.engine:BitswapEngine.fetch_block", "call"),
    ("bitswap", "repro.bitswap.session:BitswapSession.fetch_dag", "call"),
    # node + Merkle-DAG
    ("node", "repro.node.host:IpfsNode.add_bytes", "call"),
    ("node", "repro.node.host:IpfsNode.publish", "op"),
    ("node", "repro.node.host:IpfsNode.retrieve", "op"),
    ("node", "repro.node.host:IpfsNode.publish_peer_record", "op"),
    ("merkledag", "repro.merkledag.builder:DagBuilder.add_bytes", "call"),
    # crawler + prober
    ("crawler", "repro.crawler.crawl:Crawler.crawl", "fanout"),
    ("crawler", "repro.crawler.prober:UptimeProber.watch", "fanout"),
    # input generation
    ("workloads", "repro.workloads.population:generate_population", "op"),
    ("workloads", "repro.workloads.compact:generate_compact_population", "op"),
    ("workloads", "repro.workloads.gateway_trace:generate_columnar_trace",
     "op"),
    # gateway replay (window cells are charged by the module of Cell.fn)
    ("gateway", "repro.gateway.replay:run_replay", "op"),
    ("gateway", "repro.gateway.replay:resolve_tiers", "call"),
    ("experiments", "repro.experiments.runner:run_cells", "call"),
    ("experiments", "repro.experiments.runner:Cell.run", "cell"),
    # campaigns and world building above the layers
    ("experiments", "repro.experiments.scenario:build_scenario", "op"),
    ("experiments", "repro.experiments.perf:run_perf_experiment", "op"),
    ("experiments", "repro.experiments.deployment:run_crawl_timeseries", "op"),
    # analysis / grading
    ("grading", "repro.experiments.perf:PerfResults.latency_percentiles",
     "op"),
    ("grading", "repro.experiments.scale:grade_scale_results", "op"),
    ("grading", "repro.experiments.replay:grade_replay", "op"),
)


def lookup(path: str) -> tuple[Any, str, Any]:
    """Resolve ``module:qualname`` to ``(owner, attribute, value)``."""
    module_name, _, qualname = path.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        raise SeamError(module_name) from None
    parts = qualname.split(".")
    for depth, part in enumerate(parts):
        # A class attribute is looked up on the class that *defines*
        # it, so a shim never lands on an inherited method.
        namespace = vars(owner)
        if part not in namespace:
            raise SeamError(f"{module_name}:{'.'.join(parts[:depth + 1])}")
        if depth == len(parts) - 1:
            return owner, part, namespace[part]
        owner = namespace[part]
    raise SeamError(path)


def _declares(cls: type, attribute: str) -> bool:
    if hasattr(cls, attribute):
        return True
    return dataclasses.is_dataclass(cls) and attribute in {
        field.name for field in dataclasses.fields(cls)
    }


def resolve() -> SimpleNamespace:
    """Import and check every seam; return the callable namespace."""
    names = SimpleNamespace()
    for attribute, path in CALLS.items():
        setattr(names, attribute, lookup(path)[2])
    for path, attributes in READS.items():
        cls = lookup(path)[2]
        for attribute in attributes:
            if not _declares(cls, attribute):
                raise SeamError(f"{path}.{attribute}")
    for path in INSTANCE_READS:
        lookup(path)
    for _layer, path, _kind in WRAPS:
        lookup(path)
    return names


def read(obj: Any, attribute: str) -> Any:
    """``getattr`` that reports a missing attribute as a lost seam."""
    try:
        return getattr(obj, attribute)
    except AttributeError:
        raise SeamError(f"{type(obj).__qualname__}.{attribute}") from None


def optional(callee: Any, **kwargs: Any) -> dict[str, Any]:
    """The subset of ``kwargs`` that ``callee`` (a function or a
    dataclass) still accepts — for knobs the roadmap may remove."""
    accepted = inspect.signature(callee).parameters
    return {key: value for key, value in kwargs.items() if key in accepted}
