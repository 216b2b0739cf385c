"""The benchmark's metrics, by name: the table ``BENCHMARK.json`` mirrors.

``BENCHMARK.json`` may only carry ``name``/``unit``/``better`` (and a
``bound`` for the end-to-end ones), so everything else the issue asks
to be written down lives here: which clock a number uses, where it
comes from, and which end-to-end metric it should move on which
workload — the prediction every later performance PR is checked
against. Everywhere a row does not name, the prediction is *no change*.

Sources: **S** stage timing (``perf_counter`` around a public call,
untraced runs), **C** exact count read from a public result/counter
object (deterministic per seed), **T** the traced run's shims.

Clocks: *host* is what the Python process spends, *sim* is what the
modelled network would take. ``better`` is nominal for exact work
counts and for the model's own results (``model.*``): they must simply
not move unless behaviour changed.
"""

from __future__ import annotations

from typing import NamedTuple

from trace import LAYERS


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    definition: str


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    source: str  # S, C or T
    moves: str


END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd(
        "wall_s", "s", "lower", 0.20,
        "host: child start -> exit of the whole pipeline (interpreter, "
        "imports, input generation, world build, run, analysis/grading)",
    ),
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "host: the part of wall_s before the first operation (interpreter "
        "+ imports + input generation + world build); paid on every run",
    ),
    EndToEnd(
        "ops_per_s", "ops/s", "higher", 0.25,
        "host: the workload's operations / (wall_s - setup_s)",
    ),
    EndToEnd(
        "peak_rss_mb", "MiB", "lower", 0.05,
        "ru_maxrss of the child process",
    ),
    EndToEnd(
        "ok_ratio", "ratio", "higher", 0.001,
        "exact: 1 - failed / attempted operations (the issue's fail_ratio, "
        "turned round so that it is never 0)",
    ),
)

#: Paper values for the ``model.*`` rows (printed beside the measured
#: value with the relative error; not graded at benchmark sizes).
PAPER_VALUES = {
    "model.publish_p50_sim_s": 33.8,
    "model.retrieve_p50_sim_s": 2.90,
    "model.undialable_fraction": 0.455,
    "model.nginx_share": 0.460,
    "model.non_cached_p50_sim_s": 4.04,
}

#: Where each layer is hot, as the first traced pass measured it (the
#: README has the shares and what they corrected in the issue's table).
_HOT = {
    "simnet.sim": "ops_per_s on crawl (own dispatch + shard merge, ~10 %; "
                  "what it dispatches is charged to the layer that asked)",
    "simnet.network": "ops_per_s on pubget, crawl (dials, RPC delivery; "
                      "second-largest on both)",
    "simnet.compact": "ops_per_s on build (table fill, ~80 %) and crawl "
                      "(materialize, ~12 %)",
    "dht": "ops_per_s on pubget (client walks) and crawl (server closest + "
           "routing-table fill at materialization); largest on both",
    "bitswap": "ops_per_s on pubget (block fetches)",
    "merkledag": "ops_per_s on pubget (chunking + sha256 of 0.5 MB objects)",
    "node": "ops_per_s on pubget (publish/retrieve orchestration)",
    "crawler": "ops_per_s on crawl (visit bookkeeping, prober)",
    "gateway": "ops_per_s on replay (LRU, latency sampling, merge)",
    "workloads": "setup_s/wall_s on replay (trace generation); setup_s on build",
    "grading": "wall_s (expected < 1 % everywhere)",
    "experiments": "setup_s on pubget (legacy build_scenario); campaign glue",
}

PER_LAYER: tuple[PerLayer, ...] = (
    PerLayer("interp.import_s", "s", "lower", "S",
             "setup_s on all (a sentinel: should never move)"),
    PerLayer("workloads.generate_s", "s", "lower", "S",
             "setup_s/wall_s on replay (most of wall); setup_s on build; "
             "small on pubget, crawl"),
    PerLayer("workloads.items_per_s", "items/s", "higher", "S",
             "as workloads.generate_s"),
    PerLayer("scenario.build_s", "s", "lower", "S",
             "setup_s on pubget only (legacy build_scenario + dht.bootstrap)"),
    PerLayer("simnet.compact.build_s", "s", "lower", "S",
             "ops_per_s/wall_s on build; setup_s on crawl"),
    PerLayer("simnet.compact.bytes_per_peer", "B", "lower", "C",
             "peak_rss_mb on build"),
    PerLayer("simnet.compact.materialized", "peers", "lower", "C",
             "peak_rss_mb and ops_per_s on crawl"),
    PerLayer("experiments.campaign_s", "s", "lower", "S",
             "the run phase itself on pubget, crawl, build; denominator of "
             "simnet.sim.us_per_event"),
    PerLayer("gateway.resolve_s", "s", "lower", "S", "ops_per_s on replay only"),
    PerLayer("gateway.windows_s", "s", "lower", "S", "ops_per_s on replay only"),
    PerLayer("gateway.merge_s", "s", "lower", "S", "ops_per_s on replay only"),
    PerLayer("grading.grade_s", "s", "lower", "S",
             "wall_s (expected < 1 % everywhere; flags a grader that grows)"),
    PerLayer("grading.claims", "count", "higher", "C", "none"),
    PerLayer("grading.claims_not_pass", "count", "lower", "C", "none"),
    PerLayer("simnet.sim.events", "count", "lower", "C",
             "none: identical across commits unless behaviour changed"),
    PerLayer("simnet.sim.sim_seconds", "sim_s", "lower", "C",
             "none: identical across commits unless behaviour changed"),
    PerLayer("simnet.sim.us_per_event", "us/event", "lower", "S",
             "ops_per_s on crawl and pubget (host cost per simulated event, "
             "vs 3-5 us for the bare kernel micro-bench); tiny on build"),
    PerLayer("simnet.network.dials_attempted", "count", "lower", "C", "none"),
    PerLayer("simnet.network.dials_failed", "count", "lower", "C", "none"),
    PerLayer("simnet.network.dial_success_ratio", "ratio", "higher", "C", "none"),
    PerLayer("simnet.network.rpcs_sent", "count", "lower", "C", "none"),
    PerLayer("simnet.network.rpcs_completed", "count", "higher", "C", "none"),
    PerLayer("simnet.network.rpcs_timed_out", "count", "lower", "C", "none"),
    PerLayer("simnet.network.bytes_transferred", "B", "lower", "C", "none"),
    PerLayer("dht.walk_rpcs", "count", "lower", "C",
             "none; fewer RPCs per walk would move ops_per_s on pubget and "
             "change the digest"),
    PerLayer("dht.stores_ok_ratio", "ratio", "higher", "C", "none"),
    PerLayer("node.publishes", "count", "higher", "C", "none (exact work)"),
    PerLayer("node.retrievals", "count", "higher", "C", "none (exact work)"),
    PerLayer("bitswap.bytes_fetched", "B", "higher", "C", "none (exact work)"),
    PerLayer("bitswap.window_hits", "count", "higher", "C", "none (exact work)"),
    PerLayer("crawler.crawls", "count", "higher", "C", "none (exact work)"),
    PerLayer("crawler.visits", "count", "higher", "C", "none (exact work)"),
    PerLayer("crawler.rpcs_sent", "count", "lower", "C", "none (exact work)"),
    PerLayer("crawler.sessions", "count", "higher", "C", "none (exact work)"),
    PerLayer("gateway.requests", "count", "higher", "C", "none (exact work)"),
    PerLayer("gateway.nginx_hits", "count", "higher", "C", "none (exact work)"),
    PerLayer("gateway.node_store_hits", "count", "higher", "C",
             "none (exact work)"),
    PerLayer("gateway.misses", "count", "lower", "C", "none (exact work)"),
    PerLayer("gateway.hit_ratio", "ratio", "higher", "C",
             "none (useful outcomes / attempts for the cache tiers)"),
    *(
        PerLayer(name, "ratio" if "fraction" in name or "share" in name
                 else "sim_s", "lower", "C",
                 f"none: the model's own result (paper {paper})")
        for name, paper in PAPER_VALUES.items()
    ),
    *(
        row
        for layer in LAYERS
        for row in (
            PerLayer(f"{layer}.self_s", "s", "lower", "T", _HOT[layer]),
            PerLayer(f"{layer}.calls", "count", "lower", "T", _HOT[layer]),
        )
    ),
    PerLayer("obs.trace_overhead_ratio", "ratio", "lower", "T",
             "none (traced wall_s / untraced median - 1)"),
    PerLayer("obs.unattributed_share", "ratio", "lower", "T",
             "none (traced wall_s under no shim / traced wall_s)"),
    PerLayer("obs.spans", "count", "higher", "T",
             "none (sampled span records written)"),
)

END_TO_END_NAMES = tuple(metric.name for metric in END_TO_END)
PER_LAYER_NAMES = tuple(metric.name for metric in PER_LAYER)
UNITS = {metric.name: metric.unit for metric in (*END_TO_END, *PER_LAYER)}
