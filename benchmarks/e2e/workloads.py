"""The four batch workloads: sizes, pipelines, counts, digests, checks.

Each pipeline is the sequence of public calls a user of the library
makes to rerun one of the paper's evaluations, timed stage by stage
with ``perf_counter`` (host clock). Everything else a pipeline returns
is read from public result and counter objects after the run and is a
pure function of ``(workload, size, seed)``: exact work counts, the
modelled system's own results (sim clock), and ``sim_digest`` — a
sha256 over the simulated outputs that must not move when a change is
only meant to make the simulator faster.

``seed`` feeds every ``derive_rng`` / config seed; the library receives
only the inputs generated from it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import statistics
import time
from typing import Any, Callable

from seams import REPLAY_TIMINGS, optional, read

WORKLOADS = ("pubget", "crawl", "replay", "build")

#: The one size table. ``bench`` is what ``BENCHMARK.json`` runs (its
#: ``why`` lines quote these numbers): each repetition is ~7 s on the
#: reference box so that three fit one contract run. ``smoke`` keeps
#: every workload under ~2 s for the self-tests.
SIZES: dict[str, dict[str, dict[str, Any]]] = {
    "bench": {
        "pubget": {"peers": 2000, "rounds": 20},
        "crawl": {"peers": 2800, "crawls": 2, "probe_sample": 0.1,
                  "bucket_queries": 8, "workers": 2},
        "replay": {"scale": 12},
        "build": {"peers": 20_000, "churn_s": 3600.0},
    },
    "smoke": {
        "pubget": {"peers": 300, "rounds": 2},
        "crawl": {"peers": 500, "crawls": 1, "probe_sample": 0.1,
                  "bucket_queries": 8, "workers": 2},
        "replay": {"scale": 2000},
        "build": {"peers": 2000, "churn_s": 3600.0},
    },
}

#: What one operation is, per workload (``ops_per_s`` counts these).
OP_UNITS = {
    "pubget": "publish + retrieve operations",
    "crawl": "peers visited",
    "replay": "gateway requests replayed",
    "build": "peers built",
}

#: Why each workload is in the benchmark: what it stresses and what it
#: bypasses (``BENCHMARK.json`` carries these lines verbatim).
WHY = {
    "pubget": "Paper 4.3 six-region publish/retrieve on the legacy object "
              "world (2000 peers, 20 rounds = 720 ops): client DHT walks and "
              "the network dominate; compact worlds and gateway are bypassed.",
    "crawl": "Paper 4.1 crawler + uptime prober on a compact world (2800 "
             "peers, 2 crawls in 1 sim-hour): server-side DHT, lazy "
             "materialization, network, event kernel; no Bitswap, no gateway.",
    "replay": "Paper 4.2 gateway day (scale 12 = 591666 requests, model "
              "backend): trace generation, array LRU, latency sampling; no "
              "kernel, DHT or network: the bypass for simulator optimisations.",
    "build": "Write side of compact worlds (20000 peers + 1 sim-hour of "
             "churn): routing-table fill, churn pre-draw, bytes per peer; "
             "crawl is the read side, so work deferred from fill shows there.",
}

#: The paper's crawler sweeps the network every 30 minutes (§4.1).
CRAWL_INTERVAL_S = 1800.0
#: One round = each of the 6 regions publishes once and the other 5
#: retrieve: 6 + 30 operations.
OPS_PER_ROUND = 36
#: ``build`` samples every 100th peer for its checks and digest.
BUILD_SAMPLE_STRIDE = 100


class StageClock:
    """``perf_counter`` around the pipeline's public calls."""

    def __init__(self, origin: float) -> None:
        self.origin = origin
        #: stage metric -> (start, end), ``perf_counter`` readings
        self.windows: dict[str, tuple[float, float]] = {}
        self.setup_end_s: float | None = None

    def run(self, metric: str, fn: Callable[..., Any], *args: Any, **kwargs: Any):
        started = time.perf_counter()
        result = fn(*args, **kwargs)
        self.windows[metric] = (started, time.perf_counter())
        return result

    def setup_done(self, at: float | None = None) -> None:
        """Everything before this instant is ``setup_s``."""
        moment = time.perf_counter() if at is None else at
        self.setup_end_s = moment - self.origin


@dataclasses.dataclass
class Outcome:
    """What one repetition did, besides how long it took."""

    ops: int
    attempted: int
    failed: int
    #: inputs generated (peers or requests): workloads.items_per_s
    items: int
    #: exact per seed: work counts and the model's own results
    counts: dict[str, float]
    checks: dict[str, bool]
    sim_digest: str


def sha256_json(payload: Any) -> str:
    """sha256 over canonical JSON (floats serialize by ``repr``, exactly)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _network_counts(stats: Any) -> dict[str, float]:
    attempted = read(stats, "dials_attempted")
    failed = read(stats, "dials_failed")
    return {
        "simnet.network.dials_attempted": attempted,
        "simnet.network.dials_failed": failed,
        "simnet.network.dial_success_ratio":
            read(stats, "dials_succeeded") / attempted if attempted else 0.0,
        "simnet.network.rpcs_sent": read(stats, "rpcs_sent"),
        "simnet.network.rpcs_completed": read(stats, "rpcs_completed"),
        "simnet.network.rpcs_timed_out": read(stats, "rpcs_timed_out"),
        "simnet.network.bytes_transferred": read(stats, "bytes_transferred"),
    }


#: A walk keeps at most ``dial_ahead`` (3) background dials open and
#: the crawler 64 visits; anything beyond this is a lost dial.
IN_FLIGHT_DIALS_MAX = 64


def _dials_settle(stats: Any) -> bool:
    """Every dial ends in exactly one outcome. Dials still in flight
    when the campaign's last operation returns have none yet, so the
    settled ones may only fall short of the attempts, never exceed."""
    settled = read(stats, "dials_succeeded") + read(stats, "dials_failed")
    return 0 <= read(stats, "dials_attempted") - settled <= IN_FLIGHT_DIALS_MAX


def _kernel_counts(sim: Any) -> dict[str, float]:
    return {
        "simnet.sim.events": read(sim, "events_processed"),
        "simnet.sim.sim_seconds": read(sim, "now"),
    }


def _claims(grades: list[Any]) -> dict[str, float]:
    graded = [grade for grade in grades if grade is not None]
    return {
        "grading.claims": len(graded),
        "grading.claims_not_pass":
            sum(1 for grade in graded if grade.name != "PASS"),
    }


# ----------------------------------------------------------------------
# pubget: §4.3, Table 4 / Fig 9 — six regions publish and retrieve
# ----------------------------------------------------------------------


def run_pubget(S: Any, size: dict[str, Any], seed: int, clock: StageClock,
               tracer: Any = None) -> Outcome:
    population = clock.run(
        "workloads.generate_s", S.generate_population,
        S.PopulationConfig(n_peers=size["peers"]), S.derive_rng(seed, "bench-pop"),
    )
    scenario = clock.run(
        "scenario.build_s", S.build_scenario,
        population, S.ScenarioConfig(seed=seed),
        vantage_regions=list(S.AWS_REGIONS),
    )
    clock.setup_done()
    results = clock.run(
        "experiments.campaign_s", S.run_perf_experiment,
        scenario, S.PerfConfig(rounds=size["rounds"], seed=seed),
    )
    clock.run("grading.grade_s", results.latency_percentiles)

    publications = results.all_publications()
    retrievals = results.all_retrievals()
    failures = read(results, "failures")
    attempted = size["rounds"] * OPS_PER_ROUND
    ops = len(publications) + len(retrievals)
    sim, stats = read(scenario, "sim"), read(read(scenario, "net"), "stats")
    targeted = sum(r.peers_targeted for r in publications)

    counts: dict[str, float] = {
        "node.publishes": len(publications),
        "node.retrievals": len(retrievals),
        "dht.walk_rpcs": sum(r.walk_rpcs for r in publications),
        "dht.stores_ok_ratio":
            sum(r.peers_stored for r in publications) / targeted
            if targeted else 0.0,
        "bitswap.bytes_fetched": sum(r.bytes_fetched for r in retrievals),
        "bitswap.window_hits": sum(1 for r in retrievals if r.via_bitswap),
        "model.publish_p50_sim_s":
            statistics.median(r.total_duration for r in publications),
        "model.retrieve_p50_sim_s":
            statistics.median(r.total_duration for r in retrievals),
    }
    counts.update(_network_counts(stats))
    counts.update(_kernel_counts(sim))

    digest = sha256_json({
        "publications": [
            [r.walk_duration, r.rpc_batch_duration, r.total_duration,
             r.peers_stored, r.peers_targeted, r.walk_rpcs]
            for r in publications
        ],
        "retrievals": [
            [r.via_bitswap, r.bitswap_window, r.provider_walk_duration,
             r.peer_walk_duration, r.dial_duration, r.fetch_duration,
             r.total_duration, r.bytes_fetched]
            for r in retrievals
        ],
        "network": {
            name: value for name, value in _network_counts(stats).items()
            if not name.endswith("_ratio")
        },
        "events": read(sim, "events_processed"),
        "now": read(sim, "now"),
    })
    checks = {
        "op_count": ops + failures == attempted,
        "dials_settle": _dials_settle(stats),
    }
    return Outcome(ops, attempted, failures, size["peers"], counts, checks, digest)


# ----------------------------------------------------------------------
# crawl: §4.1, Fig 4a / Fig 8 — crawler + prober over a compact world
# ----------------------------------------------------------------------


def run_crawl(S: Any, size: dict[str, Any], seed: int, clock: StageClock,
              tracer: Any = None) -> Outcome:
    n_peers = size["peers"]
    compact = clock.run(
        "workloads.generate_s", S.generate_compact_population,
        S.PopulationConfig(n_peers=n_peers), S.derive_rng(seed, "population"),
    )
    config = S.ScaleCrawlConfig(
        n_peers=n_peers, seed=seed,
        duration_s=size["crawls"] * CRAWL_INTERVAL_S,
        crawl_interval_s=CRAWL_INTERVAL_S,
        bucket_queries=size["bucket_queries"],
        probe_sample=size["probe_sample"],
        # ROADMAP item 2(b) may delete the knob; the benchmark survives.
        **optional(S.ScaleCrawlConfig, workers=size["workers"]),
    )
    world = clock.run(
        "simnet.compact.build_s", S.build_compact_world,
        compact, S.ScenarioConfig(seed=seed),
        churn_horizon_s=config.duration_s + 2 * config.crawl_interval_s,
        **optional(S.build_compact_world, workers=size["workers"]),
    )
    net = read(world, "net")
    if tracer is not None:
        # the lazy-materialization hook is a plain attribute, not a method
        net.host_resolver = tracer.wrap(
            read(net, "host_resolver"), "simnet.compact", "host_resolver"
        )
    bytes_per_peer = world.nbytes() / n_peers
    clock.setup_done()
    results = clock.run(
        "experiments.campaign_s", S.run_crawl_timeseries, world, config.campaign()
    )
    claims = clock.run("grading.grade_s", S.grade_scale_results, config, results)

    crawls = read(results, "crawls")
    visits = sum(len(crawl.peers_seen) for crawl in crawls)
    attempted = n_peers * size["crawls"]
    sessions = read(results, "sessions")
    timeseries = results.timeseries()
    sim = read(world, "sim")

    counts: dict[str, float] = {
        "simnet.compact.bytes_per_peer": bytes_per_peer,
        "simnet.compact.materialized": read(world, "materialized"),
        "crawler.crawls": len(crawls),
        "crawler.visits": visits,
        "crawler.rpcs_sent": sum(crawl.rpcs_sent for crawl in crawls),
        "crawler.sessions": len(sessions),
        "model.undialable_fraction": statistics.fmean(
            len(crawl.undialable) / len(crawl.peers_seen) for crawl in crawls
        ) if crawls else 0.0,
    }
    counts.update(_claims([claim.grade for claim in claims]))
    counts.update(_network_counts(read(net, "stats")))
    counts.update(_kernel_counts(sim))

    digest = sha256_json({
        "timeseries": timeseries,
        "sessions": [
            [session.peer.to_bytes().hex(), session.group,
             session.start, session.end]
            for session in sessions
        ],
        "events": read(sim, "events_processed"),
    })
    checks = {
        "op_count": len(crawls) == size["crawls"] and visits <= attempted,
        "dials_settle": _dials_settle(read(net, "stats")),
    }
    return Outcome(
        visits, attempted, attempted - visits, n_peers, counts, checks, digest
    )


# ----------------------------------------------------------------------
# replay: §4.2, Table 5 / Fig 11 — the gateway day, no simulator at all
# ----------------------------------------------------------------------


def run_replay(S: Any, size: dict[str, Any], seed: int, clock: StageClock,
               tracer: Any = None) -> Outcome:
    config = dataclasses.replace(
        S.full_day_config(seed),
        trace=S.GatewayTraceConfig(scale=size["scale"], full_catalog=True),
    )
    started = time.perf_counter()
    result = S.run_replay(config, **optional(S.run_replay, workers=1))
    timings = read(result, "timings")
    for key in REPLAY_TIMINGS:
        if key not in timings:
            raise KeyError(f"benchmark seam `ReplayResult.timings[{key!r}]` is gone")
    # run_replay generates its own input first; that part is set-up
    clock.setup_done(at=started + timings["generate_s"])
    # run_replay times its own stages, back to back in this order
    cursor = started
    for metric, key in (
        ("workloads.generate_s", "generate_s"),
        ("gateway.resolve_s", "resolve_s"),
        ("gateway.windows_s", "windows_s"),
        ("gateway.merge_s", "merge_s"),
    ):
        clock.windows[metric] = (cursor, cursor + timings[key])
        cursor += timings[key]
    report = clock.run("grading.grade_s", S.grade_replay, [result])

    requests = read(result, "n_requests")
    tiers = read(result, "tier_counts")
    store = read(result, "node_store_latencies")
    upstream = read(result, "non_cached_latencies")
    # a request fails when it got no tier, or was served without a
    # latency sample (sheds serve nothing and need none)
    failed = abs(requests - sum(tiers.values())) + abs(
        tiers["node_store"] - len(store)
    ) + abs(tiers["non_cached"] - len(upstream))

    counts: dict[str, float] = {
        "gateway.requests": requests,
        "gateway.nginx_hits": tiers["nginx"],
        "gateway.node_store_hits": tiers["node_store"],
        "gateway.misses": tiers["non_cached"] + tiers["shed"],
        "gateway.hit_ratio": result.combined_hit_rate,
        "model.nginx_share": result.nginx_share,
        "model.non_cached_p50_sim_s": result.tier_percentile("non_cached", 50),
    }
    counts.update(_claims([row.grade for row in read(report, "rows")]))

    digest = sha256_json({
        "tier_counts": tiers,
        "tier_bytes": read(result, "tier_bytes"),
        "node_store_latencies": hashlib.sha256(store.tobytes()).hexdigest(),
        "non_cached_latencies": hashlib.sha256(upstream.tobytes()).hexdigest(),
    })
    expected = config.trace.n_requests
    checks = {
        "op_count": requests == expected,
        "tiers_sum": sum(tiers.values()) == requests,
    }
    return Outcome(
        requests - failed, requests, failed, requests, counts, checks, digest
    )


# ----------------------------------------------------------------------
# build: the write side of simnet.compact, at the largest size
# ----------------------------------------------------------------------


def run_build(S: Any, size: dict[str, Any], seed: int, clock: StageClock,
              tracer: Any = None) -> Outcome:
    n_peers = size["peers"]
    compact = clock.run(
        "workloads.generate_s", S.generate_compact_population,
        S.PopulationConfig(n_peers=n_peers), S.derive_rng(seed, "population"),
    )
    # here the world build *is* the operation; only its input is set-up
    clock.setup_done()
    world = clock.run(
        "simnet.compact.build_s", S.build_compact_world,
        compact, S.ScenarioConfig(seed=seed),
    )
    sim = read(world, "sim")
    clock.run("experiments.campaign_s", sim.run, until=size["churn_s"])

    sampled = range(0, n_peers, BUILD_SAMPLE_STRIDE)
    tables: list[list[str]] = []
    failed = 0
    for index in sampled:
        try:
            world.online_at(index)
            table = [peer.to_bytes().hex() for peer in world.table_peer_ids(index)]
        except (IndexError, KeyError):
            table = []
        failed += not table
        tables.append(table)
    online = bytes(world.online_at(index) for index in range(n_peers))

    counts: dict[str, float] = {
        "simnet.compact.bytes_per_peer": world.nbytes() / n_peers,
        "simnet.compact.materialized": read(world, "materialized"),
    }
    counts.update(_kernel_counts(sim))

    digest = sha256_json({
        "online": hashlib.sha256(online).hexdigest(),
        "tables": tables,
        "events": read(sim, "events_processed"),
    })
    checks = {
        "op_count": len(online) == n_peers
        and len(tables) == math.ceil(n_peers / BUILD_SAMPLE_STRIDE),
    }
    # all peers were built or build_compact_world would have raised;
    # the sampled ones are the ones whose result was looked at
    return Outcome(n_peers, n_peers, failed, n_peers, counts, checks, digest)


PIPELINES: dict[str, Callable[..., Outcome]] = {
    "pubget": run_pubget,
    "crawl": run_crawl,
    "replay": run_replay,
    "build": run_build,
}
