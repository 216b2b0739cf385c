"""Micro + macro performance benches for the simulation stack.

Each bench returns a throughput number (bigger is better) plus the raw
wall-clock it took. The suite is deliberately dependency-free (no
pytest-benchmark) so it can run identically on a laptop, in CI, and in
the nightly scale job, and emit one machine-readable JSON document.

Normalization: absolute events/sec differ wildly across machines, so
every result also carries ``norm`` — the metric divided by the host's
score on a fixed pure-Python calibration loop. CI regression checks
compare *normalized* throughput, which cancels out most of the
machine-speed difference between the committed baseline and the runner.

Profiles:

- ``quick``  — the CI subset (~15 s): micro kernel benches + the small
  macro scenario.
- ``full``   — everything but the 50k world (the committed baseline).
- ``scale``  — the nightly 50k-peer scale smoke on top of ``full``.
"""

from __future__ import annotations

import platform
import sys
import time
import tracemalloc
from dataclasses import dataclass

from repro.blockstore.block import Block
from repro.blockstore.memory import MemoryBlockstore
from repro.crawler.crawl import bucket_probe_key
from repro.dht.keyspace import KEY_BITS
from repro.dht.routing_table import K_BUCKET_SIZE, RoutingTable
from repro.experiments.perf import PerfConfig, run_perf_experiment
from repro.experiments.scenario import ScenarioConfig, build_scenario
from repro.multiformats.peerid import PeerId
from repro.simnet.compact import build_compact_world
from repro.workloads.compact import generate_compact_population
from repro.workloads.gateway_trace import GatewayTraceConfig, generate_columnar_trace
from repro.simnet.sim import Future, Simulator
from repro.utils.rng import derive_rng
from repro.workloads.population import PopulationConfig, generate_population

SCHEMA_VERSION = 1


@dataclass
class BenchResult:
    name: str
    value: float  # throughput, bigger is better
    unit: str
    wall_s: float
    detail: dict
    #: throughput numbers are divided by the calibration score so the
    #: gate compares machine-independent ratios; memory footprints are
    #: already machine-independent, so they opt out and gate on the
    #: raw value.
    normalize: bool = True

    def as_dict(self, calibration: float) -> dict:
        norm = self.value / calibration if self.normalize else self.value
        return {
            "value": round(self.value, 3),
            "unit": self.unit,
            "wall_s": round(self.wall_s, 4),
            "norm": float(f"{norm:.6g}"),
            **self.detail,
        }


# -- calibration -------------------------------------------------------------

def calibration_score() -> float:
    """Fixed pure-Python work rate (iterations/sec) used to normalize
    throughput numbers across machines of different speed."""
    n = 400_000
    best = 0.0
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(n):
            acc ^= i * 31
        elapsed = time.perf_counter() - t0
        best = max(best, n / elapsed)
    return best


# -- micro: the event kernel -------------------------------------------------

def bench_kernel_event_throughput(n_events: int = 200_000) -> BenchResult:
    """Raw heap throughput: schedule ``n_events`` no-op timers at
    spread-out instants, then drain the queue."""
    sim = Simulator()
    nop = (lambda: None)
    t0 = time.perf_counter()
    for i in range(n_events):
        # A deterministic non-monotonic spread exercises real heap
        # reordering instead of the sorted-input fast path.
        sim.schedule(float((i * 7919) % 1000), nop)
    sim.run()
    wall = time.perf_counter() - t0
    return BenchResult(
        "kernel_event_throughput", n_events / wall, "events/s", wall,
        {"n_events": n_events},
    )


def bench_kernel_timer_cancel(n_timers: int = 200_000) -> BenchResult:
    """Schedule timers, cancel two thirds, drain: the lazy-deletion
    path (cancelled entries must cost almost nothing to skip)."""
    sim = Simulator()
    fired = []
    t0 = time.perf_counter()
    timers = [
        sim.schedule(float((i * 104729) % 500), lambda: fired.append(1))
        for i in range(n_timers)
    ]
    for i, timer in enumerate(timers):
        if i % 3:
            timer.cancel()
    sim.run()
    wall = time.perf_counter() - t0
    assert len(fired) == (n_timers + 2) // 3
    return BenchResult(
        "kernel_timer_cancel", n_timers / wall, "timers/s", wall,
        {"n_timers": n_timers, "fired": len(fired)},
    )


def bench_future_callback_dispatch(n_futures: int = 100_000) -> BenchResult:
    """Settle a long chain of futures each with two callbacks: the
    Future dispatch fast path."""
    sink = []
    t0 = time.perf_counter()
    for _ in range(n_futures):
        future = Future()
        future.add_callback(lambda f: None)
        future.add_callback(lambda f: sink.append(f))
        future.resolve(1)
    wall = time.perf_counter() - t0
    assert len(sink) == n_futures
    return BenchResult(
        "future_callback_dispatch", n_futures / wall, "futures/s", wall,
        {"n_futures": n_futures},
    )


def bench_process_switch(n_switches: int = 50_000) -> BenchResult:
    """Generator-process context switches through zero-length sleeps."""
    sim = Simulator()

    def proc():
        for _ in range(n_switches):
            yield 0.0
        return None

    t0 = time.perf_counter()
    sim.run_process(proc())
    wall = time.perf_counter() - t0
    return BenchResult(
        "process_switch", n_switches / wall, "switches/s", wall,
        {"n_switches": n_switches},
    )


# -- micro: the routing table ------------------------------------------------

def bench_routing_table_closest(
    n_network: int, n_calls: int = 100_000
) -> BenchResult:
    """``RoutingTable.closest`` on the table one peer holds in a network
    of ``n_network`` servers (2 800 -> ~160 entries, the e2e ``crawl``
    world; 200 000 -> ~280, paper scale), over the two kinds of target
    it serves: the crawler's bucket probes (a key at cpl 0..7 from the
    table's own, as ``bucket_queries=8`` sends) and the uniformly
    random keys of DHT walks. Every FIND_NODE handler makes this call."""
    own = PeerId.from_public_key(b"bench-table-own")
    table = RoutingTable(own)
    for index in range(n_network):
        table.add(PeerId.from_public_key(b"bench-table-%d" % index))
    rng = derive_rng(42, "bench-closest")
    per_kind = n_calls // 2
    targets = {
        "bucket_probe": [
            bucket_probe_key(table.own_key, call % 8, rng)
            for call in range(per_kind)
        ],
        "random": [
            rng.getrandbits(KEY_BITS).to_bytes(KEY_BITS // 8, "big")
            for _ in range(per_kind)
        ],
    }
    closest = table.closest
    walls = {}
    returned = 0
    for kind, keys in targets.items():
        t0 = time.perf_counter()
        for key in keys:
            returned += len(closest(key))
        walls[kind] = time.perf_counter() - t0
    assert returned == 2 * per_kind * K_BUCKET_SIZE
    wall = sum(walls.values())
    return BenchResult(
        f"routing_table_closest_{round(len(table) / 20) * 20}",
        2 * per_kind / wall, "calls/s", wall,
        {"n_network": n_network, "entries": len(table), "calls": 2 * per_kind,
         **{f"{kind}_us": round(w / per_kind * 1e6, 2)
            for kind, w in walls.items()}},
    )


# -- micro: the block hop ----------------------------------------------------

def bench_block_hop(n_hops: int = 400_000, block_size: int = 256 * 1024) -> BenchResult:
    """What one retrieval hop does to a 256 KiB block: ``get`` from the
    sender's store, ``verify`` (Bitswap's check), ``put`` into the
    receiver's (which verifies again). The object that travels is the
    sender's own verified block, so a hop costs dict traffic; a sha256
    over the payload per hop (≈ 0.2 ms) would cut this figure by two
    orders of magnitude."""
    rng = derive_rng(42, "bench-block-hop")
    sender, receiver = MemoryBlockstore(), MemoryBlockstore()
    cids = []
    for _ in range(16):
        block = Block.from_data(rng.randbytes(block_size))
        sender.put(block)
        cids.append(block.cid)
    t0 = time.perf_counter()
    for hop in range(n_hops):
        block = sender.get(cids[hop & 15])
        assert block.verify()
        receiver.put(block)
    wall = time.perf_counter() - t0
    assert receiver.size_bytes() == 16 * block_size
    return BenchResult(
        f"block_hop_{block_size // 1024}k", n_hops / wall, "blocks/s", wall,
        {"n_hops": n_hops, "block_size": block_size},
    )


# -- macro: whole-world scenarios --------------------------------------------

def _build_world(n_peers: int, *, with_churn: bool, seed: int = 42):
    population = generate_population(
        PopulationConfig(n_peers=n_peers), derive_rng(seed, "bench-kernel-pop")
    )
    return build_scenario(
        population, ScenarioConfig(seed=seed, with_churn=with_churn)
    )


def bench_world_build(n_peers: int) -> BenchResult:
    """Population + scenario build (dominated by routing-table fill)."""
    t0 = time.perf_counter()
    scenario = _build_world(n_peers, with_churn=False)
    wall = time.perf_counter() - t0
    table_entries = sum(len(node.routing_table) for node in scenario.backdrop)
    return BenchResult(
        f"world_build_{n_peers // 1000}k", n_peers / wall, "peers/s", wall,
        {"n_peers": n_peers, "table_entries": table_entries},
    )


def bench_compact_world_build(n_peers: int) -> BenchResult:
    """Compact-world build (dominated by ``CompactWorld._fill_tables``).

    ``world_build_*`` above times the *legacy* ``build_scenario`` and
    ``world_memory_*`` gates only bytes, so neither holds the compact
    fill's speed; the population is generated outside the timed region.
    """
    seed = 42
    compact = generate_compact_population(
        PopulationConfig(n_peers=n_peers), derive_rng(seed, "bench-kernel-pop")
    )
    t0 = time.perf_counter()
    world = build_compact_world(compact, ScenarioConfig(seed=seed))
    wall = time.perf_counter() - t0
    return BenchResult(
        f"compact_world_build_{n_peers // 1000}k", n_peers / wall, "peers/s", wall,
        {"n_peers": n_peers, "table_entries": len(world._table_entries)},
    )


def bench_columnar_trace_generate(scale: int = 120) -> BenchResult:
    """The gateway day as columns (scale 120 = 59 166 requests): the
    draw-for-draw hot loop plus the per-bin sort and gathers."""
    config = GatewayTraceConfig(scale=scale)
    t0 = time.perf_counter()
    trace = generate_columnar_trace(config, derive_rng(42, "trace"))
    wall = time.perf_counter() - t0
    return BenchResult(
        "columnar_trace_generate", len(trace) / wall, "requests/s", wall,
        {"scale": scale, "n_requests": len(trace)},
    )


def bench_trace_memory(scale: int = 120) -> BenchResult:
    """Requests per MiB of tracemalloc *peak* while the gateway day is
    generated (bigger is better; not normalized, like ``world_memory_*``).

    The finished columns are 18 B per request; the peak is what the
    generator holds on the way there (~38 B: at this size the one
    chunk of drawn users). A whole-day list of boxed values — an
    argsort of the day and four gathered columns peak at 102 B — fails
    the gate whatever the host's speed.
    """
    config = GatewayTraceConfig(scale=scale)
    tracemalloc.start()
    before, _ = tracemalloc.get_traced_memory()
    t0 = time.perf_counter()
    trace = generate_columnar_trace(config, derive_rng(42, "trace"))
    wall = time.perf_counter() - t0
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    used = peak - before
    return BenchResult(
        "trace_memory", len(trace) / (used / (1024 * 1024)), "requests/MiB", wall,
        {"scale": scale, "n_requests": len(trace),
         "peak_bytes_per_request": round(used / len(trace), 1)},
        normalize=False,
    )


def bench_world_memory(n_peers: int, traced: bool | None = None) -> BenchResult:
    """Bytes per peer for a compact (unmaterialized) world.

    Two measurement modes, both deterministic for a fixed Python:

    - ``traced`` (default at <= 20k): tracemalloc counts every Python
      allocation the build retains — arrays, the digest index, the
      network — so a per-peer object sneaking back into the compact
      path shows up even if the declared accounting misses it. Tracing
      costs ~10x build time, which is why it stays at the small size.
    - untraced (the 100k point): the world's own ``nbytes`` accounting,
      which is free and catches the asymptotic failure mode (an array
      or index growing superlinearly). The 10k point's detail carries
      both numbers, so drift between accounting and reality is visible
      in the same artifact.

    The metric is peers per MiB (bigger is better). Footprints do not
    scale with CPU speed, so this result is *not* normalized: the gate
    compares the raw value.
    """
    seed = 42
    if traced is None:
        traced = n_peers <= 20_000
    if traced:
        tracemalloc.start()
        before, _ = tracemalloc.get_traced_memory()
    t0 = time.perf_counter()
    compact = generate_compact_population(
        PopulationConfig(n_peers=n_peers), derive_rng(seed, "bench-kernel-pop")
    )
    world = build_compact_world(compact, ScenarioConfig(seed=seed))
    wall = time.perf_counter() - t0
    if traced:
        current, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        used = current - before
    else:
        used = world.nbytes()
    return BenchResult(
        f"world_memory_{n_peers // 1000}k",
        n_peers / (used / (1024 * 1024)),
        "peers/MiB", wall,
        {"n_peers": n_peers, "traced": traced,
         "bytes_per_peer": round(used / n_peers, 1),
         "array_bytes_per_peer": round(world.nbytes() / n_peers, 1)},
        normalize=False,
    )


def bench_churn_events(n_peers: int = 2000, sim_hours: float = 24.0) -> BenchResult:
    """Kernel-bound churn replay: events/sec over a simulated day."""
    scenario = _build_world(n_peers, with_churn=True)
    sim = scenario.sim
    t0 = time.perf_counter()
    sim.run(until=sim_hours * 3600.0)
    wall = time.perf_counter() - t0
    return BenchResult(
        "churn_events", sim.events_processed / wall, "events/s", wall,
        {"n_peers": n_peers, "sim_hours": sim_hours,
         "events": sim.events_processed},
    )


def bench_macro_perf_experiment(
    n_peers: int = 1500, rounds: int = 6
) -> BenchResult:
    """THE kernel-bound macro scenario: the paper's publish/retrieve
    experiment over a mid-size world, end to end — world build (routing
    table fill), churn wiring, and all rounds. This is the number the
    ≥2x speedup target (and the CI regression gate) is anchored to;
    the metric is operations per wall second."""
    t0 = time.perf_counter()
    population = generate_population(
        PopulationConfig(n_peers=n_peers), derive_rng(42, "bench-kernel-pop")
    )
    scenario = build_scenario(
        population, ScenarioConfig(seed=42),
        vantage_regions=["eu_central_1", "us_west_1", "ap_southeast_2"],
    )
    results = run_perf_experiment(
        scenario,
        PerfConfig(rounds=rounds,
                   regions=("eu_central_1", "us_west_1", "ap_southeast_2")),
    )
    wall = time.perf_counter() - t0
    ops = len(results.all_publications()) + len(results.all_retrievals())
    return BenchResult(
        "macro_perf_experiment", ops / wall, "ops/s", wall,
        {"n_peers": n_peers, "rounds": rounds, "operations": ops,
         "events": scenario.sim.events_processed,
         "sim_s": round(scenario.sim.now, 1)},
    )


def bench_scale_smoke(n_peers: int = 50_000, sim_hours: float = 1.0) -> BenchResult:
    """The nightly 50k-peer smoke: build the full-size world and run an
    hour of churn. Guards the path to paper-scale (~200k) populations."""
    t0 = time.perf_counter()
    scenario = _build_world(n_peers, with_churn=True)
    build_wall = time.perf_counter() - t0
    sim = scenario.sim
    t1 = time.perf_counter()
    sim.run(until=sim_hours * 3600.0)
    run_wall = time.perf_counter() - t1
    wall = build_wall + run_wall
    return BenchResult(
        "scale_smoke_50k", n_peers / wall, "peers/s", wall,
        {"n_peers": n_peers, "sim_hours": sim_hours,
         "build_wall_s": round(build_wall, 3),
         "run_wall_s": round(run_wall, 3),
         "events": sim.events_processed},
    )


# -- suite assembly ----------------------------------------------------------

QUICK_BENCHES = (
    # Kernel micro benches run at full size even in the CI profile:
    # sub-second walls are dominated by scheduler jitter, which is what
    # flaps a 25 % regression gate.
    bench_kernel_event_throughput,
    bench_kernel_timer_cancel,
    bench_future_callback_dispatch,
    lambda: bench_process_switch(100_000),
    lambda: bench_routing_table_closest(2_800),
    lambda: bench_routing_table_closest(200_000),
    bench_block_hop,
    lambda: bench_world_build(1000),
    lambda: bench_compact_world_build(10_000),
    bench_columnar_trace_generate,
    bench_trace_memory,
    lambda: bench_macro_perf_experiment(800, 4),
    # Memory gates run at full size even in CI: bytes/peer is
    # deterministic for a fixed Python, and the 100k point is where a
    # per-peer object sneaking back into the compact path would hide
    # at smaller n.
    lambda: bench_world_memory(10_000),
    lambda: bench_world_memory(100_000),
)

FULL_BENCHES = (
    bench_kernel_event_throughput,
    bench_kernel_timer_cancel,
    bench_future_callback_dispatch,
    bench_process_switch,
    lambda: bench_routing_table_closest(2_800),
    lambda: bench_routing_table_closest(200_000),
    bench_block_hop,
    lambda: bench_world_build(1000),
    lambda: bench_world_build(10_000),
    lambda: bench_compact_world_build(10_000),
    bench_columnar_trace_generate,
    bench_trace_memory,
    bench_churn_events,
    bench_macro_perf_experiment,
    lambda: bench_world_memory(10_000),
    lambda: bench_world_memory(100_000),
)

SCALE_BENCHES = FULL_BENCHES + (bench_scale_smoke,)

PROFILES = {
    "quick": QUICK_BENCHES,
    "full": FULL_BENCHES,
    "scale": SCALE_BENCHES,
}


def run_suite(profile: str = "full", verbose: bool = True) -> dict:
    """Run the selected profile; returns the JSON-ready document."""
    benches = PROFILES[profile]
    calibration = calibration_score()
    results = {}
    for bench in benches:
        result = bench()
        results[result.name] = result.as_dict(calibration)
        if verbose:
            print(
                f"  {result.name:28s} {result.value:14.1f} {result.unit:10s}"
                f" ({result.wall_s:.2f}s)",
                file=sys.stderr,
            )
    return {
        "schema": SCHEMA_VERSION,
        "suite": "kernel",
        "profile": profile,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "calibration_ops_per_s": round(calibration, 1),
        "results": results,
    }
