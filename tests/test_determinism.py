"""Whole-system determinism: same seed, same world, same numbers.

Reproducibility is a core promise of the harness (the paper publishes
datasets; we publish seeds). These tests run entire experiments twice
and require bit-identical outcomes.
"""

import hashlib

from repro.experiments.perf import PerfConfig, run_perf_experiment
from repro.experiments.scenario import (
    IDLE_NAT_WORLD,
    NatWorldConfig,
    ScenarioConfig,
    build_scenario,
)
from repro.obs import Observability
from repro.tools.export import export_trace
from repro.utils.rng import derive_rng
from repro.workloads.population import PopulationConfig, generate_population

#: sha256 of the exported JSONL trace of ``_perf_run(11, traced)``. If
#: this changes, either the instrumentation or the event schedule moved
#: — deliberate changes must update the digest (and note it in
#: EXPERIMENTS.md); accidental ones are regressions.
GOLDEN_TRACE_SHA256 = (
    "ae58ed763aa477a0733e6b6c703cd31fa2a1d2342c5436cccd020f63027f8dd2"
)


def _perf_run(
    seed: int,
    obs: Observability | None = None,
    nat_world: NatWorldConfig | None = None,
):
    population = generate_population(
        PopulationConfig(n_peers=250), derive_rng(seed, "det-pop")
    )
    scenario = build_scenario(
        population, ScenarioConfig(seed=seed, nat_world=nat_world),
        vantage_regions=["eu_central_1", "us_west_1"],
    )
    results = run_perf_experiment(
        scenario,
        PerfConfig(rounds=2, seed=seed),
        obs=obs,
    )
    return [
        (str(r.cid), round(r.total_duration, 9))
        for r in results.all_publications() + []
    ], [
        (str(r.cid), round(r.total_duration, 9), r.provider.encode())
        for r in results.all_retrievals()
    ]


def _traced_perf_digest(
    seed: int, tmp_path, nat_world: NatWorldConfig | None = None
) -> tuple[str, tuple]:
    obs = Observability()
    receipts = _perf_run(seed, obs, nat_world=nat_world)
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / f"trace-{seed}.jsonl"
    export_trace(obs.tracer, path)
    return hashlib.sha256(path.read_bytes()).hexdigest(), receipts


def test_perf_experiment_bit_identical():
    assert _perf_run(11) == _perf_run(11)


def test_perf_experiment_seed_sensitive():
    pubs_a, _ = _perf_run(11)
    pubs_b, _ = _perf_run(12)
    assert pubs_a != pubs_b


def test_tracing_does_not_change_results():
    """The tracer only reads the clock: a traced run's receipts are
    bit-identical to the untraced run's."""
    assert _perf_run(11, Observability()) == _perf_run(11)


def test_golden_trace_is_deterministic(tmp_path):
    """Two traced runs export byte-identical trace streams, pinned to a
    committed digest (the golden trace)."""
    digest_a, receipts_a = _traced_perf_digest(11, tmp_path / "a")
    digest_b, receipts_b = _traced_perf_digest(11, tmp_path / "b")
    assert digest_a == digest_b
    assert receipts_a == receipts_b
    assert digest_a == GOLDEN_TRACE_SHA256


def test_golden_trace_seed_sensitive(tmp_path):
    digest, _ = _traced_perf_digest(12, tmp_path)
    assert digest != GOLDEN_TRACE_SHA256


def test_idle_nat_world_preserves_golden_trace(tmp_path):
    """NAT layer enabled but every peer drawing PUBLIC is a strict
    no-op: no boxes, no relays, no traversal — the trace must be
    byte-identical to the pinned zero-NAT golden digest."""
    digest, receipts = _traced_perf_digest(
        11, tmp_path, nat_world=IDLE_NAT_WORLD
    )
    assert digest == GOLDEN_TRACE_SHA256
    assert receipts == _perf_run(11)


def test_population_is_reproducible_across_processes():
    """The derivation path is stable (no dict-order or hash-seed
    dependence): a pinned fingerprint must never change."""
    population = generate_population(
        PopulationConfig(n_peers=50), derive_rng(1234, "fingerprint")
    )
    # Literals, not a second in-process run: CI repeats this under
    # several PYTHONHASHSEED values. If they ever fail, seed-derived
    # streams changed and every published result in EXPERIMENTS.md must
    # be regenerated.
    assert str(population.peer_id_at(0)) == "QmVfxp9vCET3itQZGSG7Kwa9Uk3Bvx4oU4zbwEjQieLBfn"
    assert population.ips_at(0) == ("42.42.99.60",)
    # the last peer's address sits behind every draw before it
    assert population.ips_at(len(population) - 1) == ("154.230.196.96",)
