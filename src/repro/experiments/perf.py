"""The six-region performance experiment (Sections 4.3, 6.1, 6.2).

Mirrors the paper's protocol exactly:

    "Upon each iteration, a single node announces a new 0.5 MB object
    (i.e., CID) to the network. Following this, all other nodes
    retrieve the object. ... As soon as all remaining nodes have
    completed this process, they disconnect to prevent the next
    retrieval operation being resolved through Bitswap."

Each round rotates the publishing region. The receipts feed Table 1
(operation counts), Table 4 (latency percentiles), Figure 9 (CDF
families) and Figure 10 (stretch).
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass, field

from repro.experiments.scenario import Scenario
from repro.node.host import PublishReceipt, RetrievalReceipt
from repro.obs import Observability
from repro.utils.rng import derive_rng
from repro.utils.stats import percentiles
from repro.workloads.objects import PERF_OBJECT_SIZE


@dataclass(frozen=True)
class PerfConfig:
    rounds: int = 12  # publications per region (paper: ~547)
    seed: int = 7


@dataclass
class PerfResults:
    """All receipts, keyed by the AWS region that performed the op."""

    publications: dict[str, list[PublishReceipt]] = field(default_factory=dict)
    retrievals: dict[str, list[RetrievalReceipt]] = field(default_factory=dict)
    failures: int = 0

    def all_publications(self) -> list[PublishReceipt]:
        return [r for rs in self.publications.values() for r in rs]

    def all_retrievals(self) -> list[RetrievalReceipt]:
        return [r for rs in self.retrievals.values() for r in rs]

    def operation_counts(self) -> dict[str, tuple[int, int]]:
        """region -> (publications, retrievals): the rows of Table 1."""
        return {
            region: (
                len(self.publications.get(region, [])),
                len(self.retrievals.get(region, [])),
            )
            for region in sorted(set(self.publications) | set(self.retrievals))
        }

    def latency_percentiles(self) -> dict[str, dict[str, list[float]]]:
        """region -> {'publication': [p50, p90, p95], 'retrieval': ...}
        — the rows of Table 4."""
        table = {}
        for region in sorted(set(self.publications) | set(self.retrievals)):
            row = {}
            pubs = [r.total_duration for r in self.publications.get(region, [])]
            gets = [r.total_duration for r in self.retrievals.get(region, [])]
            if pubs:
                row["publication"] = percentiles(pubs, [50, 90, 95])
            if gets:
                row["retrieval"] = percentiles(gets, [50, 90, 95])
            table[region] = row
        return table


def run_perf_experiment(
    scenario: Scenario,
    config: PerfConfig,
    obs: Observability | None = None,
) -> PerfResults:
    """Drive the rounds to completion; returns all receipts.

    Every vantage node of ``scenario`` takes its turn publishing, in
    the order the scenario placed them, and the others retrieve.

    Passing an :class:`~repro.obs.Observability` records every phase of
    every operation as sim-time spans (and mirrors the network counters
    into its metrics registry) without changing any receipt: the tracer
    only reads the clock.
    """
    if obs is not None:
        scenario.net.install_observability(obs)
    tracer = scenario.net.tracer
    regions = list(scenario.vantage)
    results = PerfResults(
        publications={region: [] for region in regions},
        retrievals={region: [] for region in regions},
    )
    rng = derive_rng(config.seed, "perf-objects")

    def experiment() -> Generator:
        # Vantage nodes announce their peer records once, up front (the
        # real nodes do this on startup, independent of publications).
        for node in scenario.vantage.values():
            yield from node.publish_peer_record()
        for round_index in range(config.rounds):
            for publisher_region in regions:
                if tracer.enabled:
                    tracer.event(
                        "perf.round",
                        round=round_index,
                        publisher=publisher_region,
                    )
                publisher = scenario.vantage[publisher_region]
                payload = rng.randbytes(PERF_OBJECT_SIZE)
                root = publisher.add_bytes(payload).root
                try:
                    receipt = yield from publisher.publish(root)
                except Exception:  # noqa: BLE001 - count, continue
                    results.failures += 1
                    continue
                results.publications[publisher_region].append(receipt)
                for region in regions:
                    if region == publisher_region:
                        continue
                    getter = scenario.vantage[region]
                    getter.disconnect_all()
                    try:
                        retrieval = yield from getter.retrieve(root)
                    except Exception:  # noqa: BLE001
                        results.failures += 1
                        continue
                    results.retrievals[region].append(retrieval)
                    # Drop the fetched blocks so storage stays bounded
                    # across hundreds of rounds.
                    for cid in list(getter.blockstore.cids()):
                        if not getter.blockstore.is_pinned(cid):
                            getter.blockstore.delete(cid)
                # "they disconnect to prevent the next retrieval
                # operation being resolved through Bitswap"; the
                # publisher is also dropped from address books so the
                # peer-record walk (Fig 9e's second walk) stays part of
                # every retrieval, as in the paper's measurements.
                for node in scenario.vantage.values():
                    node.disconnect_all()
                    for other in scenario.vantage.values():
                        node.address_book.forget(other.peer_id)

    scenario.sim.run_process(experiment())
    if obs is not None:
        obs.metrics.absorb_network_stats(scenario.net.stats)
    return results
