"""Dataset export.

Section 4 of the paper publishes three datasets (peer crawls, gateway
access logs, performance measurements) as CSV-like records on IPFS.
These writers produce the same *shapes* from simulation results so
downstream analysis code written against the paper's datasets can run
on ours:

- peer dataset: one row per (crawl, peer) with dialability and agent;
- gateway dataset: one row per GET request with tier and latency;
- performance dataset: one row per publish/retrieve operation with the
  phase breakdown.
"""

from __future__ import annotations

import csv
import json
import pathlib
from collections.abc import Iterable

from repro.experiments.deployment import CrawlCampaignResults
from repro.experiments.perf import PerfResults
from repro.gateway.logs import AccessLogEntry
from repro.obs import Tracer


def export_crawl_dataset(
    results: CrawlCampaignResults, path: str | pathlib.Path
) -> int:
    """Write the peer dataset; returns the number of rows."""
    path = pathlib.Path(path)
    rows = 0
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["crawl_started_at", "peer_id", "dialable", "agent_version"]
        )
        for crawl in results.crawls:
            for peer_id in sorted(crawl.dialable):
                writer.writerow([
                    f"{crawl.started_at:.0f}", peer_id.encode(), 1,
                    crawl.agent_versions.get(peer_id, ""),
                ])
                rows += 1
            for peer_id in sorted(crawl.undialable):
                writer.writerow([f"{crawl.started_at:.0f}", peer_id.encode(), 0, ""])
                rows += 1
    return rows


def export_session_dataset(
    results: CrawlCampaignResults, path: str | pathlib.Path
) -> int:
    """Write session observations (the Fig 8 input); returns row count."""
    path = pathlib.Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["peer_id", "country", "start", "end", "length_s"])
        for session in results.sessions:
            writer.writerow([
                str(session.peer), session.group,
                f"{session.start:.0f}", f"{session.end:.0f}",
                f"{session.length:.0f}",
            ])
    return len(results.sessions)


def export_gateway_log(
    entries: Iterable[AccessLogEntry], path: str | pathlib.Path
) -> int:
    """Write the gateway access log; returns the number of rows.

    Mirrors the fields of the paper's anonymized nginx log: timestamp,
    anonymized user, geolocated country, object, size, upstream
    latency, cache status, referrer.
    """
    path = pathlib.Path(path)
    rows = 0
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([
            "timestamp", "user", "country", "cid_index", "bytes",
            "latency_s", "cache_tier", "referrer",
        ])
        for entry in entries:
            writer.writerow([
                f"{entry.timestamp:.3f}", entry.user, entry.country,
                entry.cid_index, entry.size, f"{entry.latency:.4f}",
                entry.tier.value, entry.referrer or "",
            ])
            rows += 1
    return rows


def export_trace(tracer: Tracer, path: str | pathlib.Path) -> int:
    """Write a tracer's spans and events as JSON lines; returns rows.

    Records are interleaved in id order (one monotonic sequence covers
    both kinds), so the stream is totally ordered and two identically
    seeded runs export byte-identical files — the golden-trace
    determinism test hashes exactly this output. Open spans (an RPC
    whose reply was lost, a retrieval abandoned at its budget) are kept
    with ``"t1": null``: the unfinished interval *is* the loss.
    """
    path = pathlib.Path(path)
    records = [
        {
            "kind": "span",
            "id": span.span_id,
            "parent": span.parent_id,
            "name": span.name,
            "t0": span.start_time,
            "t1": span.end_time,
            "status": span.status,
            "attrs": span.attrs,
        }
        for span in tracer.spans
    ] + [
        {
            "kind": "event",
            "id": event.event_id,
            "parent": event.parent_id,
            "name": event.name,
            "t": event.time,
            "attrs": event.attrs,
        }
        for event in tracer.events
    ]
    records.sort(key=lambda record: record["id"])
    with path.open("w") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")
    return len(records)


def export_perf_dataset(results: PerfResults, path: str | pathlib.Path) -> int:
    """Write per-operation performance records (JSON lines)."""
    path = pathlib.Path(path)
    rows = 0
    with path.open("w") as handle:
        for region, receipts in results.publications.items():
            for receipt in receipts:
                handle.write(json.dumps({
                    "operation": "publication",
                    "region": region,
                    "cid": str(receipt.cid),
                    "walk_s": receipt.walk_duration,
                    "rpc_batch_s": receipt.rpc_batch_duration,
                    "total_s": receipt.total_duration,
                    "peers_stored": receipt.peers_stored,
                }) + "\n")
                rows += 1
        for region, receipts in results.retrievals.items():
            for receipt in receipts:
                handle.write(json.dumps({
                    "operation": "retrieval",
                    "region": region,
                    "cid": str(receipt.cid),
                    "bitswap_window_s": receipt.bitswap_window,
                    "provider_walk_s": receipt.provider_walk_duration,
                    "peer_walk_s": receipt.peer_walk_duration,
                    "dial_s": receipt.dial_duration,
                    "fetch_s": receipt.fetch_duration,
                    "total_s": receipt.total_duration,
                    "provider": receipt.provider.encode(),
                }) + "\n")
                rows += 1
    return rows
