"""Session extraction from probe timelines.

A session is a maximal run of online observations (a
:class:`~repro.crawler.prober.PeerTimeline` keeps exactly these runs);
its length is measured between the first and last probe that saw the
peer online (the crawler's sampling interval quantizes this, which is
why Figure 8 shows a step shape — our reproduction exhibits the same
artifact).
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping

from repro.crawler.prober import PeerTimeline
from repro.measurement.churn_analysis import SessionObservation
from repro.multiformats.peerid import PeerId


def _online_runs(
    timeline: PeerTimeline, window_end: float
) -> Iterator[tuple[float, float]]:
    """Each online run's first probe time and its end: the run's last
    probe, or ``window_end`` for a run the last probe still saw."""
    final = len(timeline.bounds) // 2 - 1
    for run, (first, last, online) in enumerate(timeline.runs()):
        if online:
            yield first, window_end if run == final else last


def extract_sessions(
    timelines: Mapping[PeerId, PeerTimeline],
    group_of: Mapping[PeerId, str],
    window_end: float,
) -> list[SessionObservation]:
    """Turn probe timelines into session observations.

    Sessions still open at ``window_end`` are truncated there (the
    bias-handling filter in :mod:`repro.measurement.churn_analysis`
    deals with the censoring).
    """
    return [
        SessionObservation(peer_id, group_of.get(peer_id, "??"), start, end)
        for peer_id, timeline in timelines.items()
        for start, end in _online_runs(timeline, window_end)
    ]


def online_intervals(
    timelines: Mapping[PeerId, PeerTimeline], window_end: float
) -> dict[PeerId, list[tuple[float, float]]]:
    """Per-peer online intervals for uptime-fraction analysis (Fig 7a/b)."""
    return {
        peer_id: list(_online_runs(timeline, window_end))
        for peer_id, timeline in timelines.items()
    }
