"""Tests for the report renderers and transport selection helpers."""

import pytest

from repro.experiments.report import (
    render_cdf,
    render_series,
    render_share_table,
    render_table,
)
from repro.simnet.transport import (
    PROFILES,
    Transport,
    dial_timeout,
    handshake_time,
    pick_transport,
)
from repro.utils.rng import derive_rng
from repro.utils.stats import Cdf


class TestRenderTable:
    def test_alignment_and_content(self):
        text = render_table("T", ["col", "value"], [("a", 1), ("bbbb", 22)])
        lines = text.splitlines()
        assert lines[0] == "== T =="
        assert "col" in lines[1] and "value" in lines[1]
        assert lines[-1].startswith("bbbb")

    def test_note_included(self):
        text = render_table("T", ["x"], [], note="a note")
        assert "a note" in text

    def test_empty_rows_ok(self):
        assert "== T ==" in render_table("T", ["x"], [])


class TestRenderCdf:
    def test_grid_and_quantiles(self):
        cdf = Cdf.from_samples(range(1, 101))
        text = render_cdf("C", cdf, grid=[50])
        assert "P(<=50s)= 50.0%" in text
        assert "p50=50" in text

    def test_custom_unit(self):
        cdf = Cdf.from_samples([1.0, 2.0])
        assert "x" in render_cdf("C", cdf, unit="x")


class TestRenderShareTable:
    def test_reference_column(self):
        text = render_share_table("S", {"US": 0.5, "CN": 0.25},
                                  reference={"US": 0.48})
        assert "paper" in text
        assert "48.0 %" in text
        assert text.count("\n") >= 4

    def test_top_limits_rows(self):
        shares = {f"C{i}": 0.01 for i in range(50)}
        text = render_share_table("S", shares, top=3)
        assert text.count("C") <= 5  # header + 3 rows


class TestRenderSeriesAndChecks:
    def test_series_sampling(self):
        series = [(float(i), i) for i in range(10)]
        text = render_series("X", series, every=5)
        assert text.count("t=") == 2


class TestTransportSelection:
    def test_preference_order(self):
        rng = derive_rng(1, "t")
        everything = frozenset(Transport)
        assert pick_transport(everything, everything, rng) == Transport.QUIC
        no_quic = frozenset({Transport.TCP, Transport.WEBSOCKET})
        assert pick_transport(no_quic, no_quic, rng) == Transport.TCP
        ws = frozenset({Transport.WEBSOCKET})
        assert pick_transport(ws, ws, rng) == Transport.WEBSOCKET

    def test_no_overlap(self):
        rng = derive_rng(1, "t")
        assert pick_transport(
            frozenset({Transport.QUIC}), frozenset({Transport.WEBSOCKET}), rng
        ) is None

    def test_paper_timeouts(self):
        assert dial_timeout(Transport.TCP) == 5.0
        assert dial_timeout(Transport.QUIC) == 5.0
        assert dial_timeout(Transport.WEBSOCKET) == 45.0

    def test_handshake_scales_with_rtt(self):
        assert handshake_time(Transport.TCP, 0.1) == pytest.approx(
            PROFILES[Transport.TCP].handshake_round_trips * 0.1
        )
        assert handshake_time(Transport.QUIC, 0.1) < handshake_time(
            Transport.TCP, 0.1
        )
