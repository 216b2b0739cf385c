"""Tests for the CLI and dataset exporters."""

import csv
import hashlib
import json

import pytest

from repro.experiments.deployment import CrawlCampaignConfig, run_crawl_timeseries
from repro.experiments.datasets import gateway_dataset
from repro.experiments.perf import PerfConfig, run_perf_experiment
from repro.experiments.scenario import ScenarioConfig, build_scenario
from repro.gateway.replay import access_log
from repro.tools import export
from repro.tools.cli import main
from repro.utils.rng import derive_rng
from repro.workloads.population import PopulationConfig, generate_population


@pytest.fixture(scope="module")
def perf_results():
    population = generate_population(
        PopulationConfig(n_peers=200), derive_rng(30, "cli-pop")
    )
    scenario = build_scenario(
        population, ScenarioConfig(seed=30),
        vantage_regions=["eu_central_1", "us_west_1"],
    )
    return run_perf_experiment(
        scenario,
        PerfConfig(rounds=1, seed=30),
    )


@pytest.fixture(scope="module")
def campaign_results():
    population = generate_population(
        PopulationConfig(n_peers=80), derive_rng(31, "cli-pop")
    )
    scenario = build_scenario(population, ScenarioConfig(seed=31))
    return run_crawl_timeseries(
        scenario.world, CrawlCampaignConfig(duration_s=3600.0, crawl_interval_s=1800.0)
    )


class TestExporters:
    def test_perf_jsonl(self, perf_results, tmp_path):
        path = tmp_path / "perf.jsonl"
        rows = export.export_perf_dataset(perf_results, path)
        lines = path.read_text().splitlines()
        assert len(lines) == rows > 0
        record = json.loads(lines[0])
        assert record["operation"] in ("publication", "retrieval")
        assert record["total_s"] > 0

    def test_crawl_csv(self, campaign_results, tmp_path):
        path = tmp_path / "crawl.csv"
        rows = export.export_crawl_dataset(campaign_results, path)
        with path.open() as handle:
            parsed = list(csv.DictReader(handle))
        assert len(parsed) == rows > 0
        assert parsed[0]["dialable"] in ("0", "1")

    def test_session_csv(self, campaign_results, tmp_path):
        path = tmp_path / "sessions.csv"
        rows = export.export_session_dataset(campaign_results, path)
        with path.open() as handle:
            parsed = list(csv.DictReader(handle))
        assert len(parsed) == rows
        for row in parsed[:5]:
            assert float(row["length_s"]) >= 0

    def test_gateway_csv(self, tmp_path):
        trace, result = gateway_dataset(2000, seed=99)
        path = tmp_path / "gateway.csv"
        rows = export.export_gateway_log(access_log(trace, result.config), path)
        with path.open() as handle:
            parsed = list(csv.DictReader(handle))
        assert len(parsed) == rows == len(trace)
        assert {row["cache_tier"] for row in parsed} <= {
            "nginx cache", "IPFS node store", "Non Cached",
        }


class TestCli:
    def test_deployment_command(self, capsys):
        assert main(["deployment", "--peers", "2000"]) == 0
        output = capsys.readouterr().out
        assert "Fig 5" in output
        assert "Table 2" in output
        assert "CHINANET" in output

    def test_gateway_command_with_export(self, capsys, tmp_path):
        log = tmp_path / "log.csv"
        assert main(["gateway", "--scale", "2000", "--export", str(log)]) == 0
        output = capsys.readouterr().out
        assert "Table 5" in output
        assert log.exists()

    def test_perf_command(self, capsys, tmp_path):
        records = tmp_path / "ops.jsonl"
        assert main([
            "perf", "--peers", "200", "--rounds", "1",
            "--export", str(records),
        ]) == 0
        output = capsys.readouterr().out
        assert "Table 4" in output
        assert records.exists()

    def test_crawl_command(self, capsys, tmp_path):
        out = tmp_path / "crawl.csv"
        assert main([
            "crawl", "--peers", "60", "--hours", "1",
            "--export", str(out),
        ]) == 0
        output = capsys.readouterr().out
        assert "Fig 4a" in output
        assert out.exists()

    def test_trace_command(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert main([
            "trace", "--peers", "150", "--rounds", "1",
            "--export", str(trace),
        ]) == 0
        output = capsys.readouterr().out
        assert "Publication phases" in output
        assert "Retrieval phases" in output
        assert "DHT walk share" in output
        lines = trace.read_text().splitlines()
        assert len(lines) > 0
        kinds = {json.loads(line)["kind"] for line in lines}
        assert kinds == {"span", "event"}

    def test_perf_trace_flag_writes_trace(self, capsys, tmp_path):
        trace = tmp_path / "perf-trace.jsonl"
        assert main([
            "perf", "--peers", "150", "--rounds", "1",
            "--trace", str(trace),
        ]) == 0
        assert "trace records" in capsys.readouterr().out
        names = {
            json.loads(line)["name"]
            for line in trace.read_text().splitlines()
        }
        # the span taxonomy's load-bearing names all appear
        assert {"node.publish", "node.retrieve", "dht.walk", "dht.walk.hop",
                "dht.store_batch", "simnet.dial", "simnet.rpc",
                "retrieve.fetch", "perf.round"} <= names

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["nonsense"])


#: sha256 of the stdout of ``perf --peers 150 --rounds 1 --resilient``,
#: frozen before the resilient rung became one node-config field. Not
#: to be edited to make a refactor pass.
RESILIENT_PERF_SHA256 = (
    "52065d2852e9c0b8a978f8ffb1dcaf85999074283620bc1b608c12a1cb0df0ee"
)


class TestResilienceCli:
    def test_perf_command_accepts_resilience_flags(self, capsys):
        assert main([
            "perf", "--peers", "150", "--rounds", "1", "--resilient",
        ]) == 0
        out = capsys.readouterr().out
        assert "Table 4" in out
        assert hashlib.sha256(out.encode()).hexdigest() == RESILIENT_PERF_SHA256
