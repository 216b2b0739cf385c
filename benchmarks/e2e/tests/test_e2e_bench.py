"""Self-tests of the end-to-end benchmark (smoke sizes, under 20 s in all).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e/tests -q``
(``benchmarks/conftest.py`` imports ``repro``, so the path is needed
even though the benchmark itself finds ``src/`` on its own).
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]
sys.path.insert(0, str(E2E))

import compare  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import seams  # noqa: E402
import trace  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def test_our_trace_module_not_the_stdlib_one():
    assert Path(trace.__file__).parent == E2E


# -- determinism and the traced run -------------------------------------


@pytest.fixture(scope="module")
def traced_crawl(tmp_path_factory):
    spans = tmp_path_factory.mktemp("spans") / "crawl.json"
    untraced = run.run_child("crawl", SEED, "smoke", traced=False)
    traced = run.run_child("crawl", SEED, "smoke", traced=True, spans_out=spans)
    return untraced, traced, json.loads(spans.read_text())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_digest_and_traced_equals_untraced(name):
    first = run.run_child(name, SEED, "smoke", traced=False)
    second = run.run_child(name, SEED, "smoke", traced=False)
    traced = run.run_child(name, SEED, "smoke", traced=True)
    assert first["sim_digest"] == second["sim_digest"]
    assert first["counts"] == second["counts"]
    assert traced["sim_digest"] == first["sim_digest"]
    assert traced["counts"] == first["counts"]
    assert all(first["checks"].values())
    assert first["failed"] == 0 and first["ops"] == first["attempted"]


def test_another_seed_gives_another_digest():
    a = run.run_child("replay", 1, "smoke", traced=False)
    b = run.run_child("replay", 2, "smoke", traced=False)
    assert a["sim_digest"] != b["sim_digest"]


def test_span_stack_balanced_and_time_conserved(traced_crawl):
    _, traced, _ = traced_crawl
    report = traced["trace"]
    assert report["open_spans_at_exit"] == 0
    selfs = [row["self_s"] for row in report["layers"].values()]
    assert min(selfs) >= 0.0 and report["unattributed_s"] >= 0.0
    total = sum(selfs) + report["unattributed_s"]
    assert total == pytest.approx(report["window_s"], rel=0.01)


def test_sampled_spans_are_well_formed(traced_crawl):
    _, traced, spans = traced_crawl
    records = spans["spans"]
    assert records and len(records) == traced["trace"]["spans_recorded"]
    for record in records:
        assert record["layer"] in trace.LAYERS
        assert record["op"] % spans["sample_every"] == 0
        assert record["parent"] < record["id"]
        if record["end_s"] is not None:
            assert record["end_s"] >= record["start_s"]


def test_replay_never_enters_the_simulator():
    traced = run.run_child("replay", SEED, "smoke", traced=True)
    layers = traced["trace"]["layers"]
    for layer in ("simnet.sim", "simnet.network", "dht"):
        assert layers[layer]["calls"] == 0


# -- the shims, in isolation ---------------------------------------------


def test_generator_shim_preserves_values_throw_and_exceptions():
    tracer = trace.Tracer()

    def protocol(start):
        try:
            received = yield start
        except KeyError as error:
            received = f"caught {error.args[0]}"
        yield received
        if received == "boom":
            raise ValueError("boom")
        return "done"

    wrapped = tracer.wrap(protocol, "dht", "protocol")
    tracer.start()

    generator = wrapped(1)
    assert next(generator) == 1
    assert generator.send("hello") == "hello"
    with pytest.raises(StopIteration) as stop:
        next(generator)
    assert stop.value.value == "done"

    generator = wrapped(2)
    next(generator)
    assert generator.throw(KeyError("k")) == "caught k"

    generator = wrapped(3)
    next(generator)
    generator.send("boom")
    with pytest.raises(ValueError, match="boom"):
        next(generator)

    # ``yield from`` sees the wrapped generator's return value
    def outer():
        return (yield from wrapped(4))

    driver = outer()
    next(driver)
    driver.send("x")
    with pytest.raises(StopIteration) as stop:
        next(driver)
    assert stop.value.value == "done"

    tracer.stop()
    assert tracer.depth == 0
    assert tracer.report()["layers"]["dht"]["calls"] >= 8


def test_scheduled_callback_inherits_layer_and_spawn_adopts():
    tracer = trace.Tracer(sample_every=1)
    tracer.install()
    try:
        from repro.simnet.sim import Simulator

        sim = Simulator()
        fired = []
        crawl = tracer.wrap(
            lambda: sim.schedule(1.0, lambda: fired.append(sim.now)),
            "crawler", "ask", kind="op",
        )
        tracer.start()
        crawl()

        def helper():
            yield 2.0
            return "ok"

        process = tracer.wrap(
            lambda: sim.spawn(helper()), "bitswap", "spawner", kind="op"
        )()
        sim.run()
        tracer.stop()
    finally:
        tracer.uninstall()
    assert fired == [1.0] and process.future.result() == "ok"
    by_name = [
        (record["name"], record["layer"]) for record in tracer.span_records()
    ]
    assert ("callback", "crawler") in by_name
    assert any(
        name.endswith("helper") and layer == "bitswap" for name, layer in by_name
    )
    assert tracer.depth == 0


def test_shims_are_fully_removed():
    before = {path: seams.lookup(path)[2] for _, path, _ in seams.WRAPS}
    tracer = trace.Tracer()
    tracer.install()
    assert any(
        seams.lookup(path)[2] is not original for path, original in before.items()
    )
    tracer.uninstall()
    for path, original in before.items():
        assert seams.lookup(path)[2] is original, path
    import repro.experiments.scenario as scenario
    import repro.dht.bootstrap as bootstrap

    # a ``from x import f`` binding is restored too
    assert scenario.populate_routing_tables is bootstrap.populate_routing_tables


# -- seams ---------------------------------------------------------------


def test_missing_seam_fails_fast_by_name(monkeypatch):
    monkeypatch.setitem(seams.CALLS, "gone", "repro.utils.rng:no_such_function")
    with pytest.raises(seams.SeamError, match="benchmark seam `.*no_such_function`"):
        seams.resolve()


def test_optional_knob_is_passed_only_while_declared():
    def with_knob(a, workers=1):
        return a

    def without_knob(a):
        return a

    assert seams.optional(with_knob, workers=2) == {"workers": 2}
    assert seams.optional(without_knob, workers=2) == {}


# -- names and BENCHMARK.json --------------------------------------------


def test_metric_names_match_benchmark_json():
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert document["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in document["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in document["workloads"]] == [
        workloads.WHY[name] for name in workloads.WORKLOADS
    ]
    assert document["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END
    ]
    assert document["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in metrics.PER_LAYER
    ]
    names = metrics.END_TO_END_NAMES + metrics.PER_LAYER_NAMES
    assert len(set(names)) == len(names)
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert "setup_s" in metrics.END_TO_END_NAMES


def test_every_printed_metric_is_declared(traced_crawl):
    untraced, _, _ = traced_crawl
    produced = set(untraced["stages"]) | set(untraced["counts"])
    assert produced <= set(metrics.PER_LAYER_NAMES)
    assert set(untraced["end_to_end"]) == set(metrics.END_TO_END_NAMES)


# -- the command line ----------------------------------------------------


def test_contract_line_and_compare(tmp_path, capsys):
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    for out, traced in ((out_a, "0"), (out_b, "1")):
        status = run.main([
            "--smoke", "--workload", "build", "--seed", str(SEED),
            "--seconds", "1", "--trace", traced, "--out", str(out),
        ])
        assert status == 0
        line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        expected = (
            metrics.PER_LAYER_NAMES if traced == "1" else metrics.END_TO_END_NAMES
        )
        assert tuple(line["metrics"]) == expected
        for name, entry in line["metrics"].items():
            assert entry["unit"] == metrics.UNITS[name]
    assert compare.main(out_a, out_b) == 0
    table = capsys.readouterr().out
    assert "sim_digest build: match" in table
    for metric in metrics.END_TO_END_NAMES:
        assert re.search(rf"build\s+{metric}\s", table)
    assert re.search(r"\b(ok|unresolved|regressed)\b", table)


def test_verdicts():
    wall = metrics.END_TO_END[0]
    assert wall.better == "lower"

    def summary(median, half_range=0.01):
        return {
            "median": median,
            "min": median * (1 - half_range),
            "max": median * (1 + half_range),
        }

    base = summary(10.0)
    within = summary(10.0 * (1 + wall.bound / 2))
    beyond = summary(10.0 * (1 + wall.bound + 0.05))
    noisy = summary(10.0, half_range=wall.bound)
    assert compare.verdict(wall, base, within) == "ok"
    assert compare.verdict(wall, base, beyond) == "regressed"
    assert compare.verdict(wall, base, noisy) == "unresolved"
