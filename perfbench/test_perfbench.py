"""Tests of the benchmark's own logic; run with python3 -m pytest perfbench."""

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import generate  # noqa: E402
import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

from seqpred import numerics, predictors, universal  # noqa: E402
from seqpred.measures import BernoulliMeasure  # noqa: E402
from seqpred.universal import MixtureMeasure, WeightedClass  # noqa: E402


@pytest.mark.parametrize("workload", generate.WORKLOADS)
def test_generation_is_a_pure_function_of_the_seed(workload):
    first = generate.generate(workload, 7)
    random.seed(12345)
    random.random()
    again = generate.generate(workload, 7)
    assert json.dumps(first, sort_keys=True) == json.dumps(again, sort_keys=True)
    assert generate.generate(workload, 8) != first
    assert json.loads(json.dumps(first)) == first


def test_generated_inputs_build_through_config():
    for workload in generate.WORKLOADS:
        if workload == "grid-scan":
            continue  # builds a GridSpec only; its scans are slow
        built = workloads.build(workload, generate.generate(workload, 3), 1)
        assert built.jobs


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def spend(self, seconds):
        self.now += seconds


def test_self_time_on_a_synthetic_nested_trace():
    clock = Clock()
    tracer = Tracer(clock)
    calls = {}

    def leaf():
        clock.spend(2.0)

    def middle():
        clock.spend(1.0)
        calls["leaf"]()
        clock.spend(3.0)
        calls["leaf"]()

    def outer():
        clock.spend(5.0)
        calls["middle"]()

    calls["leaf"] = tracer.wrap("leaf", leaf)
    calls["middle"] = tracer.wrap("middle", middle)
    tracer.wrap("outer", outer)()

    stats = tracer.stats
    assert (stats["leaf"].calls, stats["leaf"].busy, stats["leaf"].self_time) == (
        2, 4.0, 4.0)
    assert (stats["middle"].busy, stats["middle"].self_time) == (8.0, 4.0)
    assert (stats["outer"].busy, stats["outer"].self_time) == (13.0, 5.0)
    assert tracer.edges == {("outer", "middle"): 1, ("middle", "leaf"): 2}


def test_same_name_nesting_counts_busy_time_once():
    clock = Clock()
    tracer = Tracer(clock)
    inner = tracer.wrap("cursor", lambda: clock.spend(2.0))

    def outer():
        clock.spend(1.0)
        inner()

    tracer.wrap("cursor", outer)()
    stat = tracer.stats["cursor"]
    assert (stat.calls, stat.busy, stat.self_time) == (2, 3.0, 3.0)


def test_a_raising_call_is_counted_and_leaves_the_stack():
    clock = Clock()
    tracer = Tracer(clock)

    def boom():
        clock.spend(1.0)
        raise KeyError("overflow")

    with pytest.raises(KeyError):
        tracer.wrap("boom", boom)()
    tracer.wrap("after", lambda: None)()
    assert tracer.stats["boom"].errors == 1
    assert tracer.stats["boom"].busy == 1.0
    assert tracer.edges == {}


class FakeWorkload(workloads.Workload):
    def __init__(self):
        def raises(exc):
            def job():
                raise exc
            return job

        self.jobs = [
            workloads.Job("ok", lambda: {"ok": 1}, ("ok",)),
            workloads.Job("crash", raises(ValueError("bad")), ("crash",)),
            workloads.Job("pair", raises(ValueError("bad")), ("p1", "p2")),
            workloads.Job(
                "known", raises(KeyError(-1)), ("known",), KeyError,
            ),
            workloads.Job("wrong", lambda: {"wrong": 2}, ("wrong",)),
        ]

    def check(self, item, output, outputs):
        return [] if output == 1 else ["wrong answer"]

    def payload(self, item, output):
        return output


def test_an_item_that_raises_is_counted_as_failed_not_skipped():
    result = workloads.run_pass(FakeWorkload())
    assert result.attempted == 6
    assert result.failed == 5
    by_item = {o.item: o for o in result.outcomes}
    assert by_item["crash"].error == "ValueError"
    assert by_item["p1"].failed and by_item["p2"].failed
    assert by_item["known"].expected and by_item["known"].error == "KeyError"
    assert by_item["wrong"].problems == ("wrong answer",)
    assert {o.item for o in result.unexpected} == {"crash", "p1", "p2", "wrong"}


def test_lattice_reference_matches_the_exact_engine():
    weighted = WeightedClass.with_index_code_weights(
        [BernoulliMeasure(0.3), BernoulliMeasure(0.72), BernoulliMeasure(0.55)]
    )
    mu = weighted.measures()[1]
    exact = predictors.exact_expectations(
        mu, MixtureMeasure(weighted), 9, rho=predictors.LaplaceRulePredictor(),
    )
    totals = reference.bernoulli_class_totals(
        [w for _m, w in weighted.components],
        [m.theta for m in weighted.measures()],
        mu.theta, 9, laplace=True,
    )
    for name, value in exact.to_dict()["totals"].items():
        assert totals[name] == pytest.approx(value, abs=1e-12), name


def test_traced_contexts_count_the_exact_tree_nodes():
    weighted = WeightedClass.uniform([BernoulliMeasure(0.3), BernoulliMeasure(0.6)])
    tracer = Tracer()
    layers.install(tracer)
    try:
        predictors.exact_expectations(
            weighted.measures()[0], MixtureMeasure(weighted), 3,
        )
        values = layers.metrics(tracer, 1.0)
    finally:
        tracer.uninstall()
    assert values["predictors.exact.contexts"]["value"] == 1 + 2 + 4
    assert values["predictors.exact_expectations.calls"]["value"] == 1
    assert set(values) == {name for name, _u, _b in layers.PER_LAYER}


def test_uninstall_restores_every_binding():
    originals = (predictors.exact_expectations, numerics.logsumexp)
    tracer = Tracer()
    layers.install(tracer)
    assert universal.logsumexp is not originals[1]
    assert predictors.exact_expectations is not originals[0]
    tracer.uninstall()
    assert predictors.exact_expectations is originals[0]
    assert universal.logsumexp is originals[1] is numerics.logsumexp


def test_benchmark_json_names_what_the_runner_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(generate.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == (
        run.END_TO_END_UNITS
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(entry) for entry in layers.PER_LAYER
    ]
