"""Tests of the benchmark harness itself: python3 -m pytest perfbench"""

import importlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

import phonoam.training
from phonoam.benchmark import HEAD_KINDS, BenchmarkConfig, run_benchmark

from perfbench import run
from perfbench.harness import END_TO_END, run_workload
from perfbench.layers import PER_LAYER, TARGETS, phase_values
from perfbench.spans import Tracer, self_times
from perfbench.workloads import (
    WORKLOADS,
    Workload,
    _check_units,
    _pipeline_keys,
    _train_split,
    pipeline_unit,
    prepare_world,
)

ROOT = Path(__file__).resolve().parent.parent

SMALL = replace(
    BenchmarkConfig(), train_utterances=8, heldout_pool=20, heldout_test=8, max_epochs=2, finetune_epochs=2
)
SMALL_CRF = replace(SMALL, loss="ctc_crf", lm_order=2, max_epochs=1, finetune_epochs=1)


def small_workload(config, head_kinds) -> Workload:
    return Workload(
        "small",
        lambda seed, workdir: prepare_world(config, seed),
        lambda prep: pipeline_unit(prep, head_kinds),
        lambda prep, units, rng: _check_units(units, _pipeline_keys(head_kinds)),
        setup_repeats=2,
    )


def _traced_unit(prep, head_kinds):
    tracer = Tracer(TARGETS)
    with tracer.installed(), tracer.run_as("unit0"):
        unit = pipeline_unit(prep, head_kinds)
    return unit, tracer


def test_self_times_on_hand_built_tree():
    # root [0, 10] has children a [1, 3], b [2, 5] (overlapping a) and
    # c [8, 12] (running past the root); a has one child [1.5, 2.5]
    start = [0.0, 1.0, 2.0, 8.0, 1.5]
    end = [10.0, 3.0, 5.0, 12.0, 2.5]
    parent = [-1, 0, 0, 0, 1]
    assert self_times(start, end, parent) == pytest.approx([10 - 4 - 2, 2 - 1, 3, 4, 1])


def test_tracer_aggregates_calls_times_and_counts():
    prep = prepare_world(SMALL, 1)
    unit, tracer = _traced_unit(prep, ("linear",))
    stats = tracer.stats()["unit0"]
    train = stats["training.train"]
    assert train.calls == 2
    assert train.a == sum(len(r.train_loss) for r in unit.reports)  # epochs
    assert 0 < train.self_s < train.s
    assert stats["encoder.encoder_forward"].a > stats["encoder.encoder_forward"].calls  # frames
    assert "crf.crf_loss" not in stats


def test_traced_run_restores_every_wrapped_attribute(tmp_path):
    def current():
        return [getattr(importlib.import_module(t.module), t.attr) for t in TARGETS]

    before = current()
    result = run_workload(small_workload(SMALL, ("flat",)), 2, 0, True, tmp_path)
    assert result.correct, result.checks
    assert all(a is b for a, b in zip(current(), before))


def test_traced_and_untraced_units_give_identical_records():
    prep = prepare_world(SMALL, 3)
    plain = pipeline_unit(prep, HEAD_KINDS)
    traced, tracer = _traced_unit(prep, HEAD_KINDS)
    assert len(tracer) > 0
    assert traced.records == plain.records


def test_exact_counts_repeat_between_traced_runs():
    prep = prepare_world(SMALL_CRF, 4)
    runs = [_traced_unit(prep, ("nonlinear",))[1].stats()["unit0"] for _ in range(2)]
    values, differed = phase_values(runs)
    assert not differed
    assert values["crf.denominator_forward_backward.cells"] > 0
    assert values["crf.build_denominator_graph.edges"] > 0


def test_ctc_pipeline_records_equal_run_benchmark():
    seed = 5
    prep = prepare_world(BenchmarkConfig(), seed)
    assert pipeline_unit(prep, HEAD_KINDS).records == run_benchmark(BenchmarkConfig(), seed)


def test_crf_pipeline_records_equal_run_benchmark():
    prep = prepare_world(SMALL_CRF, 6)
    records = pipeline_unit(prep, ("nonlinear",)).records
    assert records == run_benchmark(SMALL_CRF, 6, heads=("nonlinear",))


def test_train_split_matches_train_multilingual(monkeypatch):
    seen = []
    monkeypatch.setattr(phonoam.training, "train", lambda model, tr, dev, config: seen.append(tr))
    world = prepare_world(SMALL, 7).world
    phonoam.training.train_multilingual(world.train_corpora, None, phonoam.training.TrainConfig(seed=7))
    assert [id(u) for u in seen[0]] == [id(u) for u in _train_split(world.train_corpora, 7)]


@pytest.mark.parametrize(
    "config, head_kinds, zero",
    [
        (SMALL, HEAD_KINDS, ["crf.denominator_forward_backward.calls", "crf.crf_loss.calls"]),
        (SMALL_CRF, ("nonlinear",), ["ctc.ctc_loss.calls"]),
    ],
)
def test_traced_counts_separate_the_layers(tmp_path, config, head_kinds, zero):
    result = run_workload(small_workload(config, head_kinds), 8, 0, True, tmp_path)
    metrics = {name: value for name, (value, _) in result.metrics.items()}
    assert result.correct, result.checks
    assert all(metrics[m] == 0 for m in zero)
    assert metrics["training.adam_step.calls"] > 0
    assert 0 < metrics["model.model_loss_and_grads.useful_ratio"] < 1


def test_long_eval_traced_run(tmp_path):
    result = run_workload(WORKLOADS["long_eval"], 9, 0, True, tmp_path)
    metrics = {name: value for name, (value, _) in result.metrics.items()}
    assert result.correct, result.checks
    for name in (
        "crf.denominator_forward_backward.calls",
        "ctc.ctc_loss.calls",
        "encoder.encoder_backward.calls",
        "training.adam_step.calls",
    ):
        assert metrics[name] == 0, name
    assert metrics["evaluate.align.cells"] > 0
    assert metrics["checkpoint.save_checkpoint.bytes"] > 0


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS) == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER
