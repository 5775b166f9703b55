"""The layer map: which functions the traced run wraps, and the per-layer
metrics it derives from their spans.

Each target names the module attribute that the caller looks up, so the
wrapper sees the call; a function looked up under several names gets one
target per name and one span name.
"""

from __future__ import annotations

import os
import statistics

from perfbench.spans import LayerStat, Target

# ------------------------------------------------------------ counters


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _frames(args, kwargs, result):  # encoder_forward -> (H_seq, cache)
    return result[0].shape[0], 0


def _ctc_cells(args, kwargs, result):  # T * (2L + 1) lattice cells
    T = _arg(args, kwargs, 0, "Z").shape[0]
    return T * (2 * len(_arg(args, kwargs, 1, "labels")) + 1), 0


def _den_cells(args, kwargs, result):  # T * states
    graph, logy = _arg(args, kwargs, 0, "graph"), _arg(args, kwargs, 1, "logy")
    return logy.shape[0] * len(graph.states), 0


def _graph_size(args, kwargs, result):  # (states, edges)
    # edges read 0 once the graph no longer keeps per-state edge lists
    return len(result.states), sum(len(src) for src, _ in getattr(result, "incoming", ()))


def _epochs(args, kwargs, result):
    return len(result.train_loss), 0


def _utts_in(args, kwargs, result):
    return len(_arg(args, kwargs, 1, "utterances")), 0


def _utts_out(args, kwargs, result):
    return len(result), 0


def _align_cells(args, kwargs, result):  # Levenshtein table, len(ref) * len(hyp)
    return len(_arg(args, kwargs, 0, "ref")) * len(_arg(args, kwargs, 1, "hyp")), 0


def _file_bytes(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 1, "path")), 0


TARGETS = [
    Target("phonoam.benchmark", "build_world", "benchmark.build_world"),
    Target("phonoam.benchmark", "generate_language", "corpus.generate_language"),
    Target("phonoam.corpus", "generate_language", "corpus.generate_language"),
    Target("phonoam.features", "encode_inventory", "features.encode_inventory"),
    Target("phonoam.model", "encoder_forward", "encoder.encoder_forward", _frames),
    Target("phonoam.model", "encoder_backward", "encoder.encoder_backward"),
    Target("phonoam.model", "compute_embeddings", "heads.compute_embeddings"),
    Target("phonoam.model", "head_backward", "heads.head_backward"),
    Target("phonoam.ctc", "ctc_loss", "ctc.ctc_loss", _ctc_cells),
    Target("phonoam.evaluate", "greedy_decode", "ctc.greedy_decode"),
    Target("phonoam.training", "greedy_decode", "ctc.greedy_decode"),
    Target("phonoam.crf", "ctc_label_counts", "ctc.ctc_label_counts"),
    Target("phonoam.crf", "crf_loss", "crf.crf_loss"),
    Target("phonoam.crf", "denominator_forward_backward", "crf.denominator_forward_backward", _den_cells),
    Target("phonoam.crf", "build_denominator_graph", "crf.build_denominator_graph", _graph_size),
    Target("phonoam.training", "build_denominator_graph", "crf.build_denominator_graph", _graph_size),
    Target("phonoam.training", "train_phone_lm", "lm.train_phone_lm"),
    Target("phonoam.model", "model_forward", "model.model_forward"),
    Target("phonoam.training", "model_forward", "model.model_forward"),
    Target("phonoam.evaluate", "model_forward", "model.model_forward"),
    Target("phonoam.training", "model_loss_and_grads", "model.model_loss_and_grads"),
    Target("phonoam.model", "extend_model", "model.extend_model"),
    Target("phonoam.training", "train", "training.train", _epochs),
    Target("phonoam.training", "adam_step", "training.adam_step"),
    Target("phonoam.evaluate", "evaluate", "evaluate.evaluate", _utts_in),
    Target("phonoam.evaluate", "align", "evaluate.align", _align_cells),
    Target("phonoam.checkpoint", "save_checkpoint", "checkpoint.save_checkpoint", _file_bytes),
    Target("phonoam.checkpoint", "load_checkpoint", "checkpoint.load_checkpoint"),
    Target("phonoam.corpus", "save_corpus", "corpus.save_corpus", _file_bytes),
    Target("phonoam.corpus", "load_corpus", "corpus.load_corpus", _utts_out),
]

# Spans that belong to set-up: their metrics come from the traced set-ups,
# every other metric from the traced measured units only.
SETUP_SPANS = {
    "benchmark.build_world",
    "corpus.generate_language",
    "features.encode_inventory",
    "checkpoint.save_checkpoint",
    "corpus.save_corpus",
}

# metric name -> (unit, better); "<span>.<field>" where field is one of
# calls, s, self_s, or the span's counts (a, b) under the names below
COUNT_FIELDS = {
    "frames": "a", "cells": "a", "states": "a", "edges": "b",
    "epochs": "a", "utts": "a", "bytes": "a",
}
PER_LAYER = {
    "benchmark.build_world.s": ("s", "lower"),
    "corpus.generate_language.calls": ("count", "lower"),
    "corpus.generate_language.s": ("s", "lower"),
    "features.encode_inventory.s": ("s", "lower"),
    "encoder.encoder_forward.calls": ("count", "lower"),
    "encoder.encoder_forward.frames": ("count", "lower"),
    "encoder.encoder_forward.self_s": ("s", "lower"),
    "encoder.encoder_backward.calls": ("count", "lower"),
    "encoder.encoder_backward.self_s": ("s", "lower"),
    "heads.compute_embeddings.calls": ("count", "lower"),
    "heads.compute_embeddings.self_s": ("s", "lower"),
    "heads.compute_embeddings.calls_per_update": ("ratio", "lower"),
    "heads.head_backward.calls": ("count", "lower"),
    "heads.head_backward.self_s": ("s", "lower"),
    "ctc.ctc_loss.calls": ("count", "lower"),
    "ctc.ctc_loss.cells": ("count", "lower"),
    "ctc.ctc_loss.self_s": ("s", "lower"),
    "ctc.greedy_decode.calls": ("count", "lower"),
    "ctc.greedy_decode.self_s": ("s", "lower"),
    "ctc.ctc_label_counts.calls": ("count", "lower"),
    "ctc.ctc_label_counts.self_s": ("s", "lower"),
    "crf.crf_loss.calls": ("count", "lower"),
    "crf.crf_loss.self_s": ("s", "lower"),
    "crf.denominator_forward_backward.calls": ("count", "lower"),
    "crf.denominator_forward_backward.cells": ("count", "lower"),
    "crf.denominator_forward_backward.self_s": ("s", "lower"),
    "crf.build_denominator_graph.calls": ("count", "lower"),
    "crf.build_denominator_graph.states": ("count", "lower"),
    "crf.build_denominator_graph.edges": ("count", "lower"),
    "crf.build_denominator_graph.s": ("s", "lower"),
    "lm.train_phone_lm.calls": ("count", "lower"),
    "lm.train_phone_lm.s": ("s", "lower"),
    "model.model_forward.calls": ("count", "lower"),
    "model.model_forward.self_s": ("s", "lower"),
    "model.model_loss_and_grads.calls": ("count", "lower"),
    "model.model_loss_and_grads.self_s": ("s", "lower"),
    "model.model_loss_and_grads.useful_ratio": ("ratio", "higher"),
    "model.extend_model.s": ("s", "lower"),
    "training.train.calls": ("count", "lower"),
    "training.train.epochs": ("count", "lower"),
    "training.train.self_s": ("s", "lower"),
    "training.adam_step.calls": ("count", "lower"),
    "training.adam_step.self_s": ("s", "lower"),
    "evaluate.evaluate.calls": ("count", "lower"),
    "evaluate.evaluate.utts": ("count", "lower"),
    "evaluate.evaluate.self_s": ("s", "lower"),
    "evaluate.align.calls": ("count", "lower"),
    "evaluate.align.cells": ("count", "lower"),
    "evaluate.align.self_s": ("s", "lower"),
    "checkpoint.load_checkpoint.s": ("s", "lower"),
    "checkpoint.save_checkpoint.s": ("s", "lower"),
    "checkpoint.save_checkpoint.bytes": ("B", "lower"),
    "corpus.load_corpus.s": ("s", "lower"),
    "corpus.load_corpus.utts": ("count", "lower"),
    "corpus.save_corpus.s": ("s", "lower"),
    "corpus.save_corpus.bytes": ("B", "lower"),
    "trace.overhead_s": ("s", "lower"),
}
EXACT_FIELDS = {"calls", *COUNT_FIELDS}


def _field(stat: LayerStat | None, field: str) -> float:
    if stat is None:
        return 0
    return getattr(stat, COUNT_FIELDS.get(field, field))


def phase_values(runs: list[dict[str, LayerStat]]) -> tuple[dict[str, float], list[str]]:
    """Metric values over several traced runs of the same work.

    Exact fields must agree in every run (their values are returned as is);
    times are the median over runs.  Returns (values, metrics that differed).
    """
    values, differed = {}, []
    for metric in PER_LAYER:
        span, _, field = metric.rpartition(".")
        if field not in EXACT_FIELDS | {"s", "self_s"}:
            continue
        per_run = [_field(stats.get(span), field) for stats in runs]
        if field in EXACT_FIELDS:
            if len(set(per_run)) > 1:
                differed.append(metric)
            values[metric] = per_run[0]
        else:
            values[metric] = statistics.median(per_run)
    return values, differed


def per_layer_metrics(
    setup_runs: list[dict[str, LayerStat]],
    unit_runs: list[dict[str, LayerStat]],
    step_utts: int,
    overhead_s: float,
) -> tuple[dict[str, float], list[str]]:
    """All PER_LAYER metrics for one traced workload run, plus the exact
    counts that differed between runs of the same work."""
    setup_values, setup_differed = phase_values(setup_runs)
    unit_values, unit_differed = phase_values(unit_runs)
    values = {
        m: (setup_values if m.rpartition(".")[0] in SETUP_SPANS else unit_values)[m]
        for m in unit_values
    }
    differed = [m for m in setup_differed if m.rpartition(".")[0] in SETUP_SPANS]
    differed += [m for m in unit_differed if m.rpartition(".")[0] not in SETUP_SPANS]

    updates = values["training.adam_step.calls"]
    passes = values["model.model_loss_and_grads.calls"]
    values["heads.compute_embeddings.calls_per_update"] = (
        values["heads.compute_embeddings.calls"] / updates if updates else 0.0
    )
    values["model.model_loss_and_grads.useful_ratio"] = step_utts / passes if passes else 0.0
    values["trace.overhead_s"] = overhead_s
    return {m: values[m] for m in PER_LAYER}, differed
