"""Adam training with a plateau learning-rate schedule.

The schedule starts at the configured rate (default 1e-3) and divides by 10
whenever the dev loss stops improving by more than MIN_DELTA for PATIENCE
epochs, stopping once the rate drops below LR_FLOOR (1e-5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import Utterance
from .crf import build_denominator_graph
from .ctc import check_feasible, greedy_decode
from .errors import DimensionMismatch, EmptyCorpus, InfeasibleLength, InvalidTrainConfig
from .evaluate import check_covered, edit_distance
from .lm import train_phone_lm
from .model import (
    AcousticModel,
    model_forward,
    model_loss_and_grads,
    model_params,
    params_checksum,
    set_model_params,
)

LR_FACTOR = 0.1
LR_FLOOR = 1e-5
PATIENCE = 2
MIN_DELTA = 1e-4
CLIP_NORM = 5.0  # bound on the global gradient norm of each step
BETA1 = 0.9  # Adam's decay rates for the first and second moments
BETA2 = 0.999
EPS = 1e-8


@dataclass
class TrainConfig:
    loss: str = "ctc"  # or "ctc_crf"
    lr: float = 1e-3
    batch_size: int = 8
    max_epochs: int = 30
    seed: int = 0
    lm_order: int = 1

    def __post_init__(self):
        if not LR_FLOOR < self.lr:
            raise InvalidTrainConfig(f"require lr floor ({LR_FLOOR:g}) < initial lr ({self.lr:g})")


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0


def init_adam(params: dict[str, np.ndarray]) -> AdamState:
    return AdamState(
        m={k: np.zeros_like(p) for k, p in params.items()},
        v={k: np.zeros_like(p) for k, p in params.items()},
    )


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
) -> dict[str, np.ndarray]:
    """Standard bias-corrected Adam update; returns the new parameter dict."""
    state.step += 1
    t = state.step
    out = {}
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise DimensionMismatch(f"{name}: grad {g.shape} vs param {p.shape}")
        state.m[name] = BETA1 * state.m[name] + (1 - BETA1) * g
        state.v[name] = BETA2 * state.v[name] + (1 - BETA2) * g * g
        m_hat = state.m[name] / (1 - BETA1**t)
        v_hat = state.v[name] / (1 - BETA2**t)
        out[name] = p - lr * m_hat / (np.sqrt(v_hat) + EPS)
    return out


@dataclass
class TrainReport:
    train_loss: list[float] = field(default_factory=list)
    dev_loss: list[float] = field(default_factory=list)
    dev_per: list[float] = field(default_factory=list)
    lr: list[float] = field(default_factory=list)
    skipped: int = 0
    final_checksum: str = ""


def _clip_global(grads: dict[str, np.ndarray], max_norm: float) -> dict[str, np.ndarray]:
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if total <= max_norm or total == 0.0:
        return grads
    scale = max_norm / total
    return {k: g * scale for k, g in grads.items()}


def _labels_of(utt: Utterance, index: dict[str, int]) -> list[int]:
    return [index[p] for p in utt.phones]


def _mean_loss(model, utts, index, loss, lm, graph) -> float:
    losses = []
    for utt in utts:
        labels = _labels_of(utt, index)
        try:
            check_feasible(utt.frames.shape[0], labels)
        except InfeasibleLength:
            continue
        nll, _ = model_loss_and_grads(model, utt.frames, labels, loss, lm, graph)
        losses.append(nll)
    return float(np.mean(losses)) if losses else float("nan")


def _dev_per(model, utts, index) -> float:
    errors = 0
    ref_len = 0
    for utt in utts:
        labels = _labels_of(utt, index)
        Z, _ = model_forward(model, utt.frames)
        s, i, d = edit_distance(labels, greedy_decode(Z))
        errors += s + i + d
        ref_len += len(labels)
    return errors / ref_len if ref_len else 0.0


def train(
    model: AcousticModel,
    train_set: list[Utterance],
    dev_set: list[Utterance],
    config: TrainConfig,
) -> TrainReport:
    """Optimize the model in place from a fresh Adam state; returns the per-epoch report.

    With loss "ctc_crf", a label n-gram LM is estimated from the training
    transcripts (order from the config).  InventoryMismatch if a training or
    dev utterance holds a phone the model lacks.
    """
    if not train_set:
        raise EmptyCorpus("no training utterances")
    index = model.unit_index()
    check_covered(index, [*train_set, *dev_set])
    report = TrainReport()

    lm = graph = None
    if config.loss == "ctc_crf":
        lm = train_phone_lm(
            [_labels_of(u, index) for u in train_set],
            order=config.lm_order,
            vocab=range(1, model.n_units),  # denominator graph spans every unit
        )
        graph = build_denominator_graph(model.n_units, lm)

    usable = []
    for utt in train_set:
        try:
            check_feasible(utt.frames.shape[0], _labels_of(utt, index))
            usable.append(utt)
        except InfeasibleLength:
            report.skipped += 1
    if not usable:
        raise EmptyCorpus("every training utterance is infeasible for the loss")

    params = model_params(model)
    adam = init_adam(params)
    rng = np.random.default_rng(config.seed)
    lr = config.lr
    best_dev = float("inf")
    stale = 0

    # dev loss of the untouched initialization, recorded before any update
    dev_eval = dev_set if dev_set else usable
    report.dev_loss.append(_mean_loss(model, dev_eval, index, config.loss, lm, graph))
    report.dev_per.append(_dev_per(model, dev_eval, index))
    report.lr.append(lr)

    for epoch in range(config.max_epochs):
        order = rng.permutation(len(usable))
        epoch_losses = []
        for start in range(0, len(usable), config.batch_size):
            batch = [usable[i] for i in order[start : start + config.batch_size]]
            acc: dict[str, np.ndarray] = {k: np.zeros_like(p) for k, p in params.items()}
            for utt in batch:
                nll, grads = model_loss_and_grads(
                    model, utt.frames, _labels_of(utt, index), config.loss, lm, graph
                )
                epoch_losses.append(nll)
                for k, g in grads.items():
                    acc[k] += g
            acc = {k: g / len(batch) for k, g in acc.items()}
            acc = _clip_global(acc, CLIP_NORM)
            params = adam_step(params, acc, adam, lr)
            set_model_params(model, params)

        report.train_loss.append(float(np.mean(epoch_losses)))
        dev = _mean_loss(model, dev_eval, index, config.loss, lm, graph)
        report.dev_loss.append(dev)
        report.dev_per.append(_dev_per(model, dev_eval, index))
        report.lr.append(lr)

        if dev < best_dev - MIN_DELTA:
            best_dev = dev
            stale = 0
        else:
            stale += 1
            if stale >= PATIENCE:
                lr *= LR_FACTOR
                stale = 0
                if lr < LR_FLOOR:
                    break

    report.final_checksum = params_checksum(model_params(model))
    return report


def train_multilingual(
    corpora: dict[str, list[Utterance]],
    model: AcousticModel,
    config: TrainConfig,
    dev_fraction: float = 0.2,
) -> TrainReport:
    """Merge per-language corpora, split off a dev set, and train."""
    merged: list[Utterance] = [u for utts in corpora.values() for u in utts]
    if not merged:
        raise EmptyCorpus("no utterances in any language")
    rng = np.random.default_rng(config.seed)
    order = rng.permutation(len(merged))
    n_dev = max(1, int(len(merged) * dev_fraction))
    dev = [merged[i] for i in order[:n_dev]]
    tr = [merged[i] for i in order[n_dev:]]
    return train(model, tr, dev, config)


def finetune(
    model: AcousticModel,
    target_set: list[Utterance],
    config: TrainConfig,
) -> TrainReport:
    """Continue optimization on target-language data only, from a fresh Adam state.

    The model is expected to already carry the extended inventory (via
    `extend_model`); the dev loss is measured on the training utterances.
    """
    return train(model, target_set, [], config)
