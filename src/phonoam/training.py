"""Adam training with a plateau learning-rate schedule.

The schedule starts at the configured rate (default 1e-3) and divides by 10
whenever the dev loss stops improving by more than MIN_DELTA for PATIENCE
epochs, stopping once the rate drops below LR_FLOOR (1e-5).  An epoch whose
dev loss is NaN (every dev utterance infeasible) leaves the schedule as is.

Each optimizer step is one `batch_loss_and_grads` call, which runs the whole
batch as one stacked pass: one forward, one loss-kernel call and one
backward, under the denominator graph `train` builds (None for CTC).  A
batch whose loss or gradient norm before clipping is not finite takes no
step: its utterances count as skipped, and neither Adam's state nor the
epoch's train loss sees it.  Each epoch's dev pass forwards the dev
utterances `batch_size` at a time, one stacked forward per chunk, so each
utterance once: it decodes each greedily and scores the loss of the feasible
ones with the forward recursion alone, so it runs no backward pass, then
scores the pass's PER with one `evaluate.charge` call over all its decodes.

The embeddings and the nonlinear head's hidden layer depend only on the
parameters, so `train` computes them once per optimizer step and once per dev
pass; every utterance of a batch or a pass shares them, in its forward and its
backward pass.  Likewise each utterance's frame width, and its phones mapped to
labels, are checked once per `train` call, not per epoch.

Adam writes each step into the model's own arrays, which no other model
shares (`extend_model` copies them), so `train` takes them once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import Utterance
from .crf import build_denominator_graph
from .ctc import check_labels, greedy_decode
from .errors import DimensionMismatch, EmptyCorpus, InfeasibleLength, InvalidTrainConfig
from .evaluate import charge, check_covered
from .lm import train_phone_lm
from .model import (
    AcousticModel,
    batch_loss,
    batch_loss_and_grads,
    embeddings,
    model_forward,
    model_loss_and_grads,
    model_params,
    params_checksum,
)

# perfbench/layers.py looks up `model_loss_and_grads` on this module to trace
# it, though `train` no longer calls it; the name stays here until the harness
# drops that target.
_HARNESS_TRACED = (model_loss_and_grads,)

LR_FACTOR = 0.1
LR_FLOOR = 1e-5
PATIENCE = 2
MIN_DELTA = 1e-4
CLIP_NORM = 5.0  # bound on the global gradient norm of each step
BETA1 = 0.9  # Adam's decay rates for the first and second moments
BETA2 = 0.999
EPS = 1e-8
DEV_FRACTION = 0.2  # share of the merged corpora that `train_multilingual` holds out as dev set


@dataclass
class TrainConfig:
    loss: str = "ctc"  # or "ctc_crf"
    lr: float = 1e-3
    batch_size: int = 8
    max_epochs: int = 30
    seed: int = 0
    lm_order: int = 1

    def __post_init__(self):
        if not LR_FLOOR < self.lr < math.inf:
            raise InvalidTrainConfig(f"require a finite lr above the floor {LR_FLOOR:g}, got {self.lr:g}")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise InvalidTrainConfig(
                f"require batch_size >= 1 and max_epochs >= 1, got {self.batch_size} and {self.max_epochs}"
            )
        if self.loss not in ("ctc", "ctc_crf"):
            raise InvalidTrainConfig(f"loss must be 'ctc' or 'ctc_crf', got {self.loss!r}")
        if self.lm_order not in (1, 2):
            raise InvalidTrainConfig(f"lm_order must be 1 or 2, got {self.lm_order!r}")


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
) -> None:
    """Standard bias-corrected Adam update of the parameter arrays, in place.

    Moments and parameters are updated in place, in the operation order of
    m = BETA1 m + (1 - BETA1) g, v = BETA2 v + (1 - BETA2) g g and
    p = p - lr m_hat / (sqrt(v_hat) + EPS), so their bits are the formula's.
    """
    state.step += 1
    t = state.step
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise DimensionMismatch(f"{name}: grad {g.shape} vs param {p.shape}")
        m, v = state.m[name], state.v[name]
        step = np.multiply(1 - BETA1, g)
        m *= BETA1
        m += step
        np.multiply(1 - BETA2, g, out=step)
        step *= g
        v *= BETA2
        v += step
        np.divide(m, 1 - BETA1**t, out=step)  # m_hat
        step *= lr
        denom = np.divide(v, 1 - BETA2**t)  # v_hat
        np.sqrt(denom, out=denom)
        denom += EPS
        step /= denom
        p -= step


@dataclass
class TrainReport:
    train_loss: list[float] = field(default_factory=list)
    dev_loss: list[float] = field(default_factory=list)
    dev_per: list[float] = field(default_factory=list)
    lr: list[float] = field(default_factory=list)
    skipped: int = 0  # infeasible utterances, plus those of each batch with a non-finite loss or gradient
    final_checksum: str = ""


def _labelled(utts, index: dict[str, int], n_units: int) -> list[tuple[Utterance, list[int] | None]]:
    """(utterance, labels) for each utterance, labels None where `check_labels` refuses them."""
    pairs = []
    for utt in utts:
        labels = [index[p] for p in utt.phones]
        try:
            check_labels(labels, utt.frames.shape[0], n_units)
        except InfeasibleLength:
            labels = None
        pairs.append((utt, labels))
    return pairs


def _dev_pass(model, dev, batch_size: int, graph) -> tuple[float, float]:
    """(mean loss of the feasible utterances, PER of all of them), forwarding
    each (utterance, labels or None) pair once, batch_size at a time."""
    emb = embeddings(model)
    hyps, losses = [], []
    for start in range(0, len(dev), batch_size):
        chunk = dev[start : start + batch_size]
        lengths = [len(utt.frames) for utt, _ in chunk]
        # the forward cache is dropped at once: the loss below needs no backward pass
        Z = model_forward(model, np.concatenate([utt.frames for utt, _ in chunk]), emb, lengths)[0]
        ends = np.cumsum(lengths).tolist()
        hyps.extend([model.units[k] for k in greedy_decode(Z[end - T : end])] for end, T in zip(ends, lengths))
        feasible = [labels is not None for _, labels in chunk]
        if any(feasible):
            nll, _ = batch_loss(
                Z[np.repeat(feasible, lengths)],
                [T for T, ok in zip(lengths, feasible) if ok],
                [labels for _, labels in chunk if labels is not None],
                graph,
                backward=False,
            )
            losses.extend(nll)
    per = charge([utt.phones for utt, _ in dev], hyps).per
    return (float(np.mean(losses)) if losses else float("nan")), per


def train(
    model: AcousticModel,
    train_set: list[Utterance],
    dev_set: list[Utterance],
    config: TrainConfig,
) -> TrainReport:
    """Optimize the model in place from a fresh Adam state; returns the per-epoch report.

    With loss "ctc_crf", a label n-gram LM is estimated from the training
    transcripts (order from the config) and composed, once, into the
    denominator graph that every step scores under.  InventoryMismatch if a
    training or dev utterance holds a phone the model lacks,
    DimensionMismatch if one's frames are not as wide as the encoder's input.
    """
    if not train_set:
        raise EmptyCorpus("no training utterances")
    index = model.unit_index()
    check_covered(index, [*train_set, *dev_set])
    width = model.encoder_config.input_dim
    for utt in [*train_set, *dev_set]:
        if utt.frames.shape[1:] != (width,):
            raise DimensionMismatch(f"frames must be T x {width}, got {utt.frames.shape} ({utt.language_id})")
    report = TrainReport()

    graph = None
    if config.loss == "ctc_crf":
        # every transcript counts, feasible or not: an empty one is a stop at the start
        lm = train_phone_lm(
            [[index[p] for p in u.phones] for u in train_set],
            order=config.lm_order,
            vocab=range(1, model.n_units),  # denominator graph spans every unit
        )
        graph = build_denominator_graph(model.n_units, lm)

    usable = [pair for pair in _labelled(train_set, index, model.n_units) if pair[1] is not None]
    report.skipped = len(train_set) - len(usable)
    if not usable:
        raise EmptyCorpus("every training utterance is infeasible for the loss")

    params = model_params(model)
    adam = init_adam(params)
    rng = np.random.default_rng(config.seed)
    lr = config.lr
    best_dev = float("inf")
    stale = 0

    # dev loss and PER of the untouched initialization, recorded before any update
    dev = _labelled(dev_set, index, model.n_units) if dev_set else usable
    dev_loss, dev_per = _dev_pass(model, dev, config.batch_size, graph)
    report.dev_loss.append(dev_loss)
    report.dev_per.append(dev_per)
    report.lr.append(lr)

    for epoch in range(config.max_epochs):
        order = rng.permutation(len(usable))
        epoch_losses = []
        for start in range(0, len(usable), config.batch_size):
            batch = [usable[i] for i in order[start : start + config.batch_size]]
            nll, acc = batch_loss_and_grads(model, [(utt.frames, labels) for utt, labels in batch], graph)
            acc = {k: g / len(batch) for k, g in acc.items()}
            norm = math.sqrt(sum(float((g * g).sum()) for g in acc.values()))
            if not (math.isfinite(norm) and np.isfinite(nll).all()):
                report.skipped += len(batch)  # Adam never sees the batch
                continue
            if norm > CLIP_NORM:
                acc = {k: g * (CLIP_NORM / norm) for k, g in acc.items()}
            epoch_losses.extend(nll)
            adam_step(params, acc, adam, lr)

        report.train_loss.append(float(np.mean(epoch_losses)) if epoch_losses else float("nan"))
        dev_loss, dev_per = _dev_pass(model, dev, config.batch_size, graph)
        report.dev_loss.append(dev_loss)
        report.dev_per.append(dev_per)
        report.lr.append(lr)

        if math.isnan(dev_loss):
            continue  # no dev utterance is feasible: nothing to judge a plateau by
        if dev_loss < best_dev - MIN_DELTA:
            best_dev = dev_loss
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
) -> TrainReport:
    """Merge per-language corpora, split off a dev set, and train."""
    merged: list[Utterance] = [u for utts in corpora.values() for u in utts]
    if not merged:
        raise EmptyCorpus("no utterances in any language")
    rng = np.random.default_rng(config.seed)
    order = rng.permutation(len(merged))
    n_dev = max(1, int(len(merged) * DEV_FRACTION))
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
