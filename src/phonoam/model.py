"""The full acoustic model: encoder -> embedding head -> logits -> loss.

Parameters live in a flat name -> array dict with "enc." and "head."
prefixes, which keeps the optimizer, checksumming and checkpoints generic.
`model_shapes` lists their shapes: `build_model` draws from it and a
checkpoint is checked against it.

The embeddings E, and the head's cache that its backward pass reads (the
nonlinear head's hidden layer), depend only on the head's parameters.  So a
caller that runs many utterances between parameter updates computes them once
with `embeddings(model)` and passes that (E, head cache) pair to
`model_forward`, which computes it itself when it is not given.

`batch_loss_and_grads` is the training step, one stacked pass per batch: one
encoder forward over the batch's stacked frames (each utterance spliced
within its own frames), one logits product, one `batch_loss` call (one
`log_posteriors` and one call of the CTC lattice kernel, plus one of the
CTC-CRF denominator kernel under that loss), one encoder backward and one head
backward, so the gradients are summed over the batch inside the matmuls.
`model_loss_and_grads` is the batch of one.
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass

import numpy as np

from . import ctc as ctc_mod
from . import crf as crf_mod
from .crf import DenominatorGraph
from .ctc import check_labels
from .encoder import EncoderConfig, encoder_backward, encoder_forward, encoder_shapes
from .errors import DimensionMismatch, ModeHeadMismatch
from .features import VECTOR_BITS
from .heads import (
    HEAD_KINDS,
    HEAD_TYPES,
    FlatHead,
    Head,
    compute_embeddings,
    head_backward,
    head_kind,
    head_params,
    head_shapes,
    logits,
)
from .lm import PhoneLM


@dataclass
class AcousticModel:
    encoder_config: EncoderConfig
    encoder_params: dict[str, np.ndarray]
    head: Head
    P: np.ndarray  # N x 51 phonological-vectors, row order = units
    units: tuple[str, ...]

    @property
    def n_units(self) -> int:
        return len(self.units)

    def unit_index(self) -> dict[str, int]:
        return {u: i for i, u in enumerate(self.units)}


def model_shapes(n_units: int, encoder_config: EncoderConfig, head: str, hidden: int) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter of the model so described, encoder first."""
    shapes = {f"enc.{k}": s for k, s in encoder_shapes(encoder_config).items()}
    head_table = head_shapes(head, n_units, encoder_config.output_dim, hidden)
    return shapes | {f"head.{k}": s for k, s in head_table.items()}


def glorot_params(shapes: dict[str, tuple[int, ...]], rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Glorot-uniform matrices and zero vectors of these shapes, drawn in their order."""
    params = {}
    for name, shape in shapes.items():
        limit = np.sqrt(6.0 / sum(shape))
        params[name] = rng.uniform(-limit, limit, size=shape) if len(shape) == 2 else np.zeros(shape)
    return params


def assemble_model(units: tuple[str, ...], P: np.ndarray, encoder_config: EncoderConfig, head: str,
                   params: dict[str, np.ndarray]) -> AcousticModel:
    """The model holding these parameters, named as `model_shapes` names them."""
    enc = {k.removeprefix("enc."): v for k, v in params.items() if k.startswith("enc.")}
    head_arrays = {k.removeprefix("head."): v for k, v in params.items() if k.startswith("head.")}
    return AcousticModel(encoder_config, enc, HEAD_TYPES[head](**head_arrays), P, tuple(units))


def build_model(
    units: tuple[str, ...],
    P: np.ndarray,
    encoder_config: EncoderConfig,
    head: str = "nonlinear",
    seed: int = 0,
    head_hidden: int = 512,
) -> AcousticModel:
    if head_hidden < 1:
        raise DimensionMismatch(f"head_hidden must be >= 1, got {head_hidden}")
    if head not in HEAD_KINDS:
        raise ValueError(f"unknown head kind {head!r}")
    params = glorot_params(model_shapes(len(units), encoder_config, head, head_hidden), np.random.default_rng(seed))
    return assemble_model(units, P, encoder_config, head, params)


def model_params(model: AcousticModel) -> dict[str, np.ndarray]:
    out = {f"enc.{k}": v for k, v in model.encoder_params.items()}
    out.update({f"head.{k}": v for k, v in head_params(model.head).items()})
    return out


def set_model_params(model: AcousticModel, params: dict[str, np.ndarray]) -> None:
    for name, value in params.items():
        group, key = name.split(".", 1)
        if group == "enc":
            model.encoder_params[key] = value
        else:
            setattr(model.head, key, value)


def params_checksum(params: dict[str, np.ndarray]) -> str:
    digest = hashlib.sha256()
    for name in sorted(params):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(params[name]).tobytes())
    return digest.hexdigest()


def extend_model(
    model: AcousticModel,
    new_units: tuple[str, ...],
    new_P: np.ndarray,
    mode: str = "phonology",
    seed: int | None = None,
) -> AcousticModel:
    """New model covering M extra units, sharing no array with the model.

    new_P holds the M x 51 phonological-vectors of the new units.  Modes:

    phonology    -- phonology-driven heads only: the new embeddings follow from
                    new_P through the unchanged head.
    random       -- FlatHead only: seeded Gaussian rows (mean 0, std 0.01).
    mean_of_seen -- FlatHead only: every new row is the mean of existing rows.

    Flat rows then train as ordinary parameters during finetuning.
    """
    if new_P.ndim != 2 or new_P.shape[1] != VECTOR_BITS:
        raise DimensionMismatch(f"new_P must be M x {VECTOR_BITS}, got {new_P.shape}")
    head = model.head
    if isinstance(head, FlatHead) and mode in ("random", "mean_of_seen"):
        m, width = new_P.shape[0], head.E.shape[1]
        if mode == "random":
            rng = np.random.default_rng(seed)
            rows = rng.normal(0.0, 0.01, size=(m, width))
        else:
            rows = np.tile(head.E.mean(axis=0), (m, 1))
        head = FlatHead(E=np.concatenate([head.E, rows], axis=0))
    elif not isinstance(head, FlatHead) and mode == "phonology":
        head = copy.deepcopy(head)
    else:
        raise ModeHeadMismatch(f"extension mode {mode!r} does not apply to a {head_kind(head)} head")
    return AcousticModel(
        encoder_config=model.encoder_config,
        encoder_params={k: v.copy() for k, v in model.encoder_params.items()},
        head=head,
        P=np.concatenate([model.P, new_P], axis=0),
        units=model.units + tuple(new_units),
    )


def embeddings(model: AcousticModel) -> tuple[np.ndarray, np.ndarray | None]:
    """(E, head cache) of the model's current parameters; E is N x H."""
    return compute_embeddings(model.head, model.P)


def model_forward(
    model: AcousticModel,
    frames: np.ndarray,
    emb: tuple[np.ndarray, np.ndarray | None] | None = None,
    lengths=None,
):
    """Returns (Z, cache) where Z is the T x N logit matrix.

    frames stacks the frames of utterances of these lengths (default: one
    utterance), and Z stacks their logits the same way.  emb, if given, must
    be `embeddings(model)` of the current parameters.
    """
    H_seq, enc_cache = encoder_forward(model.encoder_config, model.encoder_params, frames, lengths)
    E, head_cache = embeddings(model) if emb is None else emb
    Z = logits(E, H_seq)
    return Z, {"enc": enc_cache, "H_seq": H_seq, "E": E, "head": head_cache}


def batch_loss(Z, lengths, labels, loss: str = "ctc", lm: PhoneLM | None = None,
               graph: DenominatorGraph | None = None, backward: bool = True):
    """(nll per utterance, dL/dZ stacked as the logits Z are, or None without
    `backward`) in one lattice-kernel call; Z stacks the logits of utterances
    of these lengths, whose labels are taken as feasible."""
    if loss == "ctc":
        return ctc_mod.ctc_batch_loss(Z, lengths, labels, backward)
    if loss == "ctc_crf":
        return crf_mod.crf_batch_loss(Z, lengths, labels, lm, graph, backward)
    raise ValueError(f"unknown loss {loss!r}")


def batch_loss_and_grads(
    model: AcousticModel,
    batch,
    loss: str = "ctc",
    lm: PhoneLM | None = None,
    graph: DenominatorGraph | None = None,
):
    """A batch of (frames, labels) pairs with feasible labels: (nll per
    utterance, exact analytic gradients summed over the batch).

    The batch runs as one stacked pass: one forward, one `batch_loss` call,
    one encoder backward on dZ E and one head backward on dZ^T H.
    """
    frames, labels = zip(*batch)
    lengths = [len(x) for x in frames]
    Z, cache = model_forward(model, np.concatenate(frames), lengths=lengths)
    nll, dZ = batch_loss(Z, lengths, labels, loss, lm, graph)
    enc_grads = encoder_backward(model.encoder_config, model.encoder_params, cache["enc"], dZ @ cache["E"])
    head_grads = head_backward(model.head, model.P, cache["head"], dZ.T @ cache["H_seq"])
    # in `model_params` order, the order the global gradient norm sums in
    grads = {f"enc.{k}": enc_grads[k] for k in model.encoder_params}
    grads.update({f"head.{k}": g for k, g in head_grads.items()})
    return nll, grads


def model_loss_and_grads(
    model: AcousticModel,
    frames: np.ndarray,
    labels,
    loss: str = "ctc",
    lm: PhoneLM | None = None,
    graph: DenominatorGraph | None = None,
):
    """One utterance, the batch of one: (nll, grads dict).

    InfeasibleLength unless the labels fit the frames.
    """
    labels = list(labels)
    check_labels(labels, len(frames), model.n_units)
    nll, grads = batch_loss_and_grads(model, [(frames, labels)], loss, lm, graph)
    return nll[0], grads
