"""The full acoustic model: encoder -> embedding head -> logits -> loss.

The model holds its parameters in one flat name -> array dict, `params`,
with "enc." and "head." prefixes; the encoder, the heads, the optimizer, the
checksum and checkpoints all read and write that dict by name.  Its head is
one of the kind names of `HEAD_KINDS`.  `model_shapes` lists the parameters'
names and shapes, in the dict's order: `build_model` draws from it and a
checkpoint is checked against it and loaded in its order.

The embeddings E, and the head's cache that its backward pass reads (the
nonlinear head's hidden layer), depend only on the head's parameters.  So a
caller that runs many utterances between parameter updates computes them once
with `embeddings(model)` and passes that (E, head cache) pair to
`model_forward`, which computes it itself when it is not given.

`batch_loss_and_grads` is the training step, one stacked pass per batch: one
encoder forward over the batch's stacked frames (each utterance spliced
within its own frames), one logits product, one call of the package's one
batch loss, `crf.batch_loss` (CTC without a denominator graph, CTC-CRF
under one), one encoder backward and one head backward, so the gradients are
summed over the batch inside the matmuls.  `model_loss_and_grads` is the
batch of one, and the one function that reads a loss name.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .crf import DenominatorGraph, batch_loss, build_denominator_graph
from .ctc import check_labels
from .encoder import EncoderConfig, encoder_backward, encoder_forward, encoder_shapes
from .errors import DimensionMismatch, DuplicatePhone, ModeHeadMismatch
from .features import VECTOR_BITS
from .heads import HEAD_KINDS, compute_embeddings, head_backward, head_shapes, logits
from .lm import PhoneLM


@dataclass
class AcousticModel:
    encoder_config: EncoderConfig
    head: str  # one of HEAD_KINDS
    params: dict[str, np.ndarray]  # in `model_shapes` order
    P: np.ndarray  # N x 51 phonological-vectors, row order = units
    units: tuple[str, ...]

    @property
    def n_units(self) -> int:
        return len(self.units)

    def unit_index(self) -> dict[str, int]:
        return {u: i for i, u in enumerate(self.units)}


def model_shapes(n_units: int, encoder_config: EncoderConfig, head: str, hidden: int) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter of the model so described, encoder first."""
    return encoder_shapes(encoder_config) | head_shapes(head, n_units, encoder_config.output_dim, hidden)


def glorot_params(shapes: dict[str, tuple[int, ...]], rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Glorot-uniform matrices and zero vectors of these shapes, drawn in their order."""
    params = {}
    for name, shape in shapes.items():
        limit = np.sqrt(6.0 / sum(shape))
        params[name] = rng.uniform(-limit, limit, size=shape) if len(shape) == 2 else np.zeros(shape)
    return params


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
    if P.shape != (len(units), VECTOR_BITS):
        raise DimensionMismatch(f"P must be {len(units)} x {VECTOR_BITS}, got {P.shape}")
    params = glorot_params(model_shapes(len(units), encoder_config, head, head_hidden), np.random.default_rng(seed))
    return AcousticModel(encoder_config, head, params, P, tuple(units))


def model_params(model: AcousticModel) -> dict[str, np.ndarray]:
    """A new dict holding the model's own arrays, so writes into an array
    reach the model and a later `set_model_params` leaves this dict as it is."""
    return dict(model.params)


def set_model_params(model: AcousticModel, params: dict[str, np.ndarray]) -> None:
    """Replace the model's arrays of these names; KeyError for an unknown name, DimensionMismatch for a new shape."""
    unknown = params.keys() - model.params.keys()
    if unknown:
        raise KeyError(f"model has no parameter {', '.join(sorted(unknown))}")
    reshaped = sorted(k for k, v in params.items() if np.shape(v) != model.params[k].shape)
    if reshaped:
        raise DimensionMismatch(f"parameters {', '.join(reshaped)} would change shape")
    model.params.update(params)


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
    mode: str | None = None,
    seed: int | None = None,
) -> AcousticModel:
    """New model covering M extra units, sharing no array with the model.

    new_P holds the M x 51 phonological-vectors of M distinct units new to the
    model.  Modes, by default "random" for a flat head and "phonology" otherwise:

    phonology    -- phonology-driven heads only: the new embeddings follow from
                    new_P through the unchanged head.
    random       -- flat head only: seeded Gaussian rows (mean 0, std 0.01)
                    appended to `head.E`.
    mean_of_seen -- flat head only: every new row is the mean of existing rows.

    Flat rows then train as ordinary parameters during finetuning.
    """
    if new_P.shape != (len(new_units), VECTOR_BITS):
        raise DimensionMismatch(f"new_P must be {len(new_units)} x {VECTOR_BITS}, got {new_P.shape}")
    if len(set(new_units)) != len(new_units) or set(new_units) & set(model.units):
        raise DuplicatePhone("new units must be distinct and not already units of the model")
    flat = model.head == "flat"
    if mode is None:
        mode = "random" if flat else "phonology"
    if mode not in (("random", "mean_of_seen") if flat else ("phonology",)):
        raise ModeHeadMismatch(f"extension mode {mode!r} does not apply to a {model.head} head")
    params = {k: v.copy() for k, v in model.params.items()}
    if flat:
        E = model.params["head.E"]
        m = new_P.shape[0]
        if mode == "random":
            rows = np.random.default_rng(seed).normal(0.0, 0.01, size=(m, E.shape[1]))
        else:
            rows = np.tile(E.mean(axis=0), (m, 1))
        params["head.E"] = np.concatenate([E, rows], axis=0)
    P = np.concatenate([model.P, new_P], axis=0)
    return AcousticModel(model.encoder_config, model.head, params, P, model.units + tuple(new_units))


def embeddings(model: AcousticModel) -> tuple[np.ndarray, np.ndarray | None]:
    """(E, head cache) of the model's current parameters; E is N x H."""
    return compute_embeddings(model.head, model.params, model.P)


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
    H_seq, enc_cache = encoder_forward(model.encoder_config, model.params, frames, lengths)
    E, head_cache = embeddings(model) if emb is None else emb
    Z = logits(E, H_seq)
    return Z, {"enc": enc_cache, "H_seq": H_seq, "E": E, "head": head_cache}


def batch_loss_and_grads(model: AcousticModel, batch, graph: DenominatorGraph | None = None):
    """A batch of (frames, labels) pairs with feasible labels: (nll per
    utterance, exact analytic gradients summed over the batch).

    The batch runs as one stacked pass: one forward, one `batch_loss` call,
    one encoder backward on dZ E and one head backward on dZ^T H.
    """
    frames, labels = zip(*batch)
    lengths = [len(x) for x in frames]
    Z, cache = model_forward(model, np.concatenate(frames), lengths=lengths)
    nll, dZ = batch_loss(Z, lengths, labels, graph)
    grads = (encoder_backward(model.encoder_config, model.params, cache["enc"], dZ @ cache["E"])
             | head_backward(model.head, model.params, model.P, cache["head"], dZ.T @ cache["H_seq"]))
    # in the model's order, the order the global gradient norm sums in
    return nll, {k: grads[k] for k in model.params}


def model_loss_and_grads(
    model: AcousticModel,
    frames: np.ndarray,
    labels,
    loss: str = "ctc",
    lm: PhoneLM | None = None,
    graph: DenominatorGraph | None = None,
):
    """One utterance, the batch of one: (nll, grads dict).

    Loss "ctc_crf" scores under `graph`, built from `lm` when not given; a
    loss name other than it and "ctc" raises ValueError.  InfeasibleLength
    unless the labels fit the frames.
    """
    labels = list(labels)
    check_labels(labels, len(frames), model.n_units)
    if loss == "ctc":
        graph = None
    elif loss != "ctc_crf":
        raise ValueError(f"unknown loss {loss!r}")
    elif graph is None:
        graph = build_denominator_graph(model.n_units, lm)
    nll, grads = batch_loss_and_grads(model, [(frames, labels)], graph)
    return nll[0], grads
