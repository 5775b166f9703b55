"""The full acoustic model: encoder -> embedding head -> logits -> loss.

Parameters live in a flat name -> array dict with "enc." and "head."
prefixes, which keeps the optimizer, checksumming and checkpoints generic.

The embeddings E depend only on the head's parameters, so a caller that runs
many utterances between parameter updates computes them once with
`embeddings(model)` and passes them to `model_forward` or
`model_loss_and_grads`; either computes them itself when they are not given.
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass

import numpy as np

from . import ctc as ctc_mod
from . import crf as crf_mod
from .crf import DenominatorGraph
from .encoder import EncoderConfig, encoder_backward, encoder_forward, init_encoder
from .errors import DimensionMismatch, ModeHeadMismatch
from .features import VECTOR_BITS
from .heads import (
    FlatHead,
    Head,
    compute_embeddings,
    head_backward,
    head_kind,
    head_params,
    logits,
    make_flat_head,
    make_linear_head,
    make_nonlinear_head,
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
    rng = np.random.default_rng(seed)
    enc_params = init_encoder(encoder_config, rng)
    width = encoder_config.output_dim
    if head == "flat":
        h = make_flat_head(len(units), width, rng)
    elif head == "linear":
        h = make_linear_head(width, rng)
    elif head == "nonlinear":
        h = make_nonlinear_head(width, rng, hidden=head_hidden)
    else:
        raise ValueError(f"unknown head kind {head!r}")
    return AcousticModel(
        encoder_config=encoder_config,
        encoder_params=enc_params,
        head=h,
        P=P,
        units=tuple(units),
    )


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
    """New model covering M extra units, without touching trained parameters.

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
        head = copy.deepcopy(head)  # finetuning the extension must not touch the original
    else:
        raise ModeHeadMismatch(f"extension mode {mode!r} does not apply to a {head_kind(head)} head")
    return AcousticModel(
        encoder_config=model.encoder_config,
        encoder_params=dict(model.encoder_params),
        head=head,
        P=np.concatenate([model.P, new_P], axis=0),
        units=model.units + tuple(new_units),
    )


def embeddings(model: AcousticModel) -> np.ndarray:
    """The N x H embedding matrix of the model's current parameters."""
    return compute_embeddings(model.head, model.P)


def model_forward(model: AcousticModel, frames: np.ndarray, E: np.ndarray | None = None):
    """Returns (Z, cache) where Z is the T x N logit matrix.

    E, if given, must be `embeddings(model)` of the current parameters.
    """
    H_seq, enc_cache = encoder_forward(model.encoder_config, model.encoder_params, frames)
    if E is None:
        E = embeddings(model)
    Z = logits(E, H_seq)
    return Z, {"enc": enc_cache, "H_seq": H_seq, "E": E}


def model_loss_and_grads(
    model: AcousticModel,
    frames: np.ndarray,
    labels,
    loss: str = "ctc",
    lm: PhoneLM | None = None,
    graph: DenominatorGraph | None = None,
    E: np.ndarray | None = None,
):
    """One utterance: (nll, grads dict) with exact analytic gradients.

    E, if given, must be `embeddings(model)` of the current parameters.
    """
    Z, cache = model_forward(model, frames, E)
    if loss == "ctc":
        result = ctc_mod.ctc_loss(Z, labels)
    elif loss == "ctc_crf":
        result = crf_mod.crf_loss(Z, labels, lm, graph=graph)
    else:
        raise ValueError(f"unknown loss {loss!r}")

    dZ = result.dZ
    dH = dZ @ cache["E"]
    dE = dZ.T @ cache["H_seq"]
    enc_grads = encoder_backward(model.encoder_config, model.encoder_params, cache["enc"], dH)
    h_grads = head_backward(model.head, model.P, dE)
    grads = {f"enc.{k}": v for k, v in enc_grads.items()}
    grads.update({f"head.{k}": v for k, v in h_grads.items()})
    return result.nll, grads
