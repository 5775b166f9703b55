"""Phone-embedding heads and the joining of embeddings with acoustic output.

Three head kinds produce the embedding matrix E (one row per unit):

* FlatHead      -- E is a free parameter matrix (the traditional baseline).
* LinearHead    -- e_i = A p_i, a linear map of the 51-bit phonological-vector.
* NonlinearHead -- e_i = A2 sigma(A1 p_i), one sigmoid hidden layer.

The phonology-driven heads carry no bias terms.

Logits are the dot products z[t, i] = <e_i, h_t> of embeddings with the
acoustic encoder output; phone posteriors are the row-wise softmax.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFiniteInput
from .features import VECTOR_BITS


@dataclass
class FlatHead:
    E: np.ndarray  # N x H


@dataclass
class LinearHead:
    A: np.ndarray  # H x 51


@dataclass
class NonlinearHead:
    A1: np.ndarray  # Dh x 51
    A2: np.ndarray  # H x Dh


Head = FlatHead | LinearHead | NonlinearHead


def head_kind(head: Head) -> str:
    return {FlatHead: "flat", LinearHead: "linear", NonlinearHead: "nonlinear"}[
        type(head)
    ]


def sigmoid(x):
    """Logistic function, evaluated so that no exp overflows."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _glorot(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


def make_flat_head(n_units: int, width: int, rng: np.random.Generator) -> FlatHead:
    return FlatHead(E=_glorot(rng, n_units, width))


def make_linear_head(width: int, rng: np.random.Generator) -> LinearHead:
    return LinearHead(A=_glorot(rng, width, VECTOR_BITS))


def make_nonlinear_head(width: int, rng: np.random.Generator, hidden: int = 512) -> NonlinearHead:
    return NonlinearHead(A1=_glorot(rng, hidden, VECTOR_BITS), A2=_glorot(rng, width, hidden))


def compute_embeddings(head: Head, P: np.ndarray) -> np.ndarray:
    """Embedding matrix E (N x H) for the units whose vectors are the rows of P."""
    if isinstance(head, FlatHead):
        if P is not None and P.shape[0] != head.E.shape[0]:
            raise DimensionMismatch(
                f"flat head has {head.E.shape[0]} rows, P has {P.shape[0]}"
            )
        return head.E
    if P.ndim != 2 or P.shape[1] != VECTOR_BITS:
        raise DimensionMismatch(f"P must be N x {VECTOR_BITS}, got {P.shape}")
    if isinstance(head, LinearHead):
        return P @ head.A.T
    return sigmoid(P @ head.A1.T) @ head.A2.T


def logits(E: np.ndarray, H_seq: np.ndarray) -> np.ndarray:
    """z[t, i] = dot(E[i], H_seq[t]); no normalization."""
    if E.shape[1] != H_seq.shape[1]:
        raise DimensionMismatch(
            f"embedding width {E.shape[1]} != encoder width {H_seq.shape[1]}"
        )
    return H_seq @ E.T


def posteriors(Z: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction."""
    if not np.all(np.isfinite(Z)):
        raise NonFiniteInput("logits contain non-finite entries")
    shifted = Z - Z.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


def log_posteriors(Z: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(Z)):
        raise NonFiniteInput("logits contain non-finite entries")
    shifted = Z - Z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def head_backward(head: Head, P: np.ndarray, dE: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss w.r.t. head parameters, given dL/dE."""
    if isinstance(head, FlatHead):
        if dE.shape != head.E.shape:
            raise DimensionMismatch(f"dE shape {dE.shape} != E shape {head.E.shape}")
        return {"E": dE}
    if dE.shape[0] != P.shape[0]:
        raise DimensionMismatch(f"dE rows {dE.shape[0]} != P rows {P.shape[0]}")
    if isinstance(head, LinearHead):
        return {"A": dE.T @ P}
    hidden = sigmoid(P @ head.A1.T)
    d_pre = (dE @ head.A2) * (hidden * (1.0 - hidden))
    return {"A1": d_pre.T @ P, "A2": dE.T @ hidden}


def head_params(head: Head) -> dict[str, np.ndarray]:
    """Named trainable parameters of a head."""
    if isinstance(head, FlatHead):
        return {"E": head.E}
    if isinstance(head, LinearHead):
        return {"A": head.A}
    return {"A1": head.A1, "A2": head.A2}

