"""Phone-embedding heads and the joining of embeddings with acoustic output.

Three head kinds produce the embedding matrix E (one row per unit):

* FlatHead      -- E is a free parameter matrix (the traditional baseline).
* LinearHead    -- e_i = A p_i, a linear map of the 51-bit phonological-vector.
* NonlinearHead -- e_i = A2 sigma(A1 p_i), one sigmoid hidden layer.

The phonology-driven heads carry no bias terms.

Like the encoder, a head's forward pass returns its output with a cache for
the backward pass: `compute_embeddings` gives (E, cache), where the cache is
the nonlinear head's hidden layer sigma(P A1^T) and None for the other heads,
and `head_backward` reads it instead of recomputing that layer.

Logits are the dot products z[t, i] = <e_i, h_t> of embeddings with the
acoustic encoder output; phone posteriors are the row-wise softmax.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import DimensionMismatch, NonFiniteInput, StaleCache
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

HEAD_TYPES = {"flat": FlatHead, "linear": LinearHead, "nonlinear": NonlinearHead}
HEAD_KINDS = tuple(HEAD_TYPES)


def head_kind(head: Head) -> str:
    return {t: kind for kind, t in HEAD_TYPES.items()}[type(head)]


def head_shapes(kind: str, n_units: int, width: int, hidden: int) -> dict[str, tuple[int, int]]:
    """Field name -> shape of every matrix of a head of this kind, for N units,
    embedding width H and (nonlinear head only) hidden width Dh."""
    return {
        "flat": {"E": (n_units, width)},
        "linear": {"A": (width, VECTOR_BITS)},
        "nonlinear": {"A1": (hidden, VECTOR_BITS), "A2": (width, hidden)},
    }[kind]


def sigmoid(x):
    """Logistic function, evaluated so that no exp overflows."""
    ex = np.exp(-np.abs(x))
    denom = 1.0 + ex
    return np.where(x >= 0, 1.0 / denom, ex / denom)


def compute_embeddings(head: Head, P: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """(E, cache): the N x H embedding matrix for the units whose vectors are
    the rows of P, and what `head_backward` needs of this forward pass."""
    if isinstance(head, FlatHead):
        if P is not None and P.shape[0] != head.E.shape[0]:
            raise DimensionMismatch(
                f"flat head has {head.E.shape[0]} rows, P has {P.shape[0]}"
            )
        return head.E, None
    if P.ndim != 2 or P.shape[1] != VECTOR_BITS:
        raise DimensionMismatch(f"P must be N x {VECTOR_BITS}, got {P.shape}")
    if isinstance(head, LinearHead):
        return P @ head.A.T, None
    hidden = sigmoid(P @ head.A1.T)
    return hidden @ head.A2.T, hidden


def logits(E: np.ndarray, H_seq: np.ndarray) -> np.ndarray:
    """z[t, i] = dot(E[i], H_seq[t]); no normalization."""
    if E.shape[1] != H_seq.shape[1]:
        raise DimensionMismatch(
            f"embedding width {E.shape[1]} != encoder width {H_seq.shape[1]}"
        )
    return H_seq @ E.T


def posteriors(Z: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction."""
    if not np.isfinite(Z).all():
        raise NonFiniteInput("logits contain non-finite entries")
    shifted = Z - Z.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


def log_posteriors(Z: np.ndarray) -> np.ndarray:
    if not np.isfinite(Z).all():
        raise NonFiniteInput("logits contain non-finite entries")
    shifted = Z - Z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def head_backward(
    head: Head, P: np.ndarray, cache: np.ndarray | None, dE: np.ndarray
) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss w.r.t. head parameters, given dL/dE and the
    cache of `compute_embeddings` for the current parameters."""
    if isinstance(head, FlatHead):
        if dE.shape != head.E.shape:
            raise DimensionMismatch(f"dE shape {dE.shape} != E shape {head.E.shape}")
        return {"E": dE}
    if dE.shape[0] != P.shape[0]:
        raise DimensionMismatch(f"dE rows {dE.shape[0]} != P rows {P.shape[0]}")
    if isinstance(head, LinearHead):
        return {"A": dE.T @ P}
    if cache is None or cache.shape != (P.shape[0], head.A1.shape[0]):
        raise StaleCache("cache does not hold this head's hidden layer for P")
    d_pre = (dE @ head.A2) * (cache * (1.0 - cache))
    return {"A1": d_pre.T @ P, "A2": dE.T @ cache}


def head_params(head: Head) -> dict[str, np.ndarray]:
    """Named trainable parameters of a head: its fields."""
    return {f.name: getattr(head, f.name) for f in fields(head)}

