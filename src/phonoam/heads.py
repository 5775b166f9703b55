"""Phone-embedding heads and the joining of embeddings with acoustic output.

Three head kinds produce the embedding matrix E (one row per unit) from the
model's "head." parameters:

* flat      -- E is a free parameter matrix `head.E` (the traditional baseline).
* linear    -- e_i = A p_i, a linear map of the 51-bit phonological-vector.
* nonlinear -- e_i = A2 sigma(A1 p_i), one sigmoid hidden layer.

The phonology-driven heads carry no bias terms.

Like the encoder, a head reads its arrays by name from the model's parameter
dict, and its forward pass returns its output with a cache for the backward
pass: `compute_embeddings` gives (E, cache), where the cache is the nonlinear
head's hidden layer sigma(P A1^T) and None for the other heads, and
`head_backward` reads it instead of recomputing that layer.

Logits are the dot products z[t, i] = <e_i, h_t> of embeddings with the
acoustic encoder output; phone posteriors are the row-wise softmax.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NonFiniteInput, StaleCache
from .features import VECTOR_BITS

HEAD_KINDS = ("flat", "linear", "nonlinear")


def head_shapes(kind: str, n_units: int, width: int, hidden: int) -> dict[str, tuple[int, int]]:
    """Parameter name -> shape of every matrix of a head of this kind, for N
    units, embedding width H and (nonlinear head only) hidden width Dh."""
    return {
        "flat": {"head.E": (n_units, width)},
        "linear": {"head.A": (width, VECTOR_BITS)},
        "nonlinear": {"head.A1": (hidden, VECTOR_BITS), "head.A2": (width, hidden)},
    }[kind]


def sigmoid(x):
    """Logistic function, evaluated so that no exp overflows."""
    ex = np.exp(-np.abs(x))
    denom = 1.0 + ex
    return np.where(x >= 0, 1.0 / denom, ex / denom)


def compute_embeddings(
    kind: str, params: dict[str, np.ndarray], P: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None]:
    """(E, cache): the N x H embedding matrix that the head of this kind, with
    these parameters, gives the units whose vectors are the rows of P, and
    what `head_backward` needs of this forward pass."""
    if kind == "flat":
        E = params["head.E"]
        if P.shape[0] != E.shape[0]:
            raise DimensionMismatch(f"flat head has {E.shape[0]} rows, P has {P.shape[0]}")
        return E, None
    if P.ndim != 2 or P.shape[1] != VECTOR_BITS:
        raise DimensionMismatch(f"P must be N x {VECTOR_BITS}, got {P.shape}")
    if kind == "linear":
        return P @ params["head.A"].T, None
    hidden = sigmoid(P @ params["head.A1"].T)
    return hidden @ params["head.A2"].T, hidden


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
    kind: str, params: dict[str, np.ndarray], P: np.ndarray, cache: np.ndarray | None, dE: np.ndarray
) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss w.r.t. the head's parameters, by their names,
    given dL/dE and the cache of `compute_embeddings` for these parameters."""
    if kind == "flat":
        if dE.shape != params["head.E"].shape:
            raise DimensionMismatch(f"dE shape {dE.shape} != E shape {params['head.E'].shape}")
        return {"head.E": dE}
    if dE.shape[0] != P.shape[0]:
        raise DimensionMismatch(f"dE rows {dE.shape[0]} != P rows {P.shape[0]}")
    if kind == "linear":
        return {"head.A": dE.T @ P}
    if cache is None or cache.shape != (P.shape[0], params["head.A1"].shape[0]):
        raise StaleCache("cache does not hold this head's hidden layer for P")
    d_pre = (dE @ params["head.A2"]) * (cache * (1.0 - cache))
    return {"head.A1": d_pre.T @ P, "head.A2": dE.T @ cache}
