"""Add-k smoothed n-gram language model over phone label sequences.

The model factorizes a label sequence l = (l_1 .. l_L) as

    p(l) = prod_k [ p_cont(h_k) * p(l_k | h_k) ] * p_stop(h_{L+1})

where h_k is the (order-1)-length context before position k.  The next-label
conditionals p(. | h) are add-k estimates normalized over the unit vocabulary
(they sum to one); the decision to continue or stop is a separate add-k
binomial per context.  Contexts never seen in training back off to the uniform
distribution.  This makes p a proper distribution over variable-length label
sequences, which the CRF denominator relies on.

The model is held as tables indexed by context row and unit:

    log_next[h, u]   log p(u | h), -inf for u off the vocab (blank, unit 0,
                     is never in it); an unseen context's row is the uniform
                     backoff over the vocab
    log_cont[h]      log p_cont(h), log 0.5 for an unseen context
    log_stop[h]      log p_stop(h), log 0.5 for an unseen context

A unigram LM has the single row 0.  In a bigram LM row 0 is the start
context and row u > 0 is the context after label u.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyCorpus


@dataclass
class PhoneLM:
    order: int
    log_next: np.ndarray  # contexts x units
    log_cont: np.ndarray  # per context
    log_stop: np.ndarray  # per context

    def score(self, labels) -> float:
        """log p(l) including the end-of-sequence term, summed in sequence order."""
        total, ctx = 0.0, 0
        for lab in labels:
            total += self.log_cont[ctx] + self.log_next[ctx, lab]
            ctx = lab if self.order == 2 else 0
        return float(total + self.log_stop[ctx])


def _context_rows(order: int, labels: np.ndarray) -> np.ndarray:
    """Context row before each label and, last, the row the sequence stops in."""
    if order == 1:
        return np.zeros(len(labels) + 1, dtype=int)
    return np.concatenate(([0], labels))


def train_phone_lm(
    sequences,
    order: int = 1,
    smoothing: float = 1.0,
    vocab=None,
) -> PhoneLM:
    """Estimate an add-k n-gram label LM (k = smoothing >= 0) from blank-free label sequences."""
    sequences = [list(s) for s in sequences]
    if not sequences or all(not s for s in sequences):
        raise EmptyCorpus("phone LM needs at least one non-empty label sequence")
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    k = float(smoothing)
    if not k >= 0.0:
        raise ValueError(f"smoothing must be >= 0, got {smoothing}")

    if vocab is None:
        vocab = sorted({lab for s in sequences for lab in s})
    vocab = tuple(vocab)
    V = len(vocab)

    labels = np.array([lab for s in sequences for lab in s], dtype=int)
    U = 1 + max(max(vocab), labels.max())
    C = U if order == 2 else 1
    ctx = np.concatenate([_context_rows(order, np.asarray(s, dtype=int)) for s in sequences])
    last = np.cumsum([len(s) + 1 for s in sequences]) - 1  # where each sequence stops
    prev = np.delete(ctx, last)
    counts = np.bincount(prev * U + labels, minlength=C * U).reshape(C, U).astype(float)
    n_cont = counts.sum(axis=1)
    n_stop = np.bincount(ctx[last], minlength=C)

    in_vocab = np.zeros(U, dtype=bool)
    in_vocab[list(vocab)] = True
    with np.errstate(divide="ignore", invalid="ignore"):
        log_next = np.log((counts + k) / (n_cont + k * V)[:, None])
        denom = n_cont + n_stop + 2 * k
        log_cont = np.log((n_cont + k) / denom)
        log_stop = np.log((n_stop + k) / denom)
    log_next[n_cont == 0] = -np.log(V)  # unseen context: uniform backoff
    log_next[:, ~in_vocab] = -np.inf
    seen = n_cont + n_stop > 0
    log_cont[~seen] = log_stop[~seen] = np.log(0.5)
    return PhoneLM(order=order, log_next=log_next, log_cont=log_cont, log_stop=log_stop)
