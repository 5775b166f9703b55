"""Add-k smoothed n-gram language model over phone label sequences.

The model factorizes a label sequence l = (l_1 .. l_L) as

    p(l) = prod_k [ p_cont(h_k) * p(l_k | h_k) ] * p_stop(h_{L+1})

where h_k is the (order-1)-length context before position k.  The next-label
conditionals p(. | h) are add-k estimates normalized over the unit vocabulary
(they sum to one); the decision to continue or stop is a separate add-k
binomial per context.  Contexts never seen in training back off to the uniform
distribution.  This makes p a proper distribution over variable-length label
sequences, which the CRF denominator relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyCorpus

BOS = -1  # sentinel context symbol


@dataclass
class PhoneLM:
    order: int
    vocab: tuple[int, ...]  # unit indices, blank excluded
    next_logp: dict[tuple, dict[int, float]]
    cont_logp: dict[tuple, tuple[float, float]]  # context -> (log cont, log stop)

    def start_context(self) -> tuple:
        return () if self.order == 1 else (BOS,)

    def context_after(self, context: tuple, unit: int) -> tuple:
        return () if self.order == 1 else (unit,)

    def logp_next(self, unit: int, context: tuple) -> float:
        if context in self.next_logp:
            return self.next_logp[context][unit]
        return -np.log(len(self.vocab))  # unseen context: uniform backoff

    def log_cont(self, context: tuple) -> float:
        if context in self.cont_logp:
            return self.cont_logp[context][0]
        return np.log(0.5)

    def log_stop(self, context: tuple) -> float:
        if context in self.cont_logp:
            return self.cont_logp[context][1]
        return np.log(0.5)

    def score(self, labels) -> float:
        """log p(l) including the end-of-sequence term."""
        total = 0.0
        ctx = self.start_context()
        for lab in labels:
            total += self.log_cont(ctx) + self.logp_next(lab, ctx)
            ctx = self.context_after(ctx, lab)
        return total + self.log_stop(ctx)


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

    next_counts: dict[tuple, dict[int, int]] = {}
    cont_counts: dict[tuple, list[int]] = {}  # [continue, stop]
    start = () if order == 1 else (BOS,)
    for seq in sequences:
        ctx = start
        for lab in seq:
            next_counts.setdefault(ctx, {}).setdefault(lab, 0)
            next_counts[ctx][lab] += 1
            cont_counts.setdefault(ctx, [0, 0])[0] += 1
            ctx = () if order == 1 else (lab,)
        cont_counts.setdefault(ctx, [0, 0])[1] += 1

    next_logp: dict[tuple, dict[int, float]] = {}
    for ctx, counts in next_counts.items():
        total = sum(counts.values())
        denom = total + k * V
        next_logp[ctx] = {
            u: np.log((counts.get(u, 0) + k) / denom) if counts.get(u, 0) + k > 0
            else -np.inf
            for u in vocab
        }

    cont_logp: dict[tuple, tuple[float, float]] = {}
    for ctx, (n_cont, n_stop) in cont_counts.items():
        denom = n_cont + n_stop + 2 * k
        with np.errstate(divide="ignore"):
            cont_logp[ctx] = (
                float(np.log((n_cont + k) / denom)),
                float(np.log((n_stop + k) / denom)),
            )

    return PhoneLM(order=order, vocab=vocab, next_logp=next_logp, cont_logp=cont_logp)
