"""Exact log-domain CTC: collapse map, forward-backward loss and gradients.

The blank unit is fixed at index 0.  All lattice arithmetic is carried out in
the natural-log domain with log-sum-exp; there is no probability-domain
fallback.  The gradient returned is with respect to the raw logits, i.e. the
softmax Jacobian is already folded in (each row of dZ sums to zero).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyResult, InfeasibleLength
from .heads import log_posteriors

BLANK = 0


@dataclass
class CtcResult:
    nll: float
    dZ: np.ndarray


def _collapse(path, blank: int = BLANK) -> list[int]:
    out: list[int] = []
    prev = None
    for s in path:
        if s != prev and s != blank:
            out.append(s)
        prev = s
    return out


def collapse(path, blank: int = BLANK) -> list[int]:
    """Merge consecutive duplicates, then drop blanks (the standard B map)."""
    out = _collapse(path, blank)
    if not out:
        raise EmptyResult("collapsed sequence is empty")
    return out


def _augment(labels) -> list[int]:
    """Blank-augmented state sequence: blk l1 blk l2 ... lL blk (2L+1 states)."""
    aug = [BLANK]
    for lab in labels:
        aug.extend([lab, BLANK])
    return aug


def check_feasible(T: int, labels) -> None:
    repeats = sum(1 for a, b in zip(labels, labels[1:]) if a == b)
    needed = len(labels) + repeats
    if T < needed:
        raise InfeasibleLength(
            f"{T} frames cannot realize {len(labels)} labels with {repeats} repeats"
        )


def ctc_loss(Z: np.ndarray, labels) -> CtcResult:
    """Negative log-likelihood of the label sequence and exact dL/dZ.

    Z is the T x N logit matrix; labels is a blank-free sequence of unit
    indices.
    """
    labels = list(labels)
    if not labels or any(lab == BLANK for lab in labels):
        raise InfeasibleLength("labels must be non-empty and blank-free")
    T, N = Z.shape
    if N < 2:
        raise InfeasibleLength("need at least a blank and one label unit")
    if any(not 0 < lab < N for lab in labels):
        raise InfeasibleLength(f"label out of range for {N} units")
    check_feasible(T, labels)

    logy = log_posteriors(Z)
    loglik, counts = ctc_label_counts(logy, labels)
    return CtcResult(nll=-loglik, dZ=np.exp(logy) - counts)


def ctc_label_counts(logy: np.ndarray, labels):
    """(log p(l|x), expected per-frame unit counts over paths in B^-1(l)).

    Shared by the CTC loss and the CTC-CRF numerator.
    """
    T, N = logy.shape
    aug = _augment(labels)
    S = len(aug)
    aug_arr = np.array(aug)

    # skip from s-2 allowed when state s is a label differing from state s-2
    can_skip = np.zeros(S, dtype=bool)
    for s in range(2, S):
        can_skip[s] = aug[s] != BLANK and aug[s] != aug[s - 2]

    neg = -np.inf
    la = np.full((T, S), neg)
    la[0, 0] = logy[0, aug[0]]
    if S > 1:
        la[0, 1] = logy[0, aug[1]]
    for t in range(1, T):
        prev = la[t - 1]
        stay = prev
        move = np.concatenate([[neg], prev[:-1]])
        skip = np.concatenate([[neg, neg], prev[:-2]])
        skip = np.where(can_skip, skip, neg)
        la[t] = np.logaddexp(np.logaddexp(stay, move), skip) + logy[t, aug_arr]

    loglik = np.logaddexp(la[T - 1, S - 1], la[T - 1, S - 2] if S > 1 else neg)

    # beta excludes the emission at its own frame
    lb = np.full((T, S), neg)
    lb[T - 1, S - 1] = 0.0
    if S > 1:
        lb[T - 1, S - 2] = 0.0
    for t in range(T - 2, -1, -1):
        nxt = lb[t + 1] + logy[t + 1, aug_arr]
        stay = nxt
        move = np.concatenate([nxt[1:], [neg]])
        skip_target = np.concatenate([nxt[2:], [neg, neg]])
        skip_ok = np.concatenate([can_skip[2:], [False, False]])
        skip = np.where(skip_ok, skip_target, neg)
        lb[t] = np.logaddexp(np.logaddexp(stay, move), skip)

    # state occupancies -> expected unit counts per frame
    with np.errstate(invalid="ignore"):
        gamma = np.exp(la + lb - loglik)
    counts = np.zeros((T, N))
    for s in range(S):
        counts[:, aug[s]] += gamma[:, s]
    return loglik, counts


def greedy_decode(Z: np.ndarray) -> list[int]:
    """Frame-wise argmax (ties to the lowest index) followed by collapse."""
    path = np.argmax(Z, axis=1)
    return _collapse(path.tolist())
