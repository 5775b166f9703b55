"""Exact log-domain CTC: collapse map, forward-backward loss and gradients.

The blank unit is fixed at index 0.  All lattice arithmetic is carried out in
the natural-log domain with pairwise logaddexp; there is no probability-domain
fallback.  The forward and backward recursions run as the two rows of one
loop over frames, three ufunc calls per frame.  The gradient returned is with
respect to the raw logits, i.e. the softmax Jacobian is already folded in
(each row of dZ sums to zero).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleLength
from .heads import log_posteriors

BLANK = 0


@dataclass
class CtcResult:
    nll: float
    dZ: np.ndarray


def collapse(path) -> list[int]:
    """Merge consecutive duplicates, then drop blanks (the standard B map)."""
    out: list[int] = []
    prev = None
    for s in path:
        if s != prev and s != BLANK:
            out.append(s)
        prev = s
    return out


def check_labels(labels, T: int, N: int) -> None:
    """InfeasibleLength unless labels is a non-empty sequence of units in 1..N-1
    (no blank) that T frames can realize."""
    if not labels or any(not 0 < lab < N for lab in labels):
        raise InfeasibleLength(f"labels must be non-empty, blank-free and below {N} units")
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
    check_labels(labels, *Z.shape)

    logy = log_posteriors(Z)
    loglik, counts = ctc_label_counts(logy, labels)
    return CtcResult(nll=-loglik, dZ=np.exp(logy) - counts)


def ctc_label_counts(logy: np.ndarray, labels):
    """(log p(l|x), expected per-frame unit counts over paths in B^-1(l)).

    Shared by the CTC loss and the CTC-CRF numerator; labels are non-empty.
    The lattice is blk l1 blk ... lL blk.  Row 0 runs it forward; row 1 runs
    it with states and frames reversed, which is the backward pass.  Each
    frame is one stay/advance/skip step for both rows in three ufunc calls:
    the skip is a logaddexp masked to the states it may enter.
    """
    T, N = logy.shape
    S = 2 * len(labels) + 1
    aug = np.full(S, BLANK)
    aug[1::2] = labels
    emit = logy[:, aug]
    em = np.empty((T, 2, S))
    em[:, 0] = emit
    em[:, 1] = emit[::-1, ::-1]

    # skip from s-2 into a label allowed when it differs from the label before
    ok = np.zeros((2, S), dtype=bool)
    ok[0, 3::2] = aug[3::2] != aug[1:-2:2]
    ok[1, 3::2] = ok[0, 3::2][::-1]

    # pre[t]: each row's value before frame t's emission (beta excludes it);
    # only frame 0 is filled here, the loop writes every later pre[t] whole
    pre = np.empty((T, 2, S))
    pre[0] = -np.inf
    pre[0, :, :2] = 0.0
    buf = np.full((2, S + 2), -np.inf)  # two -inf columns ahead of the states
    stay, move, jump = buf[:, 2:], buf[:, 1:-1], buf[:, :-2]
    np.add(pre[0], em[0], out=stay)
    for t in range(1, T):
        p = pre[t]
        np.logaddexp(stay, move, out=p)
        np.logaddexp(p, jump, out=p, where=ok)
        np.add(p, em[t], out=stay)

    la = pre[:, 0] + emit
    lb = pre[::-1, 1, ::-1]
    loglik = np.logaddexp(la[T - 1, S - 1], la[T - 1, S - 2])

    # state occupancies -> expected unit counts per frame
    with np.errstate(invalid="ignore"):
        gamma = np.exp(la + lb - loglik)
    counts = np.zeros((T, N))
    np.add.at(counts.T, aug, gamma.T)
    return loglik, counts


def greedy_decode(Z: np.ndarray) -> list[int]:
    """Frame-wise argmax (ties to the lowest index) followed by collapse."""
    path = np.argmax(Z, axis=1)
    return collapse(path.tolist())
