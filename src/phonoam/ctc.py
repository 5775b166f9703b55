"""Exact log-domain CTC: collapse map, forward-backward loss and gradients.

The blank unit is fixed at index 0.  All lattice arithmetic is carried out in
the natural-log domain with pairwise logaddexp; there is no probability-domain
fallback.  One kernel, `ctc_label_counts`, scores a whole batch of utterances:
each utterance's forward recursion and its backward one (the forward
recursion over the reversed lattice) are two rows, or lanes, of one loop over
frames, three ufunc calls per frame for every lane at once.  Every lane's
arithmetic is elementwise, so an utterance gets the same bits whatever batch
it is scored in.  The gradient returned is with respect to the raw logits,
i.e. the softmax Jacobian is already folded in (each row of dZ sums to zero).
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
    nll, dZ = ctc_batch_loss(Z, [len(Z)], [labels])
    return CtcResult(nll=nll[0], dZ=dZ)


def ctc_batch_loss(Z: np.ndarray, lengths, labels, backward: bool = True):
    """(nll per utterance, dL/dZ or None) for utterances whose logits are
    stacked in Z, lengths[b] rows each; the labels are taken as feasible."""
    logy = log_posteriors(Z)
    loglik, counts = ctc_label_counts(logy, lengths, labels, backward)
    return -loglik, (np.exp(logy) - counts if backward else None)


def lane_rows(lengths, backward: bool = True) -> np.ndarray:
    """The row of the stacked frames that each lane reads at each step, as a
    (longest utterance) x lanes array.  Lane b steps through utterance b's
    frames and, with `backward`, lane B + b through them reversed; a lane
    past its own end reads its last frame again."""
    T = np.asarray(lengths)
    start = np.cumsum(T) - T
    t = np.arange(T.max())[:, None]
    rows = start + np.minimum(t, T - 1)
    if backward:
        rows = np.concatenate([rows, start + np.maximum(T - 1 - t, 0)], axis=1)
    return rows


def ctc_label_counts(logy: np.ndarray, lengths, labels, backward: bool = True):
    """(log p(l_b|x_b) per utterance, expected per-frame unit counts over the
    paths in B^-1(l_b), stacked as logy is, or None without `backward`).

    logy stacks the utterances' log-posteriors, lengths[b] rows each; every
    labels[b] is non-empty.  Shared by the CTC loss and the CTC-CRF numerator.
    Utterance b's lattice is blk l1 blk ... lL blk.  Lane b runs it forward;
    with `backward`, lane B + b runs it with its states and frames reversed,
    which is the backward pass.  Lanes are padded to the longest lattice and
    utterance, after their own states and frames: a lattice moves only to
    higher states and frames, so the padding never reaches a lane's real
    cells.  Each frame is one stay/advance/skip step for every lane in
    three ufunc calls: the skip is a logaddexp masked to the states it may
    enter.
    """
    B = len(labels)
    T = np.asarray(lengths)
    L = np.fromiter(map(len, labels), int, B)
    S = 2 * L + 1
    start = np.cumsum(T) - T  # each utterance's first row in logy

    # each lane's units, blank padded: the forward lanes, then the reversed ones
    utt = np.repeat(np.arange(B), L)
    pos = np.arange(len(utt)) - np.repeat(np.cumsum(L) - L, L)
    flat = np.concatenate(labels)
    aug = np.zeros((2 * B if backward else B, S.max()), dtype=int)
    aug[utt, 2 * pos + 1] = flat
    if backward:
        aug[B + utt, 2 * (L[utt] - pos) - 1] = flat
    lanes, width = aug.shape

    # the padding emits -inf, so it stays -inf, logaddexp's cheap case
    rows = lane_rows(T, backward)
    t = np.arange(len(rows))[:, None]
    em = logy.take(rows[:, :, None] * logy.shape[1] + aug)
    lane_T, lane_S = (np.concatenate([T, T]), np.concatenate([S, S])) if backward else (T, S)
    np.copyto(em, -np.inf, where=(t >= lane_T)[:, :, None])
    np.copyto(em, -np.inf, where=np.arange(width) >= lane_S[:, None])

    # skip from s-2 into a label allowed when it differs from the label before
    ok = np.zeros(aug.shape, dtype=bool)
    ok[:, 3::2] = aug[:, 3::2] != aug[:, 1:-2:2]

    # pre[t]: each lane's value before frame t's emission (beta excludes it);
    # only frame 0 is filled here, the loop writes every later pre[t] whole
    pre = np.empty(em.shape)
    pre[0] = -np.inf
    pre[0, :, :2] = 0.0
    buf = np.full((lanes, width + 2), -np.inf)  # two -inf columns ahead of the states
    stay, move, jump = buf[:, 2:], buf[:, 1:-1], buf[:, :-2]
    np.add(pre[0], em[0], out=stay)
    for f in range(1, len(pre)):
        p = pre[f]
        np.logaddexp(stay, move, out=p)
        np.logaddexp(p, jump, out=p, where=ok)
        np.add(p, em[f], out=stay)

    # flat index into pre and em of lane b's state s at frame t
    def cell(t, b, s):
        return (t * lanes + b) * width + s

    b = np.arange(B)
    end = cell(T - 1, b, S - 1)
    loglik = np.logaddexp(pre.take(end) + em.take(end), pre.take(end - 1) + em.take(end - 1))
    if not backward:
        return loglik, None

    # every utterance's real cells (b, t, s) in that order
    n = T * S
    b = np.repeat(b, n)
    t, s = np.divmod(np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n), S[b])
    fwd = cell(t, b, s)
    la = pre.take(fwd) + em.take(fwd)
    lb = pre.take(cell(T[b] - 1 - t, B + b, S[b] - 1 - s))

    # state occupancies -> expected unit counts per frame, each utterance's
    # states added in order
    with np.errstate(invalid="ignore"):
        gamma = np.exp(la + lb - loglik[b])
    counts = np.bincount((start[b] + t) * logy.shape[1] + aug[b, s], gamma, minlength=logy.size)
    return loglik, counts.reshape(logy.shape)


def greedy_decode(Z: np.ndarray) -> list[int]:
    """Frame-wise argmax (ties to the lowest index) followed by collapse."""
    path = np.argmax(Z, axis=1)
    return collapse(path.tolist())
