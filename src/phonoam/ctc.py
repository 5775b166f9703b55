"""Exact log-domain CTC: collapse map, forward-backward loss and gradients.

The blank unit is fixed at index 0.  All lattice arithmetic is carried out in
the natural-log domain with pairwise logaddexp; there is no probability-domain
fallback.  One kernel, `ctc_label_counts`, scores a whole batch of utterances:
each utterance's forward recursion and its backward one (the forward
recursion over the reversed lattice) are two rows, or lanes, of one loop over
frames, three ufunc calls per frame for every lane at once, padded by the
rule of `lane_rows` that the CTC-CRF denominator shares.  Every lane's
arithmetic is elementwise, so an utterance gets the same bits whatever batch
it is scored in.  The one batch loss built on it, CTC's and CTC-CRF's alike,
is `crf.batch_loss`; `ctc_loss` is its CTC batch of one.  The gradient
returned is with respect to the raw logits, i.e. the softmax Jacobian is
already folded in (each row of dZ sums to zero).
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
    indices.  The batch of one of `crf.batch_loss` without a graph.
    """
    labels = list(labels)
    check_labels(labels, *Z.shape)
    logy = log_posteriors(Z)
    (loglik,), counts = ctc_label_counts(logy, [len(Z)], [labels])
    return CtcResult(nll=-loglik, dZ=np.exp(logy) - counts)


def lane_rows(lengths, backward: bool = True) -> np.ndarray:
    """The row of the stacked frames that each lane reads at each step, as a
    (longest utterance) x lanes array.  Lane b steps through utterance b's
    frames and, with `backward`, lane B + b through them reversed.  Both
    lattice kernels pad by this rule: a lane past its own end reads row
    sum(lengths), a pad row after the stacked frames (-inf emissions for CTC,
    0 for the CRF denominator) that `scatter_counts` drops."""
    T = np.asarray(lengths)
    start = np.cumsum(T) - T
    t = np.arange(T.max())[:, None]
    real = t < T
    rows = np.where(real, start + t, T.sum())
    if backward:
        rows = np.concatenate([rows, np.where(real, start + T - 1 - t, T.sum())], axis=1)
    return rows


def scatter_counts(rows, units, gamma, shape) -> np.ndarray:
    """Occupancies gamma summed into an array of `shape` at (rows, units),
    which broadcast to gamma's shape, each cell's in gamma's order; the pad
    row and pad unit, row shape[0] and column shape[1], are dropped."""
    n, N = shape
    counts = np.bincount((rows * (N + 1) + units).ravel(), gamma.ravel(), minlength=(n + 1) * (N + 1))
    return counts.reshape(n + 1, N + 1)[:n, :N]


def ctc_label_counts(logy: np.ndarray, lengths, labels, backward: bool = True):
    """(log p(l_b|x_b) per utterance, expected per-frame unit counts over the
    paths in B^-1(l_b), stacked as logy is, or None without `backward`).

    logy stacks the utterances' log-posteriors, lengths[b] rows each; every
    labels[b] is non-empty.  Shared by the CTC loss and the CTC-CRF numerator.
    Utterance b's lattice is blk l1 blk ... lL blk.  Lane b runs it forward;
    with `backward`, lane B + b runs it with its states and frames reversed,
    which is the backward pass.  Lanes are padded to the longest lattice and
    utterance, after their own states and frames, with a -inf pad unit and
    `lane_rows`' pad row: a lattice moves only to higher states and frames,
    so the padding never reaches a lane's real cells.  Each frame is one
    stay/advance/skip step for every lane in three ufunc calls: the skip is a
    logaddexp masked to the states it may enter.
    """
    B = len(labels)
    T = np.asarray(lengths)
    L = np.fromiter(map(len, labels), int, B)
    S = 2 * L + 1
    n, N = logy.shape

    # each lane's units, pad unit N past its own states: the forward lanes,
    # then the reversed ones, which read the forward unit at the mirrored state
    b = np.arange(B)
    utt = np.repeat(b, L)
    pos = np.arange(len(utt)) - np.repeat(np.cumsum(L) - L, L)
    width = S.max()
    aug = np.where(np.arange(width) < S[:, None], BLANK, N)
    aug[utt, 2 * pos + 1] = np.concatenate(labels)
    mirror = S[:, None] - 1 - np.arange(width)
    if backward:
        aug = np.concatenate([aug, np.where(mirror >= 0, aug[b[:, None], mirror], N)])

    # the pad row and unit emit -inf, so padding stays -inf, logaddexp's cheap case
    padded = np.full((n + 1, N + 1), -np.inf)
    padded[:n, :N] = logy
    rows = lane_rows(T, backward)
    em = padded.take(rows[:, :, None] * (N + 1) + aug)

    # skip from s-2 into a label allowed when it differs from the label before
    ok = np.zeros(aug.shape, dtype=bool)
    ok[:, 3::2] = aug[:, 3::2] != aug[:, 1:-2:2]

    # pre[t]: each lane's value before frame t's emission (beta excludes it);
    # only frame 0 is filled here, the loop writes every later pre[t] whole
    pre = np.empty(em.shape)
    pre[0] = -np.inf
    pre[0, :, :2] = 0.0
    buf = np.full((len(aug), width + 2), -np.inf)  # two -inf columns ahead of the states
    stay, move, jump = buf[:, 2:], buf[:, 1:-1], buf[:, :-2]
    np.add(pre[0], em[0], out=stay)
    for f in range(1, len(pre)):
        p = pre[f]
        np.logaddexp(stay, move, out=p)
        np.logaddexp(p, jump, out=p, where=ok)
        np.add(p, em[f], out=stay)

    end = pre[T - 1, b] + em[T - 1, b]  # each utterance's last frame, after its emission
    loglik = np.logaddexp(end[b, S - 1], end[b, S - 2])
    if not backward:
        return loglik, None

    # occupancies over the padded grid, the backward value read at the mirrored
    # step and state; a pad cell's forward value is -inf, so whatever its mirror
    # it adds 0 (NaN in an infeasible lane) to the pad row or unit
    t = np.arange(len(rows))[:, None, None]
    la = pre[:, :B] + em[:, :B]
    lb = pre[T[:, None] - 1 - t, B + b[:, None], mirror]
    with np.errstate(invalid="ignore"):
        gamma = np.exp(la + lb - loglik[:, None])
    return loglik, scatter_counts(rows[:, :B, None], aug[:B], gamma, logy.shape)


def greedy_decode(Z: np.ndarray) -> list[int]:
    """Frame-wise argmax (ties to the lowest index) followed by collapse."""
    path = np.argmax(Z, axis=1)
    return collapse(path.tolist())
