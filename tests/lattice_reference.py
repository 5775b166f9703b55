"""Reference lattice kernels with their own padding rule, for the exactness tests.

These are the two kernels as they were before both adopted `ctc.lane_rows`' pad
row: a lane past its own end re-reads its last frame, the CTC lattice masks its
padding to -inf and enumerates its real cells (utterance, frame, state) by
flat index, and the denominator enumerates its real frames utterance by
utterance.  The package's kernels must give the same bits.
"""

import numpy as np

from phonoam.crf import _logsumexp


def last_frame_lane_rows(lengths, backward: bool = True) -> np.ndarray:
    """`lane_rows` with a lane past its own end reading its last frame again."""
    T = np.asarray(lengths)
    start = np.cumsum(T) - T
    t = np.arange(T.max())[:, None]
    rows = start + np.minimum(t, T - 1)
    if backward:
        rows = np.concatenate([rows, start + np.maximum(T - 1 - t, 0)], axis=1)
    return rows


def reference_ctc_label_counts(logy: np.ndarray, lengths, labels):
    """(log p(l_b|x_b) per utterance, expected per-frame unit counts), as
    `ctc.ctc_label_counts` gives them with `backward`."""
    B = len(labels)
    T = np.asarray(lengths)
    L = np.fromiter(map(len, labels), int, B)
    S = 2 * L + 1
    start = np.cumsum(T) - T  # each utterance's first row in logy

    # each lane's units, blank padded: the forward lanes, then the reversed ones
    utt = np.repeat(np.arange(B), L)
    pos = np.arange(len(utt)) - np.repeat(np.cumsum(L) - L, L)
    flat = np.concatenate(labels)
    aug = np.zeros((2 * B, S.max()), dtype=int)
    aug[utt, 2 * pos + 1] = flat
    aug[B + utt, 2 * (L[utt] - pos) - 1] = flat
    lanes, width = aug.shape

    # the padding is masked to -inf emissions
    rows = last_frame_lane_rows(T)
    t = np.arange(len(rows))[:, None]
    em = logy.take(rows[:, :, None] * logy.shape[1] + aug)
    lane_T, lane_S = np.concatenate([T, T]), np.concatenate([S, S])
    np.copyto(em, -np.inf, where=(t >= lane_T)[:, :, None])
    np.copyto(em, -np.inf, where=np.arange(width) >= lane_S[:, None])

    ok = np.zeros(aug.shape, dtype=bool)
    ok[:, 3::2] = aug[:, 3::2] != aug[:, 1:-2:2]

    pre = np.empty(em.shape)
    pre[0] = -np.inf
    pre[0, :, :2] = 0.0
    buf = np.full((lanes, width + 2), -np.inf)
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

    # every utterance's real cells (b, t, s) in that order
    n = T * S
    b = np.repeat(b, n)
    t, s = np.divmod(np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n), S[b])
    fwd = cell(t, b, s)
    la = pre.take(fwd) + em.take(fwd)
    lb = pre.take(cell(T[b] - 1 - t, B + b, S[b] - 1 - s))
    with np.errstate(invalid="ignore"):
        gamma = np.exp(la + lb - loglik[b])
    counts = np.bincount((start[b] + t) * logy.shape[1] + aug[b, s], gamma, minlength=logy.size)
    return loglik, counts.reshape(logy.shape)


def reference_denominator(graph, logy: np.ndarray, lengths):
    """(log denominator per utterance, expected per-frame unit counts), as
    `crf.denominator_forward_backward` gives them with `lengths` and `backward`."""
    T = np.asarray(lengths)
    B = len(T)
    trans, unit = graph.trans, graph.states[:, 1]
    em = logy[:, unit][last_frame_lane_rows(T)]  # steps x lanes x states
    pre = np.empty(em.shape)
    pre[0, :B] = graph.init_logw
    pre[0, B:] = graph.final_logw
    x = pre[0] + em[0]
    v, m = np.empty_like(x), np.empty((len(x), 1))
    with np.errstate(divide="ignore"):
        for t in range(1, len(pre)):
            np.maximum.reduce(x, axis=1, keepdims=True, out=m)
            np.exp(np.subtract(x, m, out=v), out=v)
            p = pre[t]
            np.matmul(v[:B], trans, out=p[:B])
            np.matmul(v[B:], trans.T, out=p[B:])
            np.log(p, out=p)
            p += m
            np.add(p, em[t], out=x)

    b = np.arange(B)
    logden = _logsumexp(pre[T - 1, b] + em[T - 1, b] + graph.final_logw)
    # every utterance's frames in stacked order: step t of lane b, and
    # step T_b - 1 - t of lane B + b; each frame's states are added in order
    utt = np.repeat(b, T)
    t = np.arange(len(utt)) - np.repeat(np.cumsum(T) - T, T)
    la = pre[t, utt] + em[t, utt]
    lb = pre[T[utt] - 1 - t, B + utt]
    gamma = np.exp(la + lb - logden[utt, None])
    cell = np.arange(len(utt))[:, None] * logy.shape[1] + unit
    counts = np.bincount(cell.ravel(), gamma.ravel(), minlength=logy.size).reshape(logy.shape)
    return logden, counts
