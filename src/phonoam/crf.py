"""CRF sequence loss with CTC topology and an n-gram label-LM potential.

The potential of a frame-level path pi is

    phi(pi, x) = log p(B(pi)) + sum_t log p(pi_t | x)

where B collapses repeats and removes blanks, and p(B(pi)) is scored by a
PhoneLM.  The loss is -[log numerator - log denominator]: the numerator sums
over paths collapsing to the reference labels (the LM term is then a constant,
so it reduces to the CTC forward plus the LM score of the reference), and the
denominator sums over ALL frame-level paths, computed exactly by a forward
pass over a state graph composing the CTC topology with the LM context
automaton.  With lm=None the potential is self-normalized and the loss
coincides with plain CTC.

The graph's transitions are held as a dense S x S matrix of edge weights
(probabilities, 0 where there is no edge).  The forward and backward
recursions run as the two rows of one loop over frames, the backward row over
the frames reversed, so each frame is one max, one exp and one log for both
rows and one matrix-vector product per row, each row shifted by its maximum:
only the loop over frames is left in Python.  It runs once per utterance; a
loss that needs no gradient runs the forward row alone.  The per-state edge
lists the graph also keeps are read only by the benchmark harness, which
counts the graph's edges from them.

`crf_batch_loss` scores a batch of utterances: the numerator of all of them
is one call of CTC's batched lattice kernel, `ctc_label_counts`, and
`crf_loss` is its batch of one.  The numerator keeps CTC's exact logaddexp
lattice: the shift flushes states
over ~745 nats below the frame's best to zero, and in a label lattice such a
state may be the only one still able to reach the last label (at logit scale
400, a shifted product got about half of random lattices wrong).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ctc import BLANK, CtcResult, check_labels, ctc_label_counts
from .heads import log_posteriors
from .lm import PhoneLM


@dataclass
class DenominatorGraph:
    """State graph for the exact denominator forward-backward.

    A state is (lm context row, unit emitted at the current frame): `states`
    is an S x 2 array of these pairs.  A non-blank unit is the most recent
    label, so in a bigram LM its state's context is the row after that unit;
    blank states exist for every context.  From each state there is exactly
    one edge into a state of each unit:
      - a new label u, non-blank and unlike the previous frame's unit, with
        the LM weight of emitting u from the source's context;
      - a blank in the same context, weight 0;
      - a repeat of the source's non-blank unit, weight 0.

    `trans[i, j]` is exp(log-weight of the edge i -> j), 0 where there is no
    edge; the forward-backward reads only this matrix.  `incoming` lists the
    same edges per target state; nothing in the package reads it, but the
    benchmark harness counts the graph's edges from it.
    """

    states: np.ndarray  # S x 2: (context row, unit)
    trans: np.ndarray  # S x S edge weights, exp(log-weight) or 0
    # incoming[j] = (source state indices, transition log-weights)
    incoming: list[tuple[np.ndarray, np.ndarray]]
    init_logw: np.ndarray  # per-state initial weight (excl. emission score)
    final_logw: np.ndarray  # per-state end-of-sequence weight


def build_denominator_graph(n_units: int, lm: PhoneLM | None) -> DenominatorGraph:
    if lm is None:  # every label sequence weighs 1
        order, log_next, log_cont, log_stop = 1, np.zeros((1, n_units)), np.zeros(1), np.zeros(1)
    else:
        order, log_next, log_cont, log_stop = lm.order, lm.log_next, lm.log_cont, lm.log_stop

    n_ctx = n_units if order == 2 else 1
    ctx, unit = np.divmod(np.arange(n_ctx * n_units), n_units)
    keep = (unit == BLANK) | (ctx == unit) | (order == 1)
    states = np.stack([ctx, unit], axis=1)[keep]
    c, u = states.T

    # i -> j conditions, with the source i down the rows and the target j across
    new = (u != BLANK) & (u != u[:, None])
    blank = (u == BLANK) & (c == c[:, None])
    repeat = (u != BLANK) & (u == u[:, None])
    edge = new | blank | repeat
    lm_weight = log_cont[c][:, None] + log_next[c[:, None], u]
    logw = np.where(new, lm_weight, 0.0)

    incoming = [(np.flatnonzero(edge[:, j]), logw[edge[:, j], j]) for j in range(len(states))]
    return DenominatorGraph(
        states=states,
        trans=np.where(edge, np.exp(logw), 0.0),
        incoming=incoming,
        # the first frame leaves the start context, row 0, by a blank or a label
        init_logw=np.where(u == BLANK, np.where(c == 0, 0.0, -np.inf), log_cont[0] + log_next[0, u]),
        final_logw=log_stop[c],
    )


def _logsumexp(a: np.ndarray) -> float:
    m = np.max(a)
    if not np.isfinite(m):
        return m
    return m + np.log(np.exp(a - m).sum())


def denominator_forward_backward(graph: DenominatorGraph, logy: np.ndarray, backward: bool = True):
    """(log denominator, expected per-frame unit counts under the CRF, or None
    without `backward`).

    Row 0 of the frame loop is the forward recursion and row 1 the backward
    one over the reversed frames, as in `ctc_label_counts`; pre[t] holds each
    row's value before frame t's emission.  Without `backward` only row 0
    runs, which gives the same log denominator.  Each row is shifted by its
    maximum before the exp and its product with `graph.trans` (v @ trans
    forward, trans @ v backward); states no path reaches read -inf, since
    log(0) is taken without a warning.
    """
    T, N = logy.shape
    trans, unit = graph.trans, graph.states[:, 1]
    emit = logy[:, unit]
    pre = np.empty((T, 2 if backward else 1, len(unit)))
    em = np.empty_like(pre)
    em[:, 0], pre[0, 0] = emit, graph.init_logw
    if backward:
        em[:, 1], pre[0, 1] = emit[::-1], graph.final_logw
    x = pre[0] + em[0]  # each row's value after the frame's emission
    v, m = np.empty_like(x), np.empty((len(x), 1))
    with np.errstate(divide="ignore"):
        for t in range(1, T):
            np.maximum.reduce(x, axis=1, keepdims=True, out=m)
            np.exp(np.subtract(x, m, out=v), out=v)
            p = pre[t]
            np.matmul(v[0], trans, out=p[0])
            if backward:
                np.matmul(trans, v[1], out=p[1])
            np.log(p, out=p)
            p += m
            np.add(p, em[t], out=x)

    la = pre[:, 0] + emit
    logden = _logsumexp(la[T - 1] + graph.final_logw)
    if not backward:
        return logden, None
    lb = pre[::-1, 1]
    gamma = np.exp(la + lb - logden)
    counts = np.zeros((T, N))
    np.add.at(counts.T, unit, gamma.T)
    return logden, counts


def crf_loss(
    Z: np.ndarray,
    labels,
    lm: PhoneLM | None,
    graph: DenominatorGraph | None = None,
) -> CtcResult:
    """CTC-CRF negative log-likelihood and exact gradient w.r.t. the logits."""
    labels = list(labels)
    check_labels(labels, *Z.shape)
    nll, dZ = crf_batch_loss(Z, [len(Z)], [labels], lm, graph)
    return CtcResult(nll=float(nll[0]), dZ=dZ)


def crf_batch_loss(Z: np.ndarray, lengths, labels, lm: PhoneLM | None,
                   graph: DenominatorGraph | None = None, backward: bool = True):
    """(nll per utterance, dL/dZ or None) for utterances whose logits are
    stacked in Z, lengths[b] rows each; the labels are taken as feasible.

    The numerator is one batched `ctc_label_counts` call; the denominator
    runs once per utterance.
    """
    if graph is None:
        graph = build_denominator_graph(Z.shape[1], lm)
    logy = log_posteriors(Z)
    num_loglik, num_counts = ctc_label_counts(logy, lengths, labels, backward)
    lm_score = np.array([lm.score(lab) for lab in labels]) if lm is not None else 0.0

    logden = np.empty(len(labels))
    den_counts = np.empty_like(logy) if backward else None
    end = np.cumsum(lengths)
    for b, (lo, hi) in enumerate(zip(end - lengths, end)):
        logden[b], counts = denominator_forward_backward(graph, logy[lo:hi], backward)
        if backward:
            den_counts[lo:hi] = counts

    nll = -(lm_score + num_loglik) + logden
    return nll, (den_counts - num_counts if backward else None)
