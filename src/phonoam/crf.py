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
(probabilities, 0 where there is no edge).  `denominator_forward_backward`
scores a whole batch in one loop over frames, with the lane layout of CTC's
`ctc_label_counts`: lane b runs utterance b's forward recursion and lane
B + b its backward one over its own frames reversed.  Each frame is one max,
one exp and one log over every lane, each lane shifted by its maximum, plus
one matrix product for the forward lanes (v @ trans) and one for the backward
lanes (v @ trans.T): only the loop over frames, as long as the longest
utterance, is left in Python.  A loss that needs no gradient runs the forward
lanes alone.  A lane past its own end reads the pad row of `lane_rows`, the
padding rule of both kernels; it emits 0 here, so no lane's max shift is the
NaN of -inf - -inf.  The per-state edge lists the graph also keeps are read
only by the benchmark harness, which counts the graph's edges from them.

The graph is the loss: it keeps the PhoneLM it composes, which scores the
references.  `batch_loss` is the package's one batch loss, CTC without a
graph and CTC-CRF under one: it scores a batch of utterances with one
`log_posteriors` call and one call of CTC's batched lattice kernel,
`ctc_label_counts`, which gives the CTC loss or the CTC-CRF numerator, plus,
under a graph, one `denominator_forward_backward` call for the denominator;
`crf_loss` is its batch of one.  The numerator keeps CTC's exact logaddexp
lattice: the shift flushes states over ~745 nats below the frame's best to
zero, and in a label lattice such a state may be the only one still able to
reach the last label (at logit scale 400, a shifted product got about half
of random lattices wrong).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ctc import BLANK, CtcResult, check_labels, ctc_label_counts, lane_rows, scatter_counts
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
    benchmark harness counts the graph's edges from it.  `lm` is the PhoneLM
    composed, None where every label sequence weighs 1.
    """

    states: np.ndarray  # S x 2: (context row, unit)
    trans: np.ndarray  # S x S edge weights, exp(log-weight) or 0
    # incoming[j] = (source state indices, transition log-weights)
    incoming: list[tuple[np.ndarray, np.ndarray]]
    init_logw: np.ndarray  # per-state initial weight (excl. emission score)
    final_logw: np.ndarray  # per-state end-of-sequence weight
    lm: PhoneLM | None


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

    tgt, src = np.nonzero(edge.T)  # by target, each target's sources in order
    cuts = np.cumsum(edge.sum(axis=0))[:-1]
    incoming = list(zip(np.split(src, cuts), np.split(logw[src, tgt], cuts)))
    return DenominatorGraph(
        states=states,
        trans=np.where(edge, np.exp(logw), 0.0),
        incoming=incoming,
        # the first frame leaves the start context, row 0, by a blank or a label
        init_logw=np.where(u == BLANK, np.where(c == 0, 0.0, -np.inf), log_cont[0] + log_next[0, u]),
        final_logw=log_stop[c],
        lm=lm,
    )


def _logsumexp(a: np.ndarray):
    """log(sum(exp(a))) over the last axis, each row shifted by its maximum; a
    row whose maximum is not finite gives that maximum."""
    m = np.max(a, axis=-1)
    finite = np.isfinite(m)
    shift = np.where(finite, m, 0.0)
    with np.errstate(divide="ignore"):
        total = shift + np.log(np.exp(a - shift[..., None]).sum(axis=-1))
    return np.where(finite, total, m)


def denominator_forward_backward(graph: DenominatorGraph, logy: np.ndarray, lengths=None,
                                 backward: bool = True):
    """(log denominator per utterance, expected per-frame unit counts under the
    CRF stacked as logy is, or None without `backward`).

    logy stacks the utterances' log-posteriors, lengths[b] rows each; without
    `lengths` it is one utterance, and the log denominator is a float.  Lane b
    of the frame loop is utterance b's forward recursion and, with
    `backward`, lane B + b its backward one over its reversed frames (see
    `lane_rows`); pre[t] holds each lane's value before step t's emission.
    Without `backward` only the forward lanes run, which gives the same log
    denominators.  Each lane is shifted by its maximum before the exp and its
    product with `graph.trans` (v @ trans forward, v @ trans.T backward);
    states no path reaches read -inf, since log(0) is taken without a warning.
    """
    T = np.array([len(logy)] if lengths is None else lengths)
    B = len(T)
    trans, unit = graph.trans, graph.states[:, 1]
    rows = lane_rows(T, backward)
    em = np.vstack([logy, np.zeros(logy.shape[1])])[:, unit][rows]  # steps x lanes x states
    pre = np.empty(em.shape)
    pre[0, :B] = graph.init_logw
    pre[0, B:] = graph.final_logw
    x = pre[0] + em[0]  # each lane's value after the step's emission
    v, m = np.empty_like(x), np.empty((len(x), 1))
    with np.errstate(divide="ignore"):
        for t in range(1, len(pre)):
            np.maximum.reduce(x, axis=1, keepdims=True, out=m)
            np.exp(np.subtract(x, m, out=v), out=v)
            p = pre[t]
            np.matmul(v[:B], trans, out=p[:B])
            if backward:
                np.matmul(v[B:], trans.T, out=p[B:])
            np.log(p, out=p)
            p += m
            np.add(p, em[t], out=x)

    b = np.arange(B)
    logden = _logsumexp(pre[T - 1, b] + em[T - 1, b] + graph.final_logw)
    counts = None
    if backward:
        # every utterance's real steps in stacked order: step t of lane b, and
        # step T_b - 1 - t of lane B + b; each frame's states are added in order
        b, t = np.nonzero(rows[:, :B].T < len(logy))
        la = pre[t, b] + em[t, b]
        lb = pre[T[b] - 1 - t, B + b]
        gamma = np.exp(la + lb - logden[b, None])
        counts = scatter_counts(rows[t, b][:, None], unit, gamma, logy.shape)
    return (float(logden[0]) if lengths is None else logden), counts


def crf_loss(
    Z: np.ndarray,
    labels,
    lm: PhoneLM | None,
    graph: DenominatorGraph | None = None,
) -> CtcResult:
    """CTC-CRF negative log-likelihood and exact gradient w.r.t. the logits,
    under `graph`, by default `build_denominator_graph(Z.shape[1], lm)`."""
    labels = list(labels)
    check_labels(labels, *Z.shape)
    if graph is None:
        graph = build_denominator_graph(Z.shape[1], lm)
    nll, dZ = batch_loss(Z, [len(Z)], [labels], graph)
    return CtcResult(nll=float(nll[0]), dZ=dZ)


def batch_loss(Z: np.ndarray, lengths, labels, graph: DenominatorGraph | None = None, backward: bool = True):
    """(nll per utterance, dL/dZ stacked as the logits Z are, or None without
    `backward`): CTC without a graph, CTC-CRF under it.  Z stacks the logits
    of utterances of these lengths, whose labels are taken as feasible.

    One `ctc_label_counts` call gives the CTC loss, or under a graph the
    numerator, to which the references' scores under `graph.lm` and one
    `denominator_forward_backward` call over the same log-posteriors add.
    """
    logy = log_posteriors(Z)
    loglik, counts = ctc_label_counts(logy, lengths, labels, backward)
    if graph is None:
        return -loglik, (np.exp(logy) - counts if backward else None)
    lm_score = np.array([graph.lm.score(lab) for lab in labels]) if graph.lm is not None else 0.0
    logden, den_counts = denominator_forward_backward(graph, logy, lengths, backward)
    nll = -(lm_score + loglik) + logden
    return nll, (den_counts - counts if backward else None)
