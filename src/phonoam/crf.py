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
(probabilities, 0 where there is no edge), so each frame of the forward and
of the backward pass is one matrix-vector product in the log domain, shifted
by the frame's maximum: only the loop over frames is left in Python.  The
per-state edge lists the graph also keeps are read only by the benchmark
harness, which counts the graph's edges from them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ctc import BLANK, CtcResult, check_feasible, ctc_label_counts
from .errors import InfeasibleLength
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
    state_unit: np.ndarray  # unit component of each state


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
        state_unit=u,
    )


def _logsumexp(a: np.ndarray) -> float:
    m = np.max(a)
    if not np.isfinite(m):
        return m
    return m + np.log(np.exp(a - m).sum())


def denominator_forward_backward(graph: DenominatorGraph, logy: np.ndarray):
    """(log denominator, expected per-frame unit counts under the CRF).

    Each frame is one product with `graph.trans`, taken on exp(row - max of
    the row) and moved back to the log domain; states no path reaches read
    -inf, since log(0) is taken without a warning.
    """
    T, N = logy.shape
    trans = graph.trans
    emit = logy[:, graph.state_unit]
    la = np.empty_like(emit)
    lb = np.empty_like(emit)
    la[0] = graph.init_logw + emit[0]
    lb[T - 1] = graph.final_logw
    with np.errstate(divide="ignore"):
        for t in range(1, T):
            m = la[t - 1].max()
            la[t] = np.log(np.exp(la[t - 1] - m) @ trans) + m + emit[t]
        for t in range(T - 2, -1, -1):
            x = lb[t + 1] + emit[t + 1]
            m = x.max()
            lb[t] = np.log(trans @ np.exp(x - m)) + m

    logden = _logsumexp(la[T - 1] + graph.final_logw)
    gamma = np.exp(la + lb - logden)
    counts = np.zeros((T, N))
    np.add.at(counts.T, graph.state_unit, gamma.T)
    return logden, counts


def crf_loss(
    Z: np.ndarray,
    labels,
    lm: PhoneLM | None,
    graph: DenominatorGraph | None = None,
) -> CtcResult:
    """CTC-CRF negative log-likelihood and exact gradient w.r.t. the logits."""
    labels = list(labels)
    if not labels or any(lab == BLANK for lab in labels):
        raise InfeasibleLength("labels must be non-empty and blank-free")
    T, N = Z.shape
    if any(not 0 < lab < N for lab in labels):
        raise InfeasibleLength(f"label out of range for {N} units")
    check_feasible(T, labels)

    logy = log_posteriors(Z)
    num_loglik, num_counts = ctc_label_counts(logy, labels)
    lm_score = lm.score(labels) if lm is not None else 0.0

    if graph is None:
        graph = build_denominator_graph(N, lm)
    logden, den_counts = denominator_forward_backward(graph, logy)

    nll = -(lm_score + num_loglik) + logden
    dZ = den_counts - num_counts
    return CtcResult(nll=float(nll), dZ=dZ)

