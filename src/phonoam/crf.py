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
from .lm import BOS, PhoneLM


@dataclass
class DenominatorGraph:
    """State graph for the exact denominator forward-backward.

    A state is (lm context, unit emitted at the current frame).  Transition
    into (ctx', u) carries the LM weight of emitting u as a NEW label when u
    is non-blank and differs from the previous frame's unit; blanks and
    repeats carry no LM weight.

    `trans[i, j]` is exp(log-weight of the edge i -> j), 0 where there is no
    edge; the forward-backward reads only this matrix.  `incoming` lists the
    same edges per target state; nothing in the package reads it, but the
    benchmark harness counts the graph's edges from it.
    """

    states: list[tuple[tuple, int]]
    trans: np.ndarray  # S x S edge weights, exp(log-weight) or 0
    # incoming[j] = (source state indices, transition log-weights)
    incoming: list[tuple[np.ndarray, np.ndarray]]
    init_logw: np.ndarray  # per-state initial weight (excl. emission score)
    final_logw: np.ndarray  # per-state end-of-sequence weight
    state_unit: np.ndarray  # unit component of each state


def build_denominator_graph(n_units: int, lm: PhoneLM | None) -> DenominatorGraph:
    if lm is None:
        contexts = [()]
        start = ()
        ctx_after = lambda ctx, u: ()
        lm_weight = lambda ctx, u: 0.0
        final = lambda ctx: 0.0
    else:
        start = lm.start_context()
        if lm.order == 1:
            contexts = [()]
        else:
            contexts = [(BOS,)] + [(u,) for u in range(1, n_units)]
        ctx_after = lm.context_after
        lm_weight = lambda ctx, u: lm.log_cont(ctx) + lm.logp_next(u, ctx)
        final = lm.log_stop

    states: list[tuple[tuple, int]] = []
    for ctx in contexts:
        for u in range(n_units):
            # a non-blank frame unit is always the most recent emitted label,
            # so its context must be consistent with itself
            if u != BLANK and lm is not None and lm.order == 2 and ctx != (u,):
                continue
            states.append((ctx, u))
    state_index = {s: i for i, s in enumerate(states)}
    S = len(states)

    init_logw = np.full(S, -np.inf)
    blank_start = state_index[(start, BLANK)]
    init_logw[blank_start] = 0.0
    for u in range(1, n_units):
        j = state_index[(ctx_after(start, u), u)]
        init_logw[j] = np.logaddexp(init_logw[j], lm_weight(start, u))

    edges: list[list[tuple[int, float]]] = [[] for _ in range(S)]
    for i, (ctx, v) in enumerate(states):
        # stay on blank or repeat the same non-blank unit: no LM weight
        edges[state_index[(ctx, BLANK)]].append((i, 0.0))
        if v != BLANK:
            edges[i].append((i, 0.0))
        # emit a new label u != v
        for u in range(1, n_units):
            if u == v:
                continue
            j = state_index[(ctx_after(ctx, u), u)]
            edges[j].append((i, lm_weight(ctx, u)))

    incoming = []
    trans = np.zeros((S, S))
    for j in range(S):
        src = np.array([e[0] for e in edges[j]], dtype=int)
        w = np.array([e[1] for e in edges[j]])
        incoming.append((src, w))
        trans[src, j] = np.exp(w)

    return DenominatorGraph(
        states=states,
        trans=trans,
        incoming=incoming,
        init_logw=init_logw,
        final_logw=np.array([final(ctx) for ctx, _ in states]),
        state_unit=np.array([u for _, u in states]),
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

