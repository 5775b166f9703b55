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
    """

    states: list[tuple[tuple, int]]
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
    for j in range(S):
        src = np.array([e[0] for e in edges[j]], dtype=int)
        w = np.array([e[1] for e in edges[j]])
        incoming.append((src, w))

    return DenominatorGraph(
        states=states,
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
    """(log denominator, expected per-frame unit counts under the CRF)."""
    T, N = logy.shape
    S = len(graph.states)
    la = np.full((T, S), -np.inf)
    la[0] = graph.init_logw + logy[0, graph.state_unit]
    for t in range(1, T):
        for j in range(S):
            src, w = graph.incoming[j]
            la[t, j] = _logsumexp(la[t - 1, src] + w)
        la[t] += logy[t, graph.state_unit]

    logden = _logsumexp(la[T - 1] + graph.final_logw)

    lb = np.full((T, S), -np.inf)
    lb[T - 1] = graph.final_logw
    for t in range(T - 2, -1, -1):
        contrib = lb[t + 1] + logy[t + 1, graph.state_unit]
        for j in range(S):
            src, w = graph.incoming[j]
            vals = contrib[j] + w
            np.logaddexp.at(lb[t], src, vals)

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

