import itertools

import numpy as np
import pytest

from phonoam import crf
from phonoam.crf import (
    _logsumexp,
    build_denominator_graph,
    crf_batch_loss,
    crf_loss,
    denominator_forward_backward,
)
from phonoam.ctc import collapse, ctc_loss
from phonoam.errors import EmptyCorpus
from phonoam.heads import log_posteriors
from phonoam.lm import train_phone_lm
from phonoam.selftest import (
    brute_force_crf_denominator,
    finite_difference,
    max_rel_err,
    _random_instance,
)
from lattice_reference import reference_denominator

RNG = np.random.default_rng(31)


class TestPhoneLM:
    def test_unigram_counting(self):
        lm = train_phone_lm([[1], [1], [2]], order=1, smoothing=0.0)
        assert np.isclose(np.exp(lm.log_next[0, 1]), 2 / 3, atol=1e-12)

    def test_bigram_add_k(self):
        lm = train_phone_lm([[1, 2]], order=2, smoothing=1.0, vocab=[1, 2])
        assert np.isclose(np.exp(lm.log_next[1, 2]), (1 + 1) / (1 + 2))

    def test_conditionals_normalized(self):
        # every row, the backoff rows of contexts never seen included
        seqs = [[int(x) for x in RNG.integers(1, 5, size=RNG.integers(1, 6))] for _ in range(20)]
        for order in (1, 2):
            for k in (0.0, 0.5, 1.0):
                lm = train_phone_lm(seqs, order=order, smoothing=k)
                assert lm.log_next.shape == (5 if order == 2 else 1, 5)
                assert np.isneginf(lm.log_next[:, 0]).all()  # blank is never a label
                total = np.exp(lm.log_next).sum(axis=1)
                assert np.all(np.abs(total - 1.0) < 1e-10), (order, k, total)

    def test_continue_stop_normalized(self):
        for order in (1, 2):
            lm = train_phone_lm([[1, 2], [2]], order=order, smoothing=1.0)
            total = np.exp(lm.log_cont) + np.exp(lm.log_stop)
            assert np.all(np.abs(total - 1) < 1e-12), (order, total)

    def test_unseen_context_uniform_backoff(self):
        lm = train_phone_lm([[1, 2]], order=2, smoothing=1.0, vocab=[1, 2, 3])
        assert np.allclose(np.exp(lm.log_next[3, 1:]), 1 / 3)
        assert np.isclose(np.exp(lm.log_cont[3]), 0.5) and np.isclose(np.exp(lm.log_stop[3]), 0.5)

    def test_negative_smoothing_rejected(self):
        with pytest.raises(ValueError, match="smoothing"):
            train_phone_lm([[1, 2]], order=1, smoothing=-1)

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            train_phone_lm([], order=1)
        with pytest.raises(EmptyCorpus):
            train_phone_lm([[]], order=1)

    def test_score_sums_to_one_over_short_sequences(self):
        # proper distribution: total mass over sequences up to a long horizon
        lm = train_phone_lm([[1], [2, 1], [1, 2]], order=2, smoothing=1.0)
        total = 0.0
        for L in range(0, 8):
            for seq in itertools.product((1, 2), repeat=L):  # the vocab: labels seen in training
                total += float(np.exp(lm.score(seq)))
        assert 0.97 < total <= 1.0 + 1e-9

    @pytest.mark.parametrize("order", [1, 2])
    def test_score_reads_the_tables_label_by_label(self, order):
        lm = train_phone_lm([[1, 2, 2], [3], [2, 1]], order=order, smoothing=0.5, vocab=range(1, 5))
        for labels in ([], [4], [1, 2, 2, 3, 1], [3, 3, 4, 1]):
            total, ctx = 0.0, 0
            for lab in labels:
                total += lm.log_cont[ctx] + lm.log_next[ctx, lab]
                ctx = lab if order == 2 else 0
            assert lm.score(labels) == total + lm.log_stop[ctx]


class TestReduction:
    def test_matches_ctc_without_lm(self):
        for _ in range(20):
            Z, labels = _random_instance(RNG)
            a = ctc_loss(Z, labels)
            b = crf_loss(Z, labels, lm=None)
            assert abs(a.nll - b.nll) < 1e-8
            assert np.max(np.abs(a.dZ - b.dZ)) < 1e-8


def brute_force_occupancy(Z, lm):
    """Per-frame unit occupancy under the CRF, by enumerating all frame paths."""
    y = np.exp(log_posteriors(Z))
    T, N = Z.shape
    counts = np.zeros((T, N))
    for path in itertools.product(range(N), repeat=T):
        p = np.prod(y[np.arange(T), path]) * np.exp(lm.score(collapse(path)))
        counts[np.arange(T), path] += p
    return counts / counts[0].sum()


def edge_list_denominator(graph, logy):
    """The per-state recursion over `graph.incoming` that the matrix form replaced."""
    T, S = len(logy), len(graph.states)
    emit = logy[:, graph.states[:, 1]]
    la, lb = np.full((T, S), -np.inf), np.full((T, S), -np.inf)
    la[0] = graph.init_logw + emit[0]
    lb[T - 1] = graph.final_logw
    for t in range(1, T):
        for j, (src, w) in enumerate(graph.incoming):
            la[t, j] = np.logaddexp.reduce(la[t - 1, src] + w) + emit[t, j]
    for t in range(T - 2, -1, -1):
        for j, (src, w) in enumerate(graph.incoming):
            np.logaddexp.at(lb[t], src, lb[t + 1, j] + emit[t + 1, j] + w)
    logden = np.logaddexp.reduce(la[T - 1] + graph.final_logw)
    counts = np.zeros_like(logy)
    np.add.at(counts.T, graph.states[:, 1], np.exp(la + lb - logden).T)
    return logden, counts


def two_loop_denominator(graph, logy):
    """The denominator with one loop over frames per direction, which the
    two-row loop replaced: the same shifted products, one row at a time."""
    T = len(logy)
    trans, unit = graph.trans, graph.states[:, 1]
    emit = logy[:, unit]
    la, lb = np.empty_like(emit), np.empty_like(emit)
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
    counts = np.zeros_like(logy)
    np.add.at(counts.T, unit, np.exp(la + lb - logden).T)
    return logden, counts


def check_against_brute_force(Z, lm):
    logden, counts = denominator_forward_backward(
        build_denominator_graph(Z.shape[1], lm), log_posteriors(Z)
    )
    assert abs(logden - brute_force_crf_denominator(Z, lm)) < 1e-9
    assert np.max(np.abs(counts - brute_force_occupancy(Z, lm))) < 1e-9
    return counts


class TestDenominator:
    def test_matches_brute_force_bigram(self):
        for _ in range(15):
            Z, labels = _random_instance(RNG, t_max=3, n_max=5)
            N = Z.shape[1]
            corpus = [[int(RNG.integers(1, N))] for _ in range(4)] + [labels]
            lm = train_phone_lm(corpus, order=2, smoothing=0.7, vocab=range(1, N))
            counts = check_against_brute_force(Z, lm)
            # occupancies sum to one per frame
            assert np.allclose(counts.sum(axis=1), 1.0, atol=1e-10)

    def test_matches_brute_force_unigram(self):
        for _ in range(10):
            Z, labels = _random_instance(RNG, t_max=3, n_max=5)
            lm = train_phone_lm([labels], order=1, smoothing=1.0, vocab=range(1, Z.shape[1]))
            check_against_brute_force(Z, lm)

    @pytest.mark.parametrize("order", [1, 2])
    def test_matches_brute_force_without_smoothing(self, order):
        # add-0 estimates give unseen labels and transitions a weight of -inf,
        # so the transition matrix holds zeros off the edges of the corpus
        for _ in range(10):
            Z, labels = _random_instance(RNG, t_max=3, n_max=5)
            N = Z.shape[1]
            corpus = [labels] + [[int(RNG.integers(1, N))] for _ in range(2)]
            lm = train_phone_lm(corpus, order=order, smoothing=0.0, vocab=range(1, N))
            check_against_brute_force(Z, lm)

    def test_matches_brute_force_large_logits(self):
        for order in (1, 2):
            for _ in range(10):
                Z, labels = _random_instance(RNG, t_max=3, n_max=5)
                Z *= 15.0  # logits drawn at scale 30
                N = Z.shape[1]
                corpus = [[int(RNG.integers(1, N))] for _ in range(4)] + [labels]
                lm = train_phone_lm(corpus, order=order, smoothing=0.5, vocab=range(1, N))
                check_against_brute_force(Z, lm)

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("smoothing", [0.0, 1.0])
    def test_matches_edge_list_recursion_on_long_utterances(self, order, smoothing):
        N, T = 8, 1000  # log denominator near -1400: exp of it underflows without a shift
        corpus = [[int(u) for u in RNG.integers(1, N, size=RNG.integers(1, 6))] for _ in range(10)]
        lm = train_phone_lm(corpus, order=order, smoothing=smoothing, vocab=range(1, N))
        graph = build_denominator_graph(N, lm)
        for scale in (2.0, 30.0):
            logy = log_posteriors(RNG.normal(0.0, scale, size=(T, N)))
            logden, counts = denominator_forward_backward(graph, logy)
            ref_logden, ref_counts = edge_list_denominator(graph, logy)
            assert abs(logden - ref_logden) < 1e-12 * abs(ref_logden)
            assert np.max(np.abs(counts - ref_counts)) < 1e-9

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("smoothing", [0.0, 1.0])
    def test_bit_identical_to_two_loop_recursion(self, order, smoothing):
        rng = np.random.default_rng(order * 10 + int(smoothing))
        for T in (1, 2, 7, 40, 1000):
            N = int(rng.integers(2, 70))
            corpus = [[int(u) for u in rng.integers(1, N, size=rng.integers(1, 6))] for _ in range(10)]
            lm = train_phone_lm(corpus, order=order, smoothing=smoothing, vocab=range(1, N))
            graph = build_denominator_graph(N, lm)
            for scale in (0.5, 3.0, 30.0):
                logy = log_posteriors(rng.normal(0.0, scale, size=(T, N)))
                logden, counts = denominator_forward_backward(graph, logy)
                ref_logden, ref_counts = two_loop_denominator(graph, logy)
                assert logden == ref_logden, (T, N, scale)
                assert np.array_equal(counts, ref_counts), (T, N, scale)

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("smoothing", [0.0, 1.0])
    def test_batched_call_matches_per_utterance_calls(self, order, smoothing):
        rng = np.random.default_rng(40 + order * 10 + int(smoothing))
        N = 12
        corpus = [[int(u) for u in rng.integers(1, N, size=rng.integers(1, 6))] for _ in range(10)]
        graph = build_denominator_graph(N, train_phone_lm(corpus, order=order, smoothing=smoothing, vocab=range(1, N)))
        for B in range(1, 9):
            for scale in (0.5, 3.0, 30.0):
                lengths = rng.integers(1, 30, size=B)
                lengths[rng.integers(B)] = 1  # a lane that ends at its first frame
                logy = log_posteriors(rng.normal(0.0, scale, size=(lengths.sum(), N)))
                logden, counts = denominator_forward_backward(graph, logy, lengths)
                assert logden.shape == (B,) and counts.shape == logy.shape
                end = np.cumsum(lengths)
                for b, (lo, hi) in enumerate(zip(end - lengths, end)):
                    ref_logden, ref_counts = denominator_forward_backward(graph, logy[lo:hi])
                    assert abs(logden[b] - ref_logden) <= 1e-12 * abs(ref_logden), (B, scale, b)
                    assert np.max(np.abs(counts[lo:hi] - ref_counts)) <= 1e-12, (B, scale, b)

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("smoothing", [0.0, 1.0])
    def test_same_bits_as_the_last_frame_kernel(self, order, smoothing):
        # the kernel that let a lane past its end re-read its last frame, and
        # enumerated each utterance's frames in turn
        rng = np.random.default_rng(60 + order * 10 + int(smoothing))
        for B in range(1, 9):
            N = int(rng.integers(2, 20))
            corpus = [[int(u) for u in rng.integers(1, N, size=rng.integers(1, 6))] for _ in range(10)]
            lm = train_phone_lm(corpus, order=order, smoothing=smoothing, vocab=range(1, N))
            graph = build_denominator_graph(N, lm)
            for scale in (0.5, 3.0, 30.0):
                lengths = rng.integers(1, 30, size=B)
                lengths[rng.integers(B)] = 1  # a lane that ends at its first frame
                logy = log_posteriors(rng.normal(0.0, scale, size=(lengths.sum(), N)))
                logden, counts = denominator_forward_backward(graph, logy, lengths)
                ref_logden, ref_counts = reference_denominator(graph, logy, lengths)
                assert np.array_equal(logden, ref_logden), (B, N, scale)
                assert np.array_equal(counts, ref_counts), (B, N, scale)

    @pytest.mark.parametrize("order", [1, 2])
    def test_forward_lanes_alone_give_the_same_log_denominators(self, order):
        rng = np.random.default_rng(50 + order)
        N = 9
        corpus = [[int(u) for u in rng.integers(1, N, size=rng.integers(1, 6))] for _ in range(10)]
        graph = build_denominator_graph(N, train_phone_lm(corpus, order=order, smoothing=0.5, vocab=range(1, N)))
        for lengths in ([1], [17], [3, 1, 25, 8], [40, 40]):
            logy = log_posteriors(rng.normal(0.0, 3.0, size=(sum(lengths), N)))
            logden, _ = denominator_forward_backward(graph, logy, lengths)
            alone, counts = denominator_forward_backward(graph, logy, lengths, backward=False)
            assert counts is None
            assert np.array_equal(alone, logden)

    @pytest.mark.parametrize("order", [1, 2])
    def test_trans_equals_edge_lists(self, order):
        N = 6  # unit 5 is never seen
        lm = train_phone_lm([[1, 2, 3], [4, 1], [2]], order=order, smoothing=0.0, vocab=range(1, N))
        graph = build_denominator_graph(N, lm)
        assert any(np.isneginf(w).any() for _, w in graph.incoming)  # add-0 leaves edges of weight 0
        expected = np.zeros_like(graph.trans)
        for j, (src, w) in enumerate(graph.incoming):
            assert len(np.unique(src)) == len(src)  # no edge listed twice
            expected[src, j] = np.exp(w)
        assert np.array_equal(graph.trans, expected)


    @pytest.mark.parametrize("order", [1, 2])
    def test_one_edge_into_a_state_of_each_unit(self, order):
        for N in (2, 5, 69):
            lm = train_phone_lm([list(range(1, N))], order=order, smoothing=0.0, vocab=range(1, N))
            graph = build_denominator_graph(N, lm)
            S = len(graph.states)
            assert S == (2 * N - 1 if order == 2 else N)
            edges = np.zeros((S, S), dtype=int)
            for j, (src, _) in enumerate(graph.incoming):
                edges[src, j] += 1
            per_unit = edges @ (graph.states[:, 1][:, None] == np.arange(N))
            assert np.array_equal(per_unit, np.ones((S, N)))
            assert edges.sum() == S * N
        assert order == 1 or edges.sum() == 9453  # N = 69 bigram


class TestCrfLoss:
    def test_nll_nonnegative(self):
        for _ in range(10):
            Z, labels = _random_instance(RNG, t_max=3, n_max=3)
            lm = train_phone_lm([labels, [1]], order=1, smoothing=1.0, vocab=range(1, Z.shape[1]))
            assert crf_loss(Z, labels, lm).nll >= -1e-10

    def test_uniform_unigram_is_constant_shift_at_t1(self):
        # denominator shift is constant across labels, so the ranking of
        # single-label hypotheses matches plain CTC
        N = 4
        Z = RNG.normal(0, 2, size=(1, N))
        lm = train_phone_lm([[u] for u in range(1, N)], order=1, smoothing=1.0,
                            vocab=range(1, N))
        shifts = []
        for lab in range(1, N):
            shifts.append(crf_loss(Z, [lab], lm).nll - ctc_loss(Z, [lab]).nll)
        assert np.allclose(shifts, shifts[0], atol=1e-9)

    def test_gradient_check(self):
        Z, labels = _random_instance(RNG, t_max=3, n_max=3)
        lm = train_phone_lm([labels, [1]], order=2, smoothing=0.5, vocab=range(1, Z.shape[1]))
        fd = finite_difference(lambda z: crf_loss(z, labels, lm).nll, Z)
        assert max_rel_err(fd, crf_loss(Z, labels, lm).dZ, floor=1e-8) < 1e-4

    @pytest.mark.parametrize("order", [None, 1, 2])
    def test_the_graph_carries_the_lm_it_composes(self, order):
        # crf_batch_loss scores the references by graph.lm: no LM argument
        N = 4
        Z, labels = RNG.normal(0.0, 2.0, size=(5, N)), [1, 3, 3]
        lm = None if order is None else train_phone_lm([labels, [2]], order=order, smoothing=1.0, vocab=range(1, N))
        graph = build_denominator_graph(N, lm)
        assert graph.lm is lm
        nll, dZ = crf_batch_loss(Z, [len(Z)], [labels], graph)
        res = crf_loss(Z, labels, lm)
        assert nll[0] == res.nll and np.array_equal(dZ, res.dZ)

    @pytest.mark.parametrize("backward", [True, False])
    def test_one_denominator_call_per_batch(self, monkeypatch, backward):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1].shape)
            return denominator_forward_backward(*args, **kwargs)

        monkeypatch.setattr(crf, "denominator_forward_backward", counted)
        N, lengths = 5, [4, 1, 7, 3, 6]
        Z = RNG.normal(0.0, 2.0, size=(sum(lengths), N))
        labels = [[1, 2], [3], [4, 4, 1], [2], [1, 3, 2]]
        lm = train_phone_lm(labels, order=2, smoothing=1.0, vocab=range(1, N))
        nll, _ = crf_batch_loss(Z, lengths, labels, build_denominator_graph(N, lm), backward=backward)
        assert calls == [Z.shape] and nll.shape == (len(lengths),)

    def test_no_lm_gradient_equals_ctc(self):
        Z, labels = _random_instance(RNG)
        assert np.max(np.abs(crf_loss(Z, labels, lm=None).dZ - ctc_loss(Z, labels).dZ)) < 1e-8

    def test_symmetric_units_symmetric_gradient(self):
        # zero logits + LM symmetric in units 1 and 2 -> identical gradient columns
        Z = np.zeros((2, 3))
        lm = train_phone_lm([[1], [2]], order=1, smoothing=1.0, vocab=[1, 2])
        res = crf_loss(Z, [1, 2], lm)
        # numerator is symmetric under swapping labels [1,2] -> [2,1]
        res2 = crf_loss(Z, [2, 1], lm)
        assert np.allclose(res.nll, res2.nll)
        assert np.allclose(res.dZ[:, 1], res2.dZ[:, 2])
