import numpy as np
import pytest

from phonoam.crf import build_denominator_graph, crf_loss, denominator_forward_backward
from phonoam.ctc import ctc_loss
from phonoam.errors import EmptyCorpus
from phonoam.heads import log_posteriors
from phonoam.lm import train_phone_lm
from phonoam.selftest import (
    brute_force_crf_denominator,
    finite_difference,
    max_rel_err,
    _random_instance,
)

RNG = np.random.default_rng(31)


class TestPhoneLM:
    def test_unigram_counting(self):
        lm = train_phone_lm([[1], [1], [2]], order=1, smoothing=0.0)
        assert np.isclose(np.exp(lm.logp_next(1, ())), 2 / 3, atol=1e-12)

    def test_bigram_add_k(self):
        lm = train_phone_lm([[1, 2]], order=2, smoothing=1.0, vocab=[1, 2])
        assert np.isclose(np.exp(lm.logp_next(2, (1,))), (1 + 1) / (1 + 2))

    def test_conditionals_normalized(self):
        seqs = [[int(x) for x in RNG.integers(1, 5, size=RNG.integers(1, 6))] for _ in range(20)]
        for order in (1, 2):
            for k in (0.0, 0.5, 1.0):
                lm = train_phone_lm(seqs, order=order, smoothing=k)
                for ctx in lm.next_logp:
                    total = sum(np.exp(lm.logp_next(u, ctx)) for u in lm.vocab)
                    assert abs(total - 1.0) < 1e-10, (order, k, ctx)

    def test_continue_stop_normalized(self):
        lm = train_phone_lm([[1, 2], [2]], order=1, smoothing=1.0)
        for ctx in lm.cont_logp:
            assert abs(np.exp(lm.log_cont(ctx)) + np.exp(lm.log_stop(ctx)) - 1) < 1e-12

    def test_unseen_context_uniform_backoff(self):
        lm = train_phone_lm([[1, 2]], order=2, smoothing=1.0, vocab=[1, 2, 3])
        assert np.isclose(np.exp(lm.logp_next(3, (3,))), 1 / 3)

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
        import itertools

        total = 0.0
        for L in range(0, 8):
            for seq in itertools.product(lm.vocab, repeat=L):
                total += float(np.exp(lm.score(seq)))
        assert 0.97 < total <= 1.0 + 1e-9


class TestReduction:
    def test_matches_ctc_without_lm(self):
        for _ in range(20):
            Z, labels = _random_instance(RNG)
            a = ctc_loss(Z, labels)
            b = crf_loss(Z, labels, lm=None)
            assert abs(a.nll - b.nll) < 1e-8
            assert np.max(np.abs(a.dZ - b.dZ)) < 1e-8


class TestDenominator:
    def test_matches_brute_force_bigram(self):
        for _ in range(15):
            Z, labels = _random_instance(RNG, t_max=3, n_max=3)
            N = Z.shape[1]
            corpus = [[int(RNG.integers(1, N))] for _ in range(4)] + [labels]
            lm = train_phone_lm(corpus, order=2, smoothing=0.7, vocab=range(1, N))
            graph = build_denominator_graph(N, lm)
            logden, counts = denominator_forward_backward(graph, log_posteriors(Z))
            assert abs(logden - brute_force_crf_denominator(Z, lm)) < 1e-9
            # occupancies sum to one per frame
            assert np.allclose(counts.sum(axis=1), 1.0, atol=1e-10)

    def test_matches_brute_force_unigram(self):
        for _ in range(10):
            Z, labels = _random_instance(RNG, t_max=3, n_max=3)
            lm = train_phone_lm([labels], order=1, smoothing=1.0, vocab=range(1, Z.shape[1]))
            graph = build_denominator_graph(Z.shape[1], lm)
            logden, _ = denominator_forward_backward(graph, log_posteriors(Z))
            assert abs(logden - brute_force_crf_denominator(Z, lm)) < 1e-9


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
