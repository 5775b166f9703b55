import numpy as np
import pytest
from hypothesis import given, strategies as st

from phonoam.ctc import BLANK, collapse, ctc_label_counts, ctc_loss, greedy_decode, scatter_counts
from phonoam.errors import InfeasibleLength, NonFiniteInput
from phonoam.heads import log_posteriors
from phonoam.selftest import brute_force_ctc, finite_difference, max_rel_err
from lattice_reference import reference_ctc_label_counts

RNG = np.random.default_rng(23)


class TestCollapse:
    def test_basic(self):
        assert collapse([0, 1, 1, 0, 2]) == [1, 2]

    def test_blank_separates_repeats(self):
        assert collapse([1, 0, 1]) == [1, 1]

    def test_all_blank_raises(self):
        assert collapse([0, 0]) == []

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=12))
    def test_matches_groupby_oracle(self, path):
        import itertools

        out = collapse(path)
        assert 0 not in out
        # reference: merge consecutive duplicates, then drop blanks
        assert out == [k for k, _ in itertools.groupby(path) if k != 0]

    @given(st.lists(st.integers(1, 3), min_size=1, max_size=8))
    def test_blank_free_repeat_free_is_fixed_point(self, seq):
        dedup = [u for i, u in enumerate(seq) if i == 0 or u != seq[i - 1]]
        assert collapse(dedup) == dedup


class TestLoss:
    def test_single_frame_uniform(self):
        res = ctc_loss(np.zeros((1, 2)), [1])
        assert np.isclose(res.nll, -np.log(0.5))

    def test_two_frames_uniform(self):
        # paths aa, blank-a, a-blank out of 4 equiprobable
        res = ctc_loss(np.zeros((2, 2)), [1])
        assert np.isclose(res.nll, -np.log(0.75))

    def test_infeasible_length(self):
        with pytest.raises(InfeasibleLength):
            ctc_loss(np.zeros((1, 3)), [1, 2])
        with pytest.raises(InfeasibleLength):
            ctc_loss(np.zeros((2, 3)), [1, 1])  # repeat needs a blank frame

    def test_rejects_blank_label_and_empty(self):
        with pytest.raises(InfeasibleLength):
            ctc_loss(np.zeros((3, 3)), [0, 1])
        with pytest.raises(InfeasibleLength):
            ctc_loss(np.zeros((3, 3)), [])

    def test_non_finite_rejected(self):
        Z = np.zeros((2, 2))
        Z[0, 0] = np.inf
        with pytest.raises(NonFiniteInput):
            ctc_loss(Z, [1])

    def test_matches_brute_force_enumeration(self):
        for _ in range(30):
            T = int(RNG.integers(1, 5))
            N = int(RNG.integers(2, 5))
            labels = [int(RNG.integers(1, N))]
            if T >= 2 and RNG.random() < 0.5 and N > 2:
                labels.append(int(RNG.integers(1, N)))
                if labels[0] == labels[1] and T < 3:
                    labels = labels[:1]
            Z = RNG.normal(0, 2, size=(T, N))
            res = ctc_loss(Z, labels)
            assert abs(res.nll + brute_force_ctc(Z, labels)) < 1e-9

    def test_gradient_matches_finite_differences(self):
        for _ in range(10):
            Z = RNG.normal(0, 2, size=(4, 3))
            labels = [1, 2]
            res = ctc_loss(Z, labels)
            fd = finite_difference(lambda z: ctc_loss(z, labels).nll, Z)
            assert max_rel_err(fd, res.dZ) < 1e-4

    def test_gradient_rows_sum_to_zero(self):
        Z = RNG.normal(0, 3, size=(6, 5))
        res = ctc_loss(Z, [1, 4, 2])
        assert np.max(np.abs(res.dZ.sum(axis=1))) < 1e-10

    def test_probability_in_unit_interval(self):
        for _ in range(20):
            Z = RNG.normal(0, 4, size=(5, 4))
            res = ctc_loss(Z, [2, 1])
            assert 0 < np.exp(-res.nll) <= 1
            assert res.nll >= 0


def reference_label_counts(logy, labels):
    """Separate forward and backward recursions over the blank-augmented
    lattice, one state row per frame: the kernel's bit-for-bit oracle."""
    T, N = logy.shape
    aug = [BLANK]
    for lab in labels:
        aug.extend([lab, BLANK])
    S = len(aug)
    aug_arr = np.array(aug)

    can_skip = np.zeros(S, dtype=bool)
    for s in range(2, S):
        can_skip[s] = aug[s] != BLANK and aug[s] != aug[s - 2]

    neg = -np.inf
    la = np.full((T, S), neg)
    la[0, 0] = logy[0, aug[0]]
    la[0, 1] = logy[0, aug[1]]
    for t in range(1, T):
        prev = la[t - 1]
        move = np.concatenate([[neg], prev[:-1]])
        skip = np.where(can_skip, np.concatenate([[neg, neg], prev[:-2]]), neg)
        la[t] = np.logaddexp(np.logaddexp(prev, move), skip) + logy[t, aug_arr]

    loglik = np.logaddexp(la[T - 1, S - 1], la[T - 1, S - 2])

    lb = np.full((T, S), neg)
    lb[T - 1, S - 1] = 0.0
    lb[T - 1, S - 2] = 0.0
    for t in range(T - 2, -1, -1):
        nxt = lb[t + 1] + logy[t + 1, aug_arr]
        move = np.concatenate([nxt[1:], [neg]])
        skip_ok = np.concatenate([can_skip[2:], [False, False]])
        skip = np.where(skip_ok, np.concatenate([nxt[2:], [neg, neg]]), neg)
        lb[t] = np.logaddexp(np.logaddexp(nxt, move), skip)

    with np.errstate(invalid="ignore"):
        gamma = np.exp(la + lb - loglik)
    counts = np.zeros((T, N))
    for s in range(S):
        counts[:, aug[s]] += gamma[:, s]
    return loglik, counts


def tight_length(labels):
    """The fewest frames that realize the labels: one more per repeat."""
    return len(labels) + sum(a == b for a, b in zip(labels, labels[1:]))


class TestLabelCountsMatchReference:
    """The two-row kernel is bit-for-bit the separate recursions."""

    def assert_same(self, Z, labels):
        logy = log_posteriors(Z)
        (loglik,), counts = ctc_label_counts(logy, [len(logy)], [labels])
        ref_loglik, ref_counts = reference_label_counts(logy, labels)
        assert loglik == ref_loglik
        assert np.array_equal(counts, ref_counts)

    @pytest.mark.parametrize("scale", [0.5, 3.0, 30.0, 400.0])
    def test_random_lattices(self, scale):
        rng = np.random.default_rng(int(scale * 10))
        for _ in range(60):
            N = int(rng.integers(2, 70))
            L = int(rng.integers(1, 7))
            labels = [int(rng.integers(1, N)) for _ in range(L)]
            T = tight_length(labels) + int(rng.integers(0, 20))
            self.assert_same(rng.normal(0, scale, size=(T, N)), labels)

    @pytest.mark.parametrize("scale", [0.5, 3.0, 30.0, 400.0])
    def test_small_alphabets_repeat_labels(self, scale):
        # with two or three units most lattices hold an adjacent repeat,
        # whose skip transition the mask must block
        rng = np.random.default_rng(int(scale * 10) + 1)
        with_repeats = 0
        for _ in range(60):
            units = int(rng.integers(2, 4))
            T = int(rng.integers(6, 23))
            labels = [int(rng.integers(1, units + 1)) for _ in range(int(rng.integers(2, 8)))]
            while tight_length(labels) > T:
                labels.pop()
            with_repeats += tight_length(labels) > len(labels)
            N = units + 1 + int(rng.integers(0, 3))
            self.assert_same(rng.normal(0, scale, size=(T, N)), labels)
        assert with_repeats > 30

    @pytest.mark.parametrize("scale", [0.5, 30.0, 400.0])
    @pytest.mark.parametrize(
        "labels",
        [[1], [2, 2], [1, 1, 1], [3, 1, 3], [1, 2, 2, 3, 3, 3], [4, 4, 1, 4, 4]],
    )
    def test_tight_length_and_repeats(self, labels, scale):
        rng = np.random.default_rng(len(labels))
        T = tight_length(labels)
        self.assert_same(rng.normal(0, scale, size=(T, 5)), labels)

    @pytest.mark.parametrize("N", [2, 3, 69])
    def test_one_frame(self, N):
        self.assert_same(RNG.normal(0, 3, size=(1, N)), [N - 1])

    @pytest.mark.parametrize("scale", [0.5, 30.0, 400.0])
    def test_thousand_frames(self, scale):
        rng = np.random.default_rng(1000)
        labels = [int(rng.integers(1, 20)) for _ in range(40)]
        self.assert_same(rng.normal(0, scale, size=(1000, 20)), labels)

    def test_occupancies_sum_to_one_at_large_logits(self):
        # every frame of every path sits in one state, even 400 nats apart
        rng = np.random.default_rng(400)
        logy = log_posteriors(rng.normal(0, 400, size=(30, 4)))
        (loglik,), counts = ctc_label_counts(logy, [30], [[1, 2, 3, 2, 1]])
        assert np.isfinite(loglik)
        assert np.allclose(counts.sum(axis=1), 1.0)


def two_row_label_counts(logy, labels):
    """The per-utterance kernel the batched one replaced: the forward and the
    reversed (backward) recursion as the two rows of one frame loop."""
    T, N = logy.shape
    S = 2 * len(labels) + 1
    aug = np.full(S, BLANK)
    aug[1::2] = labels
    emit = logy[:, aug]
    em = np.empty((T, 2, S))
    em[:, 0] = emit
    em[:, 1] = emit[::-1, ::-1]

    ok = np.zeros((2, S), dtype=bool)
    ok[0, 3::2] = aug[3::2] != aug[1:-2:2]
    ok[1, 3::2] = ok[0, 3::2][::-1]

    pre = np.empty((T, 2, S))
    pre[0] = -np.inf
    pre[0, :, :2] = 0.0
    buf = np.full((2, S + 2), -np.inf)
    stay, move, jump = buf[:, 2:], buf[:, 1:-1], buf[:, :-2]
    np.add(pre[0], em[0], out=stay)
    for t in range(1, T):
        p = pre[t]
        np.logaddexp(stay, move, out=p)
        np.logaddexp(p, jump, out=p, where=ok)
        np.add(p, em[t], out=stay)

    la = pre[:, 0] + emit
    lb = pre[::-1, 1, ::-1]
    loglik = np.logaddexp(la[T - 1, S - 1], la[T - 1, S - 2])
    with np.errstate(invalid="ignore"):
        gamma = np.exp(la + lb - loglik)
    counts = np.zeros((T, N))
    np.add.at(counts.T, aug, gamma.T)
    return loglik, counts


class TestBatchedLabelCounts:
    """A batch gives every utterance the bits the two-row kernel gives it alone."""

    def draw_batch(self, rng, B, scale, N):
        logys, labels = [], []
        for _ in range(B):
            # two or three units make adjacent repeats, whose skip the mask blocks
            units = int(rng.integers(1, N)) if rng.random() < 0.5 else min(2, N - 1)
            labs = [int(rng.integers(1, units + 1)) for _ in range(int(rng.integers(1, 8)))]
            T = tight_length(labs) + int(rng.integers(0, 12))
            logys.append(log_posteriors(rng.normal(0, scale, size=(T, N))))
            labels.append(labs)
        return logys, labels

    def assert_batch_matches(self, logys, labels):
        lengths = [len(lg) for lg in logys]
        loglik, counts = ctc_label_counts(np.concatenate(logys), lengths, labels)
        ends = np.cumsum(lengths)
        for b, (lg, labs) in enumerate(zip(logys, labels)):
            ref_loglik, ref_counts = two_row_label_counts(lg, labs)
            assert loglik[b] == ref_loglik or (np.isneginf(ref_loglik) and np.isneginf(loglik[b]))
            assert np.array_equal(counts[ends[b] - lengths[b] : ends[b]], ref_counts, equal_nan=True)
        forward_only, none = ctc_label_counts(np.concatenate(logys), lengths, labels, backward=False)
        assert none is None
        assert np.array_equal(forward_only, loglik)

    @pytest.mark.parametrize("scale", [0.5, 3.0, 30.0])
    @pytest.mark.parametrize("B", range(1, 9))
    def test_mixed_lengths_and_labels(self, B, scale):
        rng = np.random.default_rng([B, int(scale * 10)])
        for _ in range(6):
            self.assert_batch_matches(*self.draw_batch(rng, B, scale, int(rng.integers(3, 40))))

    @pytest.mark.parametrize("scale", [0.5, 3.0, 30.0])
    def test_infeasible_lane_leaves_the_others_unchanged(self, scale):
        rng = np.random.default_rng(int(scale * 10) + 7)
        logys, labels = self.draw_batch(rng, 5, scale, 12)
        # three repeats need six frames: two frames realize no path
        logys.insert(2, log_posteriors(rng.normal(0, scale, size=(2, 12))))
        labels.insert(2, [4, 4, 4])
        assert np.isneginf(two_row_label_counts(logys[2], labels[2])[0])
        self.assert_batch_matches(logys, labels)
        loglik, _ = ctc_label_counts(np.concatenate(logys), [len(lg) for lg in logys], labels)
        assert np.isneginf(loglik[2]) and np.isfinite(np.delete(loglik, 2)).all()


class TestPadRowKernel:
    """`ctc_label_counts` against the kernel that re-read each lane's last frame
    and masked its padding: the same bits."""

    @pytest.mark.parametrize("scale", [0.5, 3.0, 30.0])
    @pytest.mark.parametrize("B", range(1, 9))
    def test_same_bits_as_the_last_frame_kernel(self, B, scale):
        rng = np.random.default_rng([B, int(scale * 10), 1])
        for _ in range(4):
            N = int(rng.integers(3, 40))
            logys, labels = TestBatchedLabelCounts().draw_batch(rng, B, scale, N)
            b = int(rng.integers(B))
            logys[b], labels[b] = logys[b][:1], labels[b][:1]  # a one-frame lane
            if B > 1:  # and an infeasible lane: two labels in one frame
                b = (b + 1) % B
                logys[b], labels[b] = logys[b][:1], [1, 2]
            logy, lengths = np.concatenate(logys), [len(lg) for lg in logys]
            loglik, counts = ctc_label_counts(logy, lengths, labels)
            ref_loglik, ref_counts = reference_ctc_label_counts(logy, lengths, labels)
            assert np.array_equal(loglik, ref_loglik)
            assert np.array_equal(counts, ref_counts, equal_nan=True)


def test_scatter_counts_matches_add_at_and_drops_the_pad_row_and_unit():
    rng = np.random.default_rng(5)
    n, N = 7, 4
    rows = rng.integers(0, n + 1, size=(30, 1))  # row n is the pad row
    units = rng.integers(0, N + 1, size=(30, 6))  # unit N is the pad unit
    gamma = rng.random((30, 6))
    ref = np.zeros((n, N))
    for r, u, g in zip(np.broadcast_to(rows, units.shape).ravel(), units.ravel(), gamma.ravel()):
        if r < n and u < N:
            np.add.at(ref, (r, u), g)
    counts = scatter_counts(rows, units, gamma, (n, N))
    assert counts.shape == (n, N)
    assert np.array_equal(counts, ref)
    real = (rows < n) & (units < N)
    assert (~real).any() and np.isclose(counts.sum(), gamma[real].sum())


class TestGreedyDecode:
    def test_compose_argmax_with_collapse(self):
        Z = np.array(
            [[5.0, 0, 0], [0, 5, 0], [0, 5, 0], [0, 0, 5]]
        )  # path blk,a,a,b
        assert greedy_decode(Z) == [1, 2]

    def test_all_blank_returns_empty_list(self):
        Z = np.tile([5.0, 0, 0], (4, 1))
        assert greedy_decode(Z) == []

    def test_ties_break_to_lowest_index(self):
        Z = np.zeros((3, 4))
        assert greedy_decode(Z) == []  # all ties -> blank (index 0)

    def test_planted_signal_recovered(self):
        planted = [3, 1, 2]
        rows = []
        for lab in planted:
            for _ in range(2):
                row = np.zeros(4)
                row[lab] = 10.0
                rows.append(row)
            rows.append([10.0, 0, 0, 0])  # blank spacer
        Z = np.array(rows) + RNG.normal(0, 0.1, size=(len(rows), 4))
        assert greedy_decode(Z) == planted
