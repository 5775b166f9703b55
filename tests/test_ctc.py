import numpy as np
import pytest
from hypothesis import given, strategies as st

from phonoam.ctc import collapse, ctc_loss, greedy_decode, _collapse
from phonoam.errors import EmptyResult, InfeasibleLength, NonFiniteInput
from phonoam.selftest import brute_force_ctc, finite_difference, max_rel_err

RNG = np.random.default_rng(23)


class TestCollapse:
    def test_basic(self):
        assert collapse([0, 1, 1, 0, 2]) == [1, 2]

    def test_blank_separates_repeats(self):
        assert collapse([1, 0, 1]) == [1, 1]

    def test_all_blank_raises(self):
        with pytest.raises(EmptyResult):
            collapse([0, 0])

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=12))
    def test_matches_groupby_oracle(self, path):
        import itertools

        out = _collapse(path)
        assert 0 not in out
        # reference: merge consecutive duplicates, then drop blanks
        assert out == [k for k, _ in itertools.groupby(path) if k != 0]

    @given(st.lists(st.integers(1, 3), min_size=1, max_size=8))
    def test_blank_free_repeat_free_is_fixed_point(self, seq):
        dedup = [u for i, u in enumerate(seq) if i == 0 or u != seq[i - 1]]
        assert _collapse(dedup) == dedup


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
