import numpy as np
import pytest

from phonoam.errors import DimensionMismatch
from phonoam.features import VECTOR_BITS
from phonoam.heads import (
    LinearHead,
    NonlinearHead,
    compute_embeddings,
    head_backward,
    logits,
    make_flat_head,
    make_linear_head,
    make_nonlinear_head,
    posteriors,
)

RNG = np.random.default_rng(7)


def random_P(n):
    return RNG.integers(0, 2, size=(n, VECTOR_BITS)).astype(float)


class TestComputeEmbeddings:
    def test_linear_zero_matrix_gives_zero_embeddings(self):
        head = LinearHead(A=np.zeros((4, VECTOR_BITS)))
        E = compute_embeddings(head, random_P(5))
        assert np.all(E == 0)
        # all-zero embeddings give uniform posteriors downstream
        Z = logits(E, RNG.normal(size=(3, 4)))
        assert np.allclose(posteriors(Z), 0.2)

    def test_linear_hand_arithmetic(self):
        p = np.zeros(VECTOR_BITS)
        p[0], p[2] = 1.0, 1.0
        A = np.zeros((2, VECTOR_BITS))
        A[0, :3] = [1, 2, 3]
        A[1, :3] = [0, 1, 0]
        E = compute_embeddings(LinearHead(A=A), p[None, :])
        assert np.allclose(E, [[4.0, 0.0]])

    def test_nonlinear_sigmoid_at_zero(self):
        dh = 3
        head = NonlinearHead(A1=np.zeros((dh, VECTOR_BITS)), A2=2.0 * np.eye(dh))
        E = compute_embeddings(head, random_P(2))
        assert np.allclose(E, 1.0)  # sigmoid(0) = 0.5, doubled

    def test_flat_ignores_P(self):
        head = make_flat_head(4, 8, RNG)
        assert np.array_equal(
            compute_embeddings(head, random_P(4)), compute_embeddings(head, None)
        )

    def test_flat_row_count_checked(self):
        head = make_flat_head(4, 8, RNG)
        with pytest.raises(DimensionMismatch):
            compute_embeddings(head, random_P(5))

    def test_permutation_equivariance(self):
        head = make_nonlinear_head(6, RNG, hidden=5)
        P = random_P(7)
        perm = RNG.permutation(7)
        E = compute_embeddings(head, P)
        assert np.allclose(compute_embeddings(head, P[perm]), E[perm])


class TestLogits:
    def test_dot_product(self):
        Z = logits(np.array([[4.0, 0.0]]), np.array([[1.0, 2.0]]))
        assert Z.shape == (1, 1) and Z[0, 0] == 4.0

    def test_identity_rows_project(self):
        E = np.eye(3)
        H = RNG.normal(size=(5, 3))
        assert np.allclose(logits(E, H), H)

    def test_against_triple_loop(self):
        E = RNG.normal(size=(6, 4))
        H = RNG.normal(size=(5, 4))
        Z = logits(E, H)
        naive = np.zeros((5, 6))
        for t in range(5):
            for i in range(6):
                for k in range(4):
                    naive[t, i] += E[i, k] * H[t, k]
        assert np.max(np.abs(Z - naive)) < 1e-12


class TestPosteriors:
    def test_symmetric(self):
        assert np.allclose(posteriors(np.array([[0.0, 0.0]])), 0.5)

    def test_shift_invariant(self):
        Z = RNG.normal(size=(4, 5))
        assert np.allclose(posteriors(Z), posteriors(Z + 123.0), atol=1e-12)

    def test_analytic(self):
        Z = np.log(np.array([[1.0, 3.0]]))
        assert np.allclose(posteriors(Z), [[0.25, 0.75]])

    def test_rows_sum_to_one(self):
        Y = posteriors(RNG.normal(size=(10, 7)) * 30)
        assert np.allclose(Y.sum(axis=1), 1.0, atol=1e-12)


class TestBackward:
    def test_linear_adjoint(self):
        head = make_linear_head(5, RNG)
        P = random_P(6)
        dE = RNG.normal(size=(6, 5))
        grads = head_backward(head, P, dE)
        assert np.allclose(grads["A"], dE.T @ P)

    def test_flat_passthrough(self):
        head = make_flat_head(6, 5, RNG)
        dE = RNG.normal(size=(6, 5))
        assert head_backward(head, None, dE)["E"] is dE

    def test_nonlinear_finite_differences(self):
        head = make_nonlinear_head(4, RNG, hidden=3)
        P = random_P(5)
        dE = RNG.normal(size=(5, 4))
        grads = head_backward(head, P, dE)
        assert set(grads) == {"A1", "A2"}
        eps = 1e-6
        for name in ("A1", "A2"):
            param = getattr(head, name)
            for idx in np.ndindex(*param.shape):
                orig = param[idx]
                param[idx] = orig + eps
                up = float((compute_embeddings(head, P) * dE).sum())
                param[idx] = orig - eps
                down = float((compute_embeddings(head, P) * dE).sum())
                param[idx] = orig
                fd = (up - down) / (2 * eps)
                rel = abs(fd - grads[name][idx]) / max(abs(fd), abs(grads[name][idx]), 1e-8)
                assert rel < 1e-4, (name, idx)
