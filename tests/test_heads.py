import numpy as np
import pytest

from phonoam.errors import DimensionMismatch, StaleCache
from phonoam.features import VECTOR_BITS
from phonoam.heads import (
    compute_embeddings,
    head_backward,
    head_shapes,
    logits,
    posteriors,
    sigmoid,
)
from phonoam.model import glorot_params

RNG = np.random.default_rng(7)


def make_head(kind, width, n_units=0, hidden=0):
    """The parameters of a head of this kind, Glorot-drawn as `build_model` draws them."""
    return glorot_params(head_shapes(kind, n_units, width, hidden), RNG)


def random_P(n):
    return RNG.integers(0, 2, size=(n, VECTOR_BITS)).astype(float)


class TestComputeEmbeddings:
    def test_linear_zero_matrix_gives_zero_embeddings(self):
        E, cache = compute_embeddings("linear", {"head.A": np.zeros((4, VECTOR_BITS))}, random_P(5))
        assert np.all(E == 0) and cache is None
        # all-zero embeddings give uniform posteriors downstream
        Z = logits(E, RNG.normal(size=(3, 4)))
        assert np.allclose(posteriors(Z), 0.2)

    def test_linear_hand_arithmetic(self):
        p = np.zeros(VECTOR_BITS)
        p[0], p[2] = 1.0, 1.0
        A = np.zeros((2, VECTOR_BITS))
        A[0, :3] = [1, 2, 3]
        A[1, :3] = [0, 1, 0]
        E, _ = compute_embeddings("linear", {"head.A": A}, p[None, :])
        assert np.allclose(E, [[4.0, 0.0]])

    def test_nonlinear_sigmoid_at_zero(self):
        dh = 3
        head = {"head.A1": np.zeros((dh, VECTOR_BITS)), "head.A2": 2.0 * np.eye(dh)}
        E, hidden = compute_embeddings("nonlinear", head, random_P(2))
        assert np.allclose(E, 1.0)  # sigmoid(0) = 0.5, doubled
        assert np.array_equal(hidden, np.full((2, dh), 0.5))

    def test_flat_ignores_P(self):
        head = make_head("flat", 8, n_units=4)
        E, cache = compute_embeddings("flat", head, random_P(4))
        assert E is head["head.E"] and cache is None

    def test_flat_row_count_checked(self):
        head = make_head("flat", 8, n_units=4)
        with pytest.raises(DimensionMismatch):
            compute_embeddings("flat", head, random_P(5))

    def test_permutation_equivariance(self):
        head = make_head("nonlinear", 6, hidden=5)
        P = random_P(7)
        perm = RNG.permutation(7)
        E, hidden = compute_embeddings("nonlinear", head, P)
        E_perm, hidden_perm = compute_embeddings("nonlinear", head, P[perm])
        assert np.allclose(E_perm, E[perm])
        assert np.allclose(hidden_perm, hidden[perm])


def masked_sigmoid(x):
    """The logistic function as two masked halves: sigmoid's bitwise oracle."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestSigmoid:
    def test_matches_masked_formula(self):
        rng = np.random.default_rng(11)
        x = np.concatenate([
            rng.normal(0, 1, size=500),
            rng.normal(0, 40, size=500),
            rng.uniform(-1e4, 1e4, size=500),
            [0.0, -0.0, 1e4, -1e4, 709.0, -709.0, 746.0, -746.0, np.inf, -np.inf],
        ]).reshape(-1, 10)
        with np.errstate(over="raise"):
            out = sigmoid(x)
        assert np.array_equal(out, masked_sigmoid(x))
        assert out.shape == x.shape and out.dtype == x.dtype

    def test_signed_zero_inf_and_nan(self):
        x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
        with np.errstate(over="raise"):
            out = sigmoid(x)
        assert np.array_equal(out, [0.5, 0.5, 1.0, 0.0, np.nan], equal_nan=True)
        assert np.array_equal(out, masked_sigmoid(x), equal_nan=True)


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
        head = make_head("linear", 5)
        P = random_P(6)
        dE = RNG.normal(size=(6, 5))
        grads = head_backward("linear", head, P, None, dE)
        assert np.allclose(grads["head.A"], dE.T @ P)

    def test_flat_passthrough(self):
        head = make_head("flat", 5, n_units=6)
        dE = RNG.normal(size=(6, 5))
        assert head_backward("flat", head, None, None, dE)["head.E"] is dE

    def test_nonlinear_finite_differences(self):
        head = make_head("nonlinear", 4, hidden=3)
        P = random_P(5)
        dE = RNG.normal(size=(5, 4))
        _, hidden = compute_embeddings("nonlinear", head, P)
        grads = head_backward("nonlinear", head, P, hidden, dE)
        assert set(grads) == {"head.A1", "head.A2"}
        eps = 1e-6
        for name in ("head.A1", "head.A2"):
            param = head[name]
            for idx in np.ndindex(*param.shape):
                orig = param[idx]
                param[idx] = orig + eps
                up = float((compute_embeddings("nonlinear", head, P)[0] * dE).sum())
                param[idx] = orig - eps
                down = float((compute_embeddings("nonlinear", head, P)[0] * dE).sum())
                param[idx] = orig
                fd = (up - down) / (2 * eps)
                rel = abs(fd - grads[name][idx]) / max(abs(fd), abs(grads[name][idx]), 1e-8)
                assert rel < 1e-4, (name, idx)

    def test_nonlinear_needs_the_hidden_layer_of_this_P(self):
        head = make_head("nonlinear", 4, hidden=3)
        P = random_P(5)
        dE = RNG.normal(size=(5, 4))
        _, fewer_rows = compute_embeddings("nonlinear", head, P[:4])
        for cache in (None, fewer_rows):
            with pytest.raises(StaleCache):
                head_backward("nonlinear", head, P, cache, dE)
