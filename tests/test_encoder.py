import numpy as np
import pytest

from phonoam.encoder import (
    EncoderConfig,
    encoder_backward,
    encoder_forward,
    init_encoder,
)
from phonoam.errors import DimensionMismatch, NonFiniteInput, StaleCache

RNG = np.random.default_rng(11)


def small_config(**kw):
    defaults = dict(input_dim=3, context=1, hidden=(4,), output_dim=5)
    defaults.update(kw)
    return EncoderConfig(**defaults)


def test_zero_params_zero_output():
    cfg = small_config()
    params = {k: np.zeros_like(v) for k, v in init_encoder(cfg, RNG).items()}
    H, _ = encoder_forward(cfg, params, RNG.normal(size=(6, 3)))
    assert np.all(H == 0)


def test_identity_single_layer_is_pointwise_activation():
    cfg = EncoderConfig(input_dim=3, context=0, hidden=(), output_dim=3)
    params = {"W0": np.eye(3), "b0": np.zeros(3)}
    x = RNG.normal(size=(4, 3))
    H, _ = encoder_forward(cfg, params, x)
    assert np.allclose(H, np.tanh(x))


def test_shape_contract():
    cfg = small_config()
    params = init_encoder(cfg, RNG)
    H, _ = encoder_forward(cfg, params, RNG.normal(size=(9, 3)))
    assert H.shape == (9, 5)


def test_bad_input_rejected():
    cfg = small_config()
    params = init_encoder(cfg, RNG)
    with pytest.raises(DimensionMismatch):
        encoder_forward(cfg, params, RNG.normal(size=(4, 2)))
    bad = np.full((4, 3), np.nan)
    with pytest.raises(NonFiniteInput):
        encoder_forward(cfg, params, bad)


def test_zero_upstream_gradient():
    cfg = small_config()
    params = init_encoder(cfg, RNG)
    H, cache = encoder_forward(cfg, params, RNG.normal(size=(5, 3)))
    grads = encoder_backward(cfg, params, cache, np.zeros_like(H))
    assert grads.keys() == params.keys()
    assert all(np.all(g == 0) for g in grads.values())


def test_stale_cache_detected():
    cfg = small_config()
    params = init_encoder(cfg, RNG)
    H, cache = encoder_forward(cfg, params, RNG.normal(size=(5, 3)))
    with pytest.raises(StaleCache):
        encoder_backward(cfg, params, cache, np.zeros((4, 5)))


def test_locality_without_recurrence():
    cfg = small_config(context=1)
    params = init_encoder(cfg, RNG)
    x = RNG.normal(size=(8, 3))
    H, _ = encoder_forward(cfg, params, x)
    for s in range(8):
        moved = x.copy()
        moved[s] += 1.0  # perturb frame s only
        changed = np.any(encoder_forward(cfg, params, moved)[0] != H, axis=1)
        assert list(np.flatnonzero(changed)) == [t for t in range(8) if abs(t - s) <= cfg.context], s


def test_finite_difference_gradients():
    cfg = small_config()
    params = init_encoder(cfg, RNG)
    x = RNG.normal(size=(6, 3))
    dH = RNG.normal(size=(6, 5))

    def loss():
        H, cache = encoder_forward(cfg, params, x)
        return float((H * dH).sum()), cache

    base, cache = loss()
    grads = encoder_backward(cfg, params, cache, dH)
    assert grads.keys() == params.keys()
    eps = 1e-6
    for name, p in params.items():
        for idx in np.ndindex(*p.shape):
            orig = p[idx]
            p[idx] = orig + eps
            up, _ = loss()
            p[idx] = orig - eps
            down, _ = loss()
            p[idx] = orig
            fd = (up - down) / (2 * eps)
            rel = abs(fd - grads[name][idx]) / max(abs(fd), abs(grads[name][idx]), 1e-6)
            assert rel < 1e-4, (name, idx)
