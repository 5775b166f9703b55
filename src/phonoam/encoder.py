"""Small differentiable acoustic encoder: spliced frames through an MLP.

Frames are spliced with `context` neighbours on each side (zero padded at the
edges) and passed through a stack of tanh layers, so h_t depends only on the
frames within `context` of t.  The backward pass is written by hand and gives
exact parameter gradients, so the whole model can be finite-difference
checked; the frames are data, so it computes no gradient for them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFiniteInput, StaleCache


@dataclass(frozen=True)
class EncoderConfig:
    input_dim: int
    context: int = 2
    hidden: tuple[int, ...] = (64,)
    output_dim: int = 64

    def __post_init__(self):
        if self.input_dim < 1 or self.output_dim < 1 or self.context < 0 or any(h < 1 for h in self.hidden):
            raise DimensionMismatch("input_dim, output_dim and every hidden width >= 1, and context >= 0")

    @property
    def layer_dims(self) -> list[tuple[int, int]]:
        widths = [self.input_dim * (2 * self.context + 1), *self.hidden, self.output_dim]
        return list(zip(widths[1:], widths[:-1]))


def init_encoder(config: EncoderConfig, rng: np.random.Generator) -> dict[str, np.ndarray]:
    params: dict[str, np.ndarray] = {}
    for i, (rows, cols) in enumerate(config.layer_dims):
        limit = np.sqrt(6.0 / (rows + cols))
        params[f"W{i}"] = rng.uniform(-limit, limit, size=(rows, cols))
        params[f"b{i}"] = np.zeros(rows)
    return params


def _splice(x: np.ndarray, w: int) -> np.ndarray:
    """T x D frames -> T x (2w+1)D rows of zero-padded context windows."""
    if w == 0:
        return x
    T, D = x.shape
    padded = np.zeros((T + 2 * w, D))
    padded[w : w + T] = x
    return np.concatenate([padded[k : k + T] for k in range(2 * w + 1)], axis=1)


def encoder_forward(config: EncoderConfig, params: dict[str, np.ndarray], x: np.ndarray):
    """Run the encoder over T x D frames; returns (H_seq, cache)."""
    if x.ndim != 2 or x.shape[1] != config.input_dim:
        raise DimensionMismatch(f"frames must be T x {config.input_dim}, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise NonFiniteInput("acoustic frames contain non-finite entries")
    n_layers = len(config.layer_dims)

    a = _splice(x, config.context)
    inputs = []  # input to each layer
    outputs = []
    for i in range(n_layers):
        inputs.append(a)
        a = np.tanh(a @ params[f"W{i}"].T + params[f"b{i}"])
        outputs.append(a)

    cache = {"inputs": inputs, "outputs": outputs, "n_layers": n_layers}
    return outputs[-1], cache


def encoder_backward(
    config: EncoderConfig,
    params: dict[str, np.ndarray],
    cache: dict,
    dH: np.ndarray,
):
    """Exact parameter gradients for the cached forward pass."""
    if cache.get("n_layers") != len(config.layer_dims):
        raise StaleCache("cache does not match this encoder configuration")
    if dH.shape != cache["outputs"][-1].shape:
        raise StaleCache(f"dH shape {dH.shape} does not match cached forward")
    grads: dict[str, np.ndarray] = {}

    d_out = dH
    for i in reversed(range(cache["n_layers"])):
        out = cache["outputs"][i]
        d_pre = d_out * (1.0 - out * out)
        grads[f"W{i}"] = d_pre.T @ cache["inputs"][i]
        grads[f"b{i}"] = d_pre.sum(axis=0)
        if i:
            d_out = d_pre @ params[f"W{i}"]
    return grads
