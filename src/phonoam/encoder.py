"""Small differentiable acoustic encoder: spliced frames through an MLP.

Frames are spliced with `context` neighbours on each side (zero padded at the
edges) and passed through a stack of activation layers.  The last layer can
optionally be a simple recurrent layer, making h_t depend on all earlier
frames.  Forward and backward are exact and written by hand so the whole model
can be finite-difference checked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .activations import get_activation
from .errors import DimensionMismatch, NonFiniteInput, StaleCache


@dataclass(frozen=True)
class EncoderConfig:
    input_dim: int
    context: int = 2
    hidden: tuple[int, ...] = (64,)
    output_dim: int = 64
    activation: str = "tanh"
    recurrent: bool = False

    def __post_init__(self):
        if self.input_dim < 1 or self.output_dim < 1 or self.context < 0:
            raise DimensionMismatch("input_dim, output_dim >= 1 and context >= 0")

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
    if config.recurrent:
        h = config.output_dim
        limit = np.sqrt(6.0 / (2 * h))
        params["R"] = rng.uniform(-limit, limit, size=(h, h))
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
    act, _ = get_activation(config.activation)
    n_layers = len(config.layer_dims)

    spliced = _splice(x, config.context)
    inputs = [spliced]  # input to each layer
    outputs = []
    a = spliced
    for i in range(n_layers):
        W, b = params[f"W{i}"], params[f"b{i}"]
        pre = a @ W.T + b
        last = i == n_layers - 1
        if last and config.recurrent:
            R = params["R"]
            h = np.zeros_like(pre)
            prev = np.zeros(pre.shape[1])
            for t in range(pre.shape[0]):
                prev = act(pre[t] + R @ prev)
                h[t] = prev
            out = h
        else:
            out = act(pre)
        outputs.append(out)
        if not last:
            inputs.append(out)
        a = out

    cache = {"x_shape": x.shape, "inputs": inputs, "outputs": outputs, "n_layers": n_layers}
    return outputs[-1], cache


def encoder_backward(
    config: EncoderConfig,
    params: dict[str, np.ndarray],
    cache: dict,
    dH: np.ndarray,
):
    """Exact gradients: returns (dparams, dx) for the cached forward pass."""
    if cache.get("n_layers") != len(config.layer_dims):
        raise StaleCache("cache does not match this encoder configuration")
    if dH.shape != cache["outputs"][-1].shape:
        raise StaleCache(f"dH shape {dH.shape} does not match cached forward")
    _, deriv = get_activation(config.activation)
    n_layers = cache["n_layers"]
    grads: dict[str, np.ndarray] = {}

    d_out = dH
    for i in reversed(range(n_layers)):
        W = params[f"W{i}"]
        a_in = cache["inputs"][i]
        out = cache["outputs"][i]
        if i == n_layers - 1 and config.recurrent:
            R = params["R"]
            T = out.shape[0]
            d_pre = np.zeros_like(out)
            dR = np.zeros_like(R)
            carry = np.zeros(out.shape[1])
            for t in reversed(range(T)):
                dh = d_out[t] + carry
                d_pre[t] = dh * deriv(out[t])
                prev = out[t - 1] if t > 0 else np.zeros(out.shape[1])
                dR += np.outer(d_pre[t], prev)
                carry = R.T @ d_pre[t]
            grads["R"] = dR
        else:
            d_pre = d_out * deriv(out)
        grads[f"W{i}"] = d_pre.T @ a_in
        grads[f"b{i}"] = d_pre.sum(axis=0)
        d_out = d_pre @ W

    dx = _unsplice(d_out, cache["x_shape"], config.context)
    return grads, dx


def _unsplice(d_spliced: np.ndarray, x_shape: tuple[int, int], w: int) -> np.ndarray:
    if w == 0:
        return d_spliced
    T, D = x_shape
    dx_padded = np.zeros((T + 2 * w, D))
    for k in range(2 * w + 1):
        dx_padded[k : k + T] += d_spliced[:, k * D : (k + 1) * D]
    return dx_padded[w : w + T]
