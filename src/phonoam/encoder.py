"""Small differentiable acoustic encoder: spliced frames through an MLP.

Frames are spliced with `context` neighbours on each side (zero padded at the
edges) and passed through a stack of tanh layers, so h_t depends only on the
frames within `context` of t.  The backward pass is written by hand and gives
exact parameter gradients, so the whole model can be finite-difference
checked; the frames are data, so it computes no gradient for them.

A batch runs as one pass: its utterances' frames are stacked, each is spliced
within its own frames and padded at its own edges, and every layer then runs
once over all the rows.  One utterance is the batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

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


def encoder_shapes(config: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """Parameter name -> shape: each layer's weights enc.W{i} (out x in), then its bias enc.b{i}."""
    shapes: dict[str, tuple[int, ...]] = {}
    for i, (rows, cols) in enumerate(config.layer_dims):
        shapes.update({f"enc.W{i}": (rows, cols), f"enc.b{i}": (rows,)})
    return shapes


def _splice(x: np.ndarray, w: int, lengths) -> np.ndarray:
    """T x D stacked frames -> T x (2w+1)D rows of context windows, each
    utterance (lengths[b] rows, in order) zero padded at its own edges."""
    if w == 0:
        return x
    T, D = x.shape
    padded = np.zeros((T + 2 * w, D))
    padded[w : w + T] = x
    spliced = np.concatenate([padded[k : k + T] for k in range(2 * w + 1)], axis=1)
    windows = spliced.reshape(T, 2 * w + 1, D)  # a view: windows[t, w + o] holds frame t + o
    for end in accumulate(lengths[:-1]):  # zero what reaches across a boundary
        for o in range(1, w + 1):
            windows[max(end - o, 0) : end, w + o] = 0.0
            windows[end : end + o, w - o] = 0.0
    return spliced


def encoder_forward(config: EncoderConfig, params: dict[str, np.ndarray], x: np.ndarray, lengths=None):
    """Run the encoder over T x D frames; returns (H_seq, cache).

    params holds the arrays `encoder_shapes` names, and may hold others.  x
    stacks the frames of utterances of these lengths (default: one
    utterance); each is spliced within its own frames.
    """
    if x.ndim != 2 or x.shape[1] != config.input_dim:
        raise DimensionMismatch(f"frames must be T x {config.input_dim}, got {x.shape}")
    lengths = [len(x)] if lengths is None else lengths
    if sum(lengths) != len(x) or any(n < 0 for n in lengths):
        raise DimensionMismatch(f"utterance lengths {list(lengths)} do not stack to {len(x)} frames")
    if not np.isfinite(x).all():
        raise NonFiniteInput("acoustic frames contain non-finite entries")
    n_layers = len(config.hidden) + 1

    a = _splice(x, config.context, lengths)
    inputs = []  # input to each layer
    outputs = []
    for i in range(n_layers):
        inputs.append(a)
        a = np.tanh(a @ params[f"enc.W{i}"].T + params[f"enc.b{i}"])
        outputs.append(a)

    cache = {"inputs": inputs, "outputs": outputs, "n_layers": n_layers}
    return outputs[-1], cache


def encoder_backward(
    config: EncoderConfig,
    params: dict[str, np.ndarray],
    cache: dict,
    dH: np.ndarray,
):
    """Exact gradients of the "enc." parameters for the cached forward pass."""
    if cache.get("n_layers") != len(config.hidden) + 1:
        raise StaleCache("cache does not match this encoder configuration")
    if dH.shape != cache["outputs"][-1].shape:
        raise StaleCache(f"dH shape {dH.shape} does not match cached forward")
    grads: dict[str, np.ndarray] = {}

    d_out = dH
    for i in reversed(range(cache["n_layers"])):
        out = cache["outputs"][i]
        d_pre = d_out * (1.0 - out * out)
        grads[f"enc.W{i}"] = d_pre.T @ cache["inputs"][i]
        grads[f"enc.b{i}"] = d_pre.sum(axis=0)
        if i:
            d_out = d_pre @ params[f"enc.W{i}"]
    return grads
