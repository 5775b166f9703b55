"""Names and results of the program that the benchmark harness relies on.

`perfbench/layers.py` wraps functions at the module attributes listed in
`TARGETS`, and `perfbench/workloads.py` checks `model_loss_and_grads`
gradients and the CTC-CRF denominator by name.  A change to the program
that drops one of these breaks the benchmark, not the program's own tests,
so these guards catch it here.
"""

import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

from phonoam.crf import build_denominator_graph, denominator_forward_backward
from phonoam.encoder import EncoderConfig
from phonoam.features import VECTOR_BITS
from phonoam.heads import log_posteriors
from phonoam.lm import train_phone_lm
from phonoam.model import build_model, model_loss_and_grads

REPO_DIR = Path(__file__).resolve().parent.parent


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO_DIR))
    return importlib.import_module("perfbench.layers")


def test_every_traced_target_resolves(layers):
    assert layers.TARGETS
    missing = [
        f"{t.module}.{t.attr}"
        for t in layers.TARGETS
        if not callable(getattr(importlib.import_module(t.module), t.attr, None))
    ]
    assert missing == []


def test_head_kinds_where_the_harness_reads_them():
    # perfbench's workloads and the CLI read the head kinds from `phonoam.benchmark`
    assert importlib.import_module("phonoam.benchmark").HEAD_KINDS == ("flat", "linear", "nonlinear")


def test_crf_gradients_by_the_names_the_harness_reads():
    rng = np.random.default_rng(3)
    units = ("<blk>", "a", "b", "c")
    P = rng.integers(0, 2, size=(len(units), VECTOR_BITS)).astype(float)
    enc = EncoderConfig(input_dim=3, context=1, hidden=(4,), output_dim=4)
    model = build_model(units, P, enc, head="nonlinear", seed=5, head_hidden=5)
    lm = train_phone_lm([[1, 2], [2, 3, 1], [3]], order=2, vocab=range(1, len(units)))
    graph = build_denominator_graph(len(units), lm)
    nll, grads = model_loss_and_grads(model, rng.normal(size=(5, 3)), [1, 2, 3], "ctc_crf", lm, graph)
    assert np.isfinite(nll)
    for name, shape in (("enc.W0", (4, 9)), ("head.A1", (5, VECTOR_BITS)), ("head.A2", (4, 5))):
        assert grads[name].shape == shape


def test_crf_denominator_as_the_harness_calls_it(layers):
    # `_den_cells` reads the graph and the stacked logy as the first two
    # arguments; the brute-force check unpacks a two-argument call
    assert list(inspect.signature(denominator_forward_backward).parameters)[:2] == ["graph", "logy"]
    lm = train_phone_lm([[1, 2], [2, 3, 1], [3]], order=2, vocab=range(1, 4))
    graph = build_denominator_graph(4, lm)
    logy = log_posteriors(np.random.default_rng(4).normal(size=(6, 4)))
    logden, counts = denominator_forward_backward(graph, logy)
    assert isinstance(logden, float) and counts.shape == (6, 4)
    assert layers._den_cells((graph, logy, [2, 4]), {}, None) == (6 * len(graph.states), 0)
