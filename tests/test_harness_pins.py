"""Names and results of the program that the benchmark harness relies on.

`perfbench/layers.py` wraps functions at the module attributes listed in
`TARGETS`, and `perfbench/workloads.py` checks `model_loss_and_grads`
gradients and the CTC-CRF denominator by name, perturbing one parameter at a
time with `set_model_params` and restoring it from an earlier
`model_params`.  A change to the program that drops one of these breaks the
benchmark, not the program's own tests, so these guards catch it here.
"""

import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

from phonoam import crf
from phonoam.crf import build_denominator_graph, denominator_forward_backward
from phonoam.encoder import EncoderConfig
from phonoam.features import VECTOR_BITS
from phonoam.heads import log_posteriors
from phonoam.lm import train_phone_lm
from phonoam.model import batch_loss_and_grads, build_model, model_loss_and_grads, model_params, set_model_params

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


def tiny_nonlinear_model(rng):
    units = ("<blk>", "a", "b", "c")
    P = rng.integers(0, 2, size=(len(units), VECTOR_BITS)).astype(float)
    enc = EncoderConfig(input_dim=3, context=1, hidden=(4,), output_dim=4)
    return build_model(units, P, enc, head="nonlinear", seed=5, head_hidden=5)


def test_crf_gradients_by_the_names_the_harness_reads():
    rng = np.random.default_rng(3)
    model = tiny_nonlinear_model(rng)
    units = model.units
    lm = train_phone_lm([[1, 2], [2, 3, 1], [3]], order=2, vocab=range(1, len(units)))
    graph = build_denominator_graph(len(units), lm)
    nll, grads = model_loss_and_grads(model, rng.normal(size=(5, 3)), [1, 2, 3], "ctc_crf", lm, graph)
    assert np.isfinite(nll)
    for name, shape in (("enc.W0", (4, 9)), ("head.A1", (5, VECTOR_BITS)), ("head.A2", (4, 5))):
        assert grads[name].shape == shape


@pytest.mark.parametrize("order", [None, 2], ids=["ctc", "ctc_crf_bigram"])
def test_the_ctc_kernel_is_looked_up_where_the_harness_wraps_it(order, monkeypatch):
    # the harness traces the CTC lattice kernel only as `phonoam.crf.ctc_label_counts`;
    # every training step, CTC's included, must call it there
    calls = []
    kernel = crf.ctc_label_counts

    def counted(*args, **kwargs):
        calls.append(len(args[2]))
        return kernel(*args, **kwargs)

    monkeypatch.setattr(crf, "ctc_label_counts", counted)
    rng = np.random.default_rng(3)
    model = tiny_nonlinear_model(rng)
    batch = [(rng.normal(size=(5, 3)), [1, 2, 3]), (rng.normal(size=(4, 3)), [2, 2])]
    graph = None
    if order is not None:
        lm = train_phone_lm([labels for _, labels in batch], order=order, vocab=range(1, model.n_units))
        graph = build_denominator_graph(model.n_units, lm)
    nll, _ = batch_loss_and_grads(model, batch, graph)
    assert calls == [len(batch)] and np.isfinite(nll).all()


def test_params_restore_as_the_harness_restores_them():
    model = tiny_nonlinear_model(np.random.default_rng(3))
    first, second = model_params(model), model_params(model)
    # each call is a new dict holding the model's own arrays
    assert first is not second and first is not model.params
    assert first.keys() == second.keys() >= {"enc.W0", "head.A1", "head.A2"}
    assert all(first[k] is model.params[k] and second[k] is model.params[k] for k in first)
    # perturbing one parameter leaves the earlier result to restore it from
    for name in ("enc.W0", "head.A1", "head.A2"):
        original = first[name]
        set_model_params(model, {name: original + 1.0})
        assert first[name] is original and model.params[name] is not original
        set_model_params(model, {name: first[name]})
        assert model.params[name] is original


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
