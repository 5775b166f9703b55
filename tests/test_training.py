import math
import re

import numpy as np
import pytest

from phonoam import heads as heads_mod
from phonoam import model as model_mod
from phonoam import training
from phonoam import evaluate as evaluate_mod
from phonoam.crf import build_denominator_graph, crf_loss
from phonoam.ctc import ctc_loss
from phonoam.lm import train_phone_lm
from phonoam.corpus import SynthLanguageSpec, Utterance, generate_language, make_emission_map
from phonoam.encoder import EncoderConfig, encoder_backward
from phonoam.errors import DimensionMismatch, EmptyCorpus, InvalidTrainConfig, InventoryMismatch
from phonoam.evaluate import evaluate
from phonoam.features import SpecialToken, builtin_table, encode_inventory
from phonoam.inventory import LanguageInventory, merge_inventories
from phonoam.model import build_model, extend_model, model_params, params_checksum
from phonoam.training import (
    BETA1,
    BETA2,
    EPS,
    LR_FACTOR,
    LR_FLOOR,
    TrainConfig,
    adam_step,
    finetune,
    init_adam,
    train,
    train_multilingual,
)

TABLE = builtin_table()
PHONES = tuple(TABLE.phones())
D = 4


def make_setup(head="linear", n_phones=4, seed=0, utterances=12):
    inv = LanguageInventory(language_id="L1", phones=PHONES[:n_phones])
    ps = merge_inventories([inv])
    P = encode_inventory(TABLE, list(ps.phones), list(SpecialToken))
    cfg = EncoderConfig(input_dim=D, context=1, hidden=(8,), output_dim=8)
    model = build_model(ps.units, P, cfg, head=head, seed=seed, head_hidden=6)
    W = make_emission_map(D, seed=100 + seed)
    spec = SynthLanguageSpec(
        language_id="L1", inventory=PHONES[:n_phones], duration_range=(2, 3),
        noise_std=0.05, offset_std=0.0, length_range=(2, 3),
        utterance_count=utterances, seed=50 + seed,
    )
    utts = generate_language(spec, TABLE, W)
    return model, utts


class TestAdam:
    def test_first_step_is_signed_lr(self):
        params = {"w": np.array([1.0, -2.0, 3.0])}
        grads = {"w": np.array([0.5, -0.1, 2.0])}
        before = params["w"].copy()
        state = init_adam(params)
        assert adam_step(params, grads, state, lr=0.01) is None
        # with bias correction the first update is lr * sign(g) up to eps
        assert np.allclose(params["w"], before - 0.01 * np.sign(grads["w"]), atol=1e-6)

    def test_zero_gradient_is_fixed_point(self):
        params = {"w": np.arange(4.0)}
        state = init_adam(params)
        adam_step(params, {"w": np.zeros(4)}, state, lr=0.1)
        assert np.array_equal(params["w"], np.arange(4.0))

    def test_step_counter_advances(self):
        params = {"w": np.ones(2)}
        state = init_adam(params)
        adam_step(params, {"w": np.ones(2)}, state, 0.1)
        adam_step(params, {"w": np.ones(2)}, state, 0.1)
        assert state.step == 2

    def test_matches_the_formula_bitwise(self):
        rng = np.random.default_rng(4)
        params = {"w": rng.normal(size=(3, 5)), "b": rng.normal(size=5)}
        state = init_adam(params)
        arrays = dict(params)  # the arrays the step must write into
        # the out-of-place formula, kept here as the reference
        p = {k: x.copy() for k, x in params.items()}
        m = {k: np.zeros_like(x) for k, x in params.items()}
        v = {k: np.zeros_like(x) for k, x in params.items()}
        for t in range(1, 6):
            grads = {k: rng.normal(scale=10.0 ** (t - 3), size=x.shape) for k, x in params.items()}
            adam_step(params, grads, state, lr=0.003)
            for k, g in grads.items():
                m[k] = BETA1 * m[k] + (1 - BETA1) * g
                v[k] = BETA2 * v[k] + (1 - BETA2) * g * g
                m_hat = m[k] / (1 - BETA1**t)
                v_hat = v[k] / (1 - BETA2**t)
                p[k] = p[k] - 0.003 * m_hat / (np.sqrt(v_hat) + EPS)
                assert np.array_equal(state.m[k], m[k]) and np.array_equal(state.v[k], v[k])
                assert params[k] is arrays[k] and np.array_equal(params[k], p[k])

    def test_shape_mismatch_rejected(self):
        params = {"w": np.ones(3)}
        with pytest.raises(DimensionMismatch):
            adam_step(params, {"w": np.ones(4)}, init_adam(params), 0.1)


class TestTrainConfig:
    def test_floor_must_be_below_lr(self):
        with pytest.raises(ValueError):
            TrainConfig(lr=LR_FLOOR)

    @pytest.mark.parametrize("field, value", [
        ("batch_size", 0), ("batch_size", -3), ("max_epochs", 0), ("max_epochs", -1),
        ("lr", math.inf), ("lr", math.nan), ("loss", "bogus"), ("lm_order", 0), ("lm_order", 3),
    ])
    def test_nonsense_sizes_rejected(self, field, value):
        with pytest.raises(InvalidTrainConfig, match=field):
            TrainConfig(**{field: value})


def count_calls(monkeypatch, module, name):
    """Wrap module.name so that it counts its calls; returns the counter."""
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestTrain:
    def test_empty_corpus_rejected(self):
        model, _ = make_setup()
        with pytest.raises(EmptyCorpus):
            train(model, [], [], TrainConfig(max_epochs=1))

    def test_infeasible_utterances_skipped(self):
        model, utts = make_setup()
        short = Utterance(
            frames=np.zeros((1, D)), phones=utts[0].phones[:2] * 2, language_id="L1"
        )
        report = train(model, utts[:4] + [short], utts[:2], TrainConfig(max_epochs=1))
        assert report.skipped == 1

    @pytest.mark.parametrize("loss", ["ctc", "ctc_crf"])
    def test_empty_utterance_skipped(self, loss):
        # no phones fails the same label check as too few frames: skipped and
        # counted, here and in the dev loss, not an error partway through training
        model, utts = make_setup()
        empty = Utterance(frames=np.zeros((3, D)), phones=(), language_id="L1")
        report = train(model, utts[:4] + [empty], utts[:2] + [empty], TrainConfig(loss=loss, max_epochs=1))
        assert report.skipped == 1
        assert all(np.isfinite(report.dev_loss))

    def test_all_infeasible_rejected(self):
        model, utts = make_setup()
        short = Utterance(frames=np.zeros((1, D)), phones=utts[0].phones[:2] * 2, language_id="L1")
        with pytest.raises(EmptyCorpus):
            train(model, [short], [], TrainConfig(max_epochs=1))

    @pytest.mark.parametrize("where", ["train", "dev"])
    def test_uncovered_phone_rejected_before_training(self, where):
        model, utts = make_setup(n_phones=4)
        _, other = make_setup(n_phones=6)  # a language with two phones the model lacks
        stranger = next(u for u in other if set(u.phones) - set(model.units))
        missing = sorted(set(stranger.phones) - set(model.units))
        before = params_checksum(model_params(model))
        tr, dev = (utts[:4] + [stranger], utts[4:]) if where == "train" else (utts[:4], [stranger])
        with pytest.raises(InventoryMismatch, match=re.escape(f"phones {missing} not covered")):
            train(model, tr, dev, TrainConfig(loss="ctc_crf", max_epochs=1))
        assert params_checksum(model_params(model)) == before

    def test_deterministic_given_seed(self):
        reports = []
        for _ in range(2):
            model, utts = make_setup(seed=3)
            reports.append(train(model, utts[:8], utts[8:], TrainConfig(max_epochs=2, seed=3)))
        assert reports[0].final_checksum == reports[1].final_checksum
        assert reports[0].train_loss == reports[1].train_loss

    def test_initial_dev_loss_recorded_before_any_update(self):
        # dev curves start at the untrained model's loss: identical across
        # configs that only differ in learning rate
        a_model, utts = make_setup(seed=5)
        b_model, _ = make_setup(seed=5)
        a = train(a_model, utts[:8], utts[8:], TrainConfig(max_epochs=1, lr=1e-3, seed=1))
        b = train(b_model, utts[:8], utts[8:], TrainConfig(max_epochs=1, lr=1e-4, seed=1))
        assert a.dev_loss[0] == b.dev_loss[0]
        assert len(a.dev_loss) == len(a.dev_per) == len(a.lr) == 2

    def test_lr_sequence_follows_plateau_schedule(self):
        model, utts = make_setup()
        cfg = TrainConfig(max_epochs=12, lr=1e-3)
        report = train(model, utts[:8], utts[8:], cfg)
        lrs = report.lr
        assert lrs[0] == cfg.lr
        seen = sorted(set(lrs), reverse=True)
        for v in seen:
            assert any(np.isclose(v, cfg.lr * LR_FACTOR**k) for k in range(6))
        # monotone non-increasing
        assert all(b <= a + 1e-15 for a, b in zip(lrs, lrs[1:]))

    def test_nan_dev_loss_leaves_schedule_alone(self):
        # with no feasible dev utterance every dev loss is NaN: no epoch is a
        # plateau, so the rate is never cut and training runs every epoch
        model, utts = make_setup()
        short = Utterance(frames=np.zeros((1, D)), phones=utts[0].phones[:2] * 2, language_id="L1")
        cfg = TrainConfig(max_epochs=8)
        report = train(model, utts[:8], [short], cfg)
        assert all(np.isnan(d) for d in report.dev_loss)
        assert report.lr == [cfg.lr] * (cfg.max_epochs + 1)
        assert len(report.train_loss) == cfg.max_epochs

    def test_a_non_finite_batch_takes_no_step(self, monkeypatch):
        # calls 2 and 4 return a NaN and an inf gradient with a huge loss, call 5
        # a NaN loss: none of the three reaches Adam or the epoch's train loss
        real_batch, real_adam = training.batch_loss_and_grads, training.adam_step
        calls, steps = [], []

        def batch(model, *args):
            nll, grads = real_batch(model, *args)
            k = len(calls) + 1
            name = next(iter(grads))
            if k in (2, 4):
                nll = np.full_like(nll, 1e6)
                grads = {**grads, name: np.full_like(grads[name], np.nan if k == 2 else np.inf)}
            elif k == 5:
                nll = np.where(np.arange(len(nll)) == 0, np.nan, nll)
            calls.append((nll, {n: p.copy() for n, p in model.params.items()}))
            return nll, grads

        def adam(params, grads, state, lr):
            before = (state.step, {n: m.copy() for n, m in state.m.items()}, {n: v.copy() for n, v in state.v.items()})
            real_adam(params, grads, state, lr)
            after = (state.step, {n: m.copy() for n, m in state.m.items()}, {n: v.copy() for n, v in state.v.items()})
            steps.append((len(calls), before, after))

        monkeypatch.setattr(training, "batch_loss_and_grads", batch)
        monkeypatch.setattr(training, "adam_step", adam)
        model, utts = make_setup()
        report = train(model, utts[:8], utts[8:], TrainConfig(max_epochs=3, batch_size=4))

        assert len(calls) == 6 and [k for k, _, _ in steps] == [1, 3, 6]
        assert report.skipped == 12
        for k in (2, 4, 5):  # parameters after a skipped batch are those before it
            assert all(np.array_equal(calls[k][1][n], calls[k - 1][1][n]) for n in model.params)
        for (_, _, after), (_, before, _) in zip(steps, steps[1:]):  # Adam's state too
            assert after[0] == before[0]
            assert all(np.array_equal(after[i][n], before[i][n]) for i in (1, 2) for n in model.params)
        assert report.train_loss == [float(np.mean(calls[k][0])) for k in (0, 2, 5)]  # the stepped batches
        assert all(np.isfinite(p).all() for p in model.params.values())

    def test_overfits_single_utterance(self, monkeypatch):
        monkeypatch.setattr(training, "PATIENCE", 50)
        monkeypatch.setattr(training, "MIN_DELTA", 0.0)
        model, utts = make_setup(head="linear", utterances=2)
        cfg = TrainConfig(max_epochs=200, lr=1e-2, batch_size=1)
        report = train(model, utts[:1], utts[:1], cfg)
        assert min(report.dev_loss) < 0.1

    @pytest.mark.parametrize("loss", ["ctc", "ctc_crf"])
    def test_loss_decreases(self, loss):
        model, utts = make_setup(head="nonlinear")
        cfg = TrainConfig(loss=loss, max_epochs=8, lr=3e-3)
        report = train(model, utts[:10], utts[10:], cfg)
        assert report.dev_loss[-1] < report.dev_loss[0]


@pytest.mark.parametrize("loss", ["ctc", "ctc_crf"])
def test_embeddings_computed_once_per_update_and_pass(loss, monkeypatch):
    model, utts = make_setup(head="nonlinear")
    embedded = count_calls(monkeypatch, model_mod, "compute_embeddings")
    steps = count_calls(monkeypatch, training, "adam_step")
    evaluations = count_calls(monkeypatch, evaluate_mod, "evaluate")
    report = train(model, utts[:10], utts[10:], TrainConfig(loss=loss, max_epochs=2, batch_size=3))
    assert len(steps) == 2 * 4  # two epochs of ceil(10 / 3) batches
    assert len(report.dev_per) == 3
    # once per Adam step and once per dev pass, which scores loss and PER
    # without calling `evaluate`
    assert len(embedded) == len(steps) + len(report.dev_loss)
    assert evaluations == []


@pytest.mark.parametrize("held_out", [True, False], ids=["dev_set", "no_dev_set"])
def test_each_dev_utterance_forwarded_once_per_dev_pass(held_out, monkeypatch):
    model, utts = make_setup()
    short = Utterance(frames=np.zeros((1, D)), phones=utts[0].phones[:2] * 2, language_id="L1")
    forwarded = count_calls(monkeypatch, training, "model_forward")
    scored = count_calls(monkeypatch, training, "batch_loss")
    train_set, dev_set = (utts[:8], [*utts[8:], short]) if held_out else (utts, [])
    batch_size = 3
    report = train(model, train_set, dev_set, TrainConfig(max_epochs=3, batch_size=batch_size))
    # without a dev set the dev pass runs over the training utterances
    dev = dev_set or train_set
    passes = len(report.dev_loss)
    # one stacked forward per chunk of at most batch_size utterances, which
    # together forward the dev set's frames once per pass, in order
    assert len(forwarded) <= math.ceil(len(dev) / batch_size) * passes
    assert all(len(args[3]) <= batch_size for args in forwarded)
    assert sum(len(args[1]) for args in forwarded) == sum(len(u.frames) for u in dev) * passes
    first = forwarded[: len(forwarded) // passes]
    assert np.array_equal(np.concatenate([args[1] for args in first]), np.concatenate([u.frames for u in dev]))
    assert [n for args in first for n in args[3]] == [len(u.frames) for u in dev]
    # the loss of the feasible ones, scored batch_size at a time: no pass
    # holds the logits of the whole dev set
    feasible = len(dev) - held_out
    assert sum(len(args[1]) for args in scored) == feasible * passes
    assert max(len(args[1]) for args in scored) == batch_size


@pytest.mark.parametrize("head", ["flat", "linear", "nonlinear"])
@pytest.mark.parametrize("loss", ["ctc", "ctc_crf"])
def test_batch_step_matches_the_per_utterance_gradients(head, loss):
    model, utts = make_setup(head=head)
    index = model.unit_index()
    batch = [(u.frames, [index[p] for p in u.phones]) for u in utts[:7]]
    lm = graph = None
    if loss == "ctc_crf":
        lm = train_phone_lm([labels for _, labels in batch], order=2, vocab=range(1, model.n_units))
        graph = build_denominator_graph(model.n_units, lm)
    nll, grads = model_mod.batch_loss_and_grads(model, batch, graph)
    # the per-utterance step written out: forward, loss, backward through the
    # encoder and the head, each utterance's gradients added to zeros in order
    acc = {k: np.zeros_like(p) for k, p in model_params(model).items()}
    for b, (frames, labels) in enumerate(batch):
        Z, cache = model_mod.model_forward(model, frames)
        result = ctc_loss(Z, labels) if loss == "ctc" else crf_loss(Z, labels, lm, graph=graph)
        assert abs(nll[b] - result.nll) <= 1e-12 * abs(result.nll)
        enc = encoder_backward(model.encoder_config, model.params, cache["enc"], result.dZ @ cache["E"])
        head = heads_mod.head_backward(model.head, model.params, model.P, cache["head"], result.dZ.T @ cache["H_seq"])
        for k, g in (enc | head).items():
            acc[k] += g
    # the stacked pass sums in the matmuls, in another order than the loop
    assert list(grads) == list(acc)
    for k, g in acc.items():
        assert np.abs(grads[k] - g).max() <= 1e-12 * np.abs(g).max(), k


@pytest.mark.parametrize("loss", ["ctc", "ctc_crf"])
def test_hidden_layer_computed_once_per_embedding(loss, monkeypatch):
    # the backward pass reads the nonlinear head's hidden layer from the
    # embeddings' cache instead of running the sigmoid again per utterance
    model, utts = make_setup(head="nonlinear")
    embedded = count_calls(monkeypatch, model_mod, "compute_embeddings")
    hidden = count_calls(monkeypatch, heads_mod, "sigmoid")
    train(model, utts[:10], utts[10:], TrainConfig(loss=loss, max_epochs=2, batch_size=3))
    assert len(embedded) > 0
    assert len(hidden) == len(embedded)


@pytest.mark.parametrize("held_out", [True, False], ids=["dev_set", "no_dev_set"])
def test_each_utterance_checked_once_per_train(held_out, monkeypatch):
    model, utts = make_setup()
    checked = count_calls(monkeypatch, training, "check_labels")
    train_set, dev_set = (utts[:8], utts[8:]) if held_out else (utts, [])
    train(model, train_set, dev_set, TrainConfig(max_epochs=3))
    assert len(checked) == len(train_set) + len(dev_set)


def test_evaluate_computes_embeddings_once(monkeypatch):
    model, utts = make_setup(head="nonlinear")
    embedded = count_calls(monkeypatch, model_mod, "compute_embeddings")
    evaluate(model, utts)
    assert len(embedded) == 1


class TestMultilingualAndFinetune:
    def test_multilingual_merges_everything(self):
        model, utts = make_setup()
        corpora = {"L1": utts[:6], "L2": utts[6:]}
        report = train_multilingual(corpora, model, TrainConfig(max_epochs=1))
        assert report.final_checksum == params_checksum(model_params(model))

    def test_multilingual_empty_rejected(self):
        model, _ = make_setup()
        with pytest.raises(EmptyCorpus):
            train_multilingual({"L1": []}, model, TrainConfig(max_epochs=1))

    def test_finetuning_an_extension_leaves_the_original_encoder(self):
        model, utts = make_setup()
        new_P = encode_inventory(TABLE, [PHONES[4]], specials=[])
        extended = extend_model(model, (PHONES[4],), new_P)
        before = {k: v.copy() for k, v in model.params.items() if k.startswith("enc.")}
        finetune(extended, utts[:4], TrainConfig(max_epochs=2))
        assert all(np.array_equal(model.params[k], v) for k, v in before.items())
        assert not np.array_equal(extended.params["enc.W0"], before["enc.W0"])

    def test_finetune_moves_parameters(self):
        model, utts = make_setup()
        before = params_checksum(model_params(model))
        finetune(model, utts[:4], TrainConfig(max_epochs=1))
        assert params_checksum(model_params(model)) != before
