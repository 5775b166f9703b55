import math
import re

import numpy as np
import pytest

from phonoam import heads as heads_mod
from phonoam import model as model_mod
from phonoam import training
from phonoam.corpus import SynthLanguageSpec, Utterance, generate_language, make_emission_map
from phonoam.encoder import EncoderConfig
from phonoam.errors import DimensionMismatch, EmptyCorpus, InvalidTrainConfig, InventoryMismatch
from phonoam.evaluate import evaluate
from phonoam.features import SpecialToken, builtin_table, encode_inventory
from phonoam.inventory import LanguageInventory, merge_inventories
from phonoam.model import build_model, model_params, params_checksum
from phonoam.training import (
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
        state = init_adam(params)
        new = adam_step(params, grads, state, lr=0.01)
        # with bias correction the first update is lr * sign(g) up to eps
        assert np.allclose(new["w"], params["w"] - 0.01 * np.sign(grads["w"]), atol=1e-6)

    def test_zero_gradient_is_fixed_point(self):
        params = {"w": np.arange(4.0)}
        state = init_adam(params)
        new = adam_step(params, {"w": np.zeros(4)}, state, lr=0.1)
        assert np.array_equal(new["w"], params["w"])

    def test_step_counter_advances(self):
        params = {"w": np.ones(2)}
        state = init_adam(params)
        adam_step(params, {"w": np.ones(2)}, state, 0.1)
        adam_step(params, {"w": np.ones(2)}, state, 0.1)
        assert state.step == 2

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
    evaluations = count_calls(monkeypatch, training, "evaluate")
    report = train(model, utts[:10], utts[10:], TrainConfig(loss=loss, max_epochs=2, batch_size=3))
    assert len(steps) == 2 * 4  # two epochs of ceil(10 / 3) batches
    assert len(evaluations) == len(report.dev_per) == 3
    # once per Adam step, once per dev-loss pass, once per evaluate call
    assert len(embedded) == len(steps) + len(report.dev_loss) + len(evaluations)


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

    def test_finetune_moves_parameters(self):
        model, utts = make_setup()
        before = params_checksum(model_params(model))
        finetune(model, utts[:4], TrainConfig(max_epochs=1))
        assert params_checksum(model_params(model)) != before
