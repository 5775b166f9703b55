import numpy as np
import pytest

from phonoam.corpus import make_emission_map, generate_language, SynthLanguageSpec
from phonoam.encoder import EncoderConfig
from phonoam.errors import DimensionMismatch, ModeHeadMismatch
from phonoam.features import SpecialToken, builtin_table, encode_inventory
from phonoam.heads import FlatHead, compute_embeddings
from phonoam.inventory import LanguageInventory, merge_inventories
from phonoam.lm import train_phone_lm
from phonoam.model import (
    build_model,
    embeddings,
    extend_model,
    model_forward,
    model_loss_and_grads,
    model_params,
    params_checksum,
    set_model_params,
)
from phonoam.selftest import finite_difference, max_rel_err

TABLE = builtin_table()
PHONES = tuple(TABLE.phones())
RNG = np.random.default_rng(17)


def tiny_model(head="linear", n_phones=4, seed=0):
    inv = LanguageInventory(language_id="L1", phones=PHONES[:n_phones])
    ps = merge_inventories([inv])
    P = encode_inventory(TABLE, list(ps.phones), list(SpecialToken))
    cfg = EncoderConfig(input_dim=3, context=1, hidden=(4,), output_dim=4)
    model = build_model(ps.units, P, cfg, head=head, seed=seed, head_hidden=3)
    return model, ps


def test_forward_shape():
    model, ps = tiny_model()
    Z, _ = model_forward(model, RNG.normal(size=(6, 3)))
    assert Z.shape == (6, len(ps.units))


def test_param_roundtrip_and_checksum():
    model, _ = tiny_model("nonlinear")
    params = model_params(model)
    assert all(k.startswith(("enc.", "head.")) for k in params)
    before = params_checksum(params)
    set_model_params(model, {k: v.copy() for k, v in params.items()})
    assert params_checksum(model_params(model)) == before


@pytest.mark.parametrize("head", ["flat", "linear", "nonlinear"])
@pytest.mark.parametrize("loss", ["ctc", "ctc_crf"])
def test_end_to_end_gradients(head, loss):
    model, ps = tiny_model(head)
    frames = RNG.normal(size=(5, 3))
    labels = [3, 4]
    lm = graph = None
    if loss == "ctc_crf":
        lm = train_phone_lm([labels, [3]], order=1, smoothing=1.0,
                            vocab=range(1, len(ps.units)))
    nll, grads = model_loss_and_grads(model, frames, labels, loss, lm, graph)
    params = model_params(model)
    for name, p in params.items():
        def f(arr, name=name, p=p):
            saved = p.copy()
            p[...] = arr
            out, _ = model_loss_and_grads(model, frames, labels, loss, lm, graph)
            p[...] = saved
            return out

        fd = finite_difference(f, p)
        assert max_rel_err(fd, grads[name]) < 1e-4, name


@pytest.mark.parametrize("head", ["flat", "linear", "nonlinear"])
@pytest.mark.parametrize("loss", ["ctc", "ctc_crf"])
def test_given_embeddings_change_no_bit(head, loss):
    model, ps = tiny_model(head)
    frames = RNG.normal(size=(5, 3))
    labels = [3, 4]
    lm = None
    if loss == "ctc_crf":
        lm = train_phone_lm([labels, [3]], order=2, smoothing=1.0, vocab=range(1, len(ps.units)))
    nll, grads = model_loss_and_grads(model, frames, labels, loss, lm)
    given_nll, given_grads = model_loss_and_grads(model, frames, labels, loss, lm, None, embeddings(model))
    assert given_nll == nll
    assert given_grads.keys() == grads.keys()
    assert all(np.array_equal(given_grads[k], grads[k]) for k in grads)


def test_head_hidden_below_one_rejected():
    model, ps = tiny_model()
    with pytest.raises(DimensionMismatch, match="head_hidden"):
        build_model(ps.units, model.P, model.encoder_config, head="nonlinear", head_hidden=0)


class TestExtend:
    def test_original_untouched_by_extension(self):
        model, _ = tiny_model("nonlinear")
        before = params_checksum(model_params(model))
        newP = encode_inventory(TABLE, [PHONES[5]], specials=[])
        ext = extend_model(model, (PHONES[5],), newP, mode="phonology")
        ext.head.A1 += 1.0  # simulate finetuning on the extension
        assert params_checksum(model_params(model)) == before

    def test_phonology_extension_changes_no_parameters(self):
        model, _ = tiny_model("linear")
        newP = encode_inventory(TABLE, [PHONES[5]], specials=[])
        ext = extend_model(model, (PHONES[5],), newP, mode="phonology")
        assert params_checksum(model_params(ext)) == params_checksum(model_params(model))
        assert ext.units == model.units + (PHONES[5],)
        assert ext.P.shape[0] == model.P.shape[0] + 1

    def test_flat_extension_appends_rows(self):
        model, _ = tiny_model("flat")
        n = model.head.E.shape[0]
        newP = encode_inventory(TABLE, [PHONES[5], PHONES[6]], specials=[])
        ext = extend_model(model, (PHONES[5], PHONES[6]), newP, mode="random", seed=1)
        assert ext.head.E.shape[0] == n + 2
        assert np.array_equal(ext.head.E[:n], model.head.E)

    def test_non_phonology_modes_rejected_for_phonology_heads(self):
        model, _ = tiny_model("linear")
        newP = encode_inventory(TABLE, [PHONES[5]], specials=[])
        with pytest.raises(ModeHeadMismatch):
            extend_model(model, (PHONES[5],), newP, mode="random")

    def test_phonology_matches_seen_duplicate(self):
        model, _ = tiny_model("linear")
        ext = extend_model(model, ("dup",), model.P[4:5], mode="phonology")
        E = compute_embeddings(ext.head, ext.P)
        assert np.allclose(E[-1], E[4])

    def test_phonology_never_mutates_parameters(self):
        model, _ = tiny_model("nonlinear")
        before = params_checksum(model_params(model))
        newP = encode_inventory(TABLE, list(PHONES[5:7]), specials=[])
        ext = extend_model(model, tuple(PHONES[5:7]), newP, mode="phonology")
        assert params_checksum(model_params(model)) == before
        # the new rows are exactly what the unchanged head maps new_P to
        assert np.allclose(compute_embeddings(ext.head, ext.P)[-2:], compute_embeddings(model.head, newP))

    def test_random_is_seeded(self):
        model, _ = tiny_model("flat")
        newP = encode_inventory(TABLE, [PHONES[5], PHONES[6]], specials=[])
        a = extend_model(model, (PHONES[5], PHONES[6]), newP, mode="random", seed=3)
        b = extend_model(model, (PHONES[5], PHONES[6]), newP, mode="random", seed=3)
        assert np.array_equal(a.head.E, b.head.E)
        assert a.head.E.shape == (model.n_units + 2, model.head.E.shape[1])
        rows = np.random.default_rng(3).normal(0.0, 0.01, size=(2, model.head.E.shape[1]))
        assert np.array_equal(a.head.E[-2:], rows)

    def test_mean_of_seen(self):
        model, _ = tiny_model("flat")
        assert model.n_units == 7
        model.head = FlatHead(E=np.repeat(np.arange(7.0)[:, None], 4, axis=1))  # row i is all i
        newP = encode_inventory(TABLE, [PHONES[5]], specials=[])
        ext = extend_model(model, (PHONES[5],), newP, mode="mean_of_seen")
        assert np.allclose(ext.head.E[-1], [3.0, 3.0, 3.0, 3.0])

    def test_mode_head_mismatch(self):
        newP = encode_inventory(TABLE, [PHONES[5]], specials=[])
        flat, _ = tiny_model("flat")
        with pytest.raises(ModeHeadMismatch):
            extend_model(flat, (PHONES[5],), newP, mode="phonology")
        with pytest.raises(ModeHeadMismatch):
            extend_model(flat, (PHONES[5],), newP, mode="no-such-mode")
        with pytest.raises(ModeHeadMismatch):
            extend_model(tiny_model("nonlinear")[0], (PHONES[5],), newP, mode="mean_of_seen")
        with pytest.raises(DimensionMismatch):
            extend_model(flat, (PHONES[5],), newP[:, :50], mode="random")

    def test_extension_consistent_with_training_corpus(self):
        # extended model still scores utterances over the old inventory identically
        model, ps = tiny_model("linear")
        W = make_emission_map(3, 4)
        spec = SynthLanguageSpec(
            language_id="L1", inventory=PHONES[:4], duration_range=(1, 2),
            noise_std=0.1, offset_std=0.0, length_range=(2, 3),
            utterance_count=3, seed=9,
        )
        utts = generate_language(spec, TABLE, W)
        newP = encode_inventory(TABLE, [PHONES[5]], specials=[])
        ext = extend_model(model, (PHONES[5],), newP, mode="phonology")
        for utt in utts:
            Za, _ = model_forward(model, utt.frames)
            Zb, _ = model_forward(ext, utt.frames)
            assert np.allclose(Za, Zb[:, : Za.shape[1]])
