import inspect

import numpy as np
import pytest

from phonoam import training
from phonoam.corpus import make_emission_map, generate_language, SynthLanguageSpec
from phonoam.crf import batch_loss, build_denominator_graph
from phonoam.encoder import EncoderConfig
from phonoam.errors import DimensionMismatch, DuplicatePhone, ModeHeadMismatch
from phonoam.features import SpecialToken, builtin_table, encode_inventory
from phonoam.heads import compute_embeddings
from phonoam.inventory import LanguageInventory, merge_inventories
from phonoam.lm import train_phone_lm
from phonoam.model import (
    batch_loss_and_grads,
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


def test_set_model_params_refuses_unknown_names():
    model, _ = tiny_model("nonlinear")
    before = model_params(model)
    for stray in ("head.E", "enc.W9", "A1"):
        with pytest.raises(KeyError, match=stray):
            set_model_params(model, {"head.A1": np.zeros_like(before["head.A1"]), stray: np.zeros(3)})
        # nothing is replaced when any name is unknown, and no name is added
        assert list(model.params) == list(before)
        assert all(model.params[k] is v for k, v in before.items())


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
    graph = None
    if loss == "ctc_crf":
        lm = train_phone_lm([labels, [3]], order=2, smoothing=1.0, vocab=range(1, len(ps.units)))
        graph = build_denominator_graph(len(ps.units), lm)
    Z, cache = model_forward(model, frames)
    given_Z, given_cache = model_forward(model, frames, embeddings(model))
    assert np.array_equal(given_Z, Z)
    assert same_bits(given_cache, cache)
    # and so is the loss scored from them, as the dev pass scores it
    nll, dZ = batch_loss(Z, [5], [labels], graph)
    given_nll, given_dZ = batch_loss(given_Z, [5], [labels], graph)
    assert np.array_equal(given_nll, nll) and np.array_equal(given_dZ, dZ)


def test_only_model_loss_and_grads_reads_a_loss_name():
    model, _ = tiny_model()
    with pytest.raises(ValueError, match="'ctc-crf'"):
        model_loss_and_grads(model, RNG.normal(size=(5, 3)), [3, 4], "ctc-crf")
    # below it the loss is a denominator graph, None for CTC
    for f in (batch_loss, batch_loss_and_grads, training._dev_pass):
        assert not {"loss", "lm"} & set(inspect.signature(f).parameters), f.__name__


def same_bits(a, b) -> bool:
    """Equal structure and equal values, arrays compared element by element."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_bits(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same_bits, a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def test_set_model_params_refuses_a_new_shape():
    model, _ = tiny_model("nonlinear")
    before = model_params(model)
    with pytest.raises(DimensionMismatch, match="enc.b0"):
        set_model_params(model, {"enc.W0": before["enc.W0"] + 1.0, "enc.b0": np.zeros(1)})
    assert all(model.params[k] is v for k, v in before.items())


def test_build_model_refuses_P_of_another_shape():
    model, ps = tiny_model()
    for P in (model.P[:-1], model.P[:, :-1]):
        with pytest.raises(DimensionMismatch, match="P must be"):
            build_model(ps.units, P, model.encoder_config, head="linear")


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
        ext.params["head.A1"] += 1.0  # simulate finetuning on the extension
        assert params_checksum(model_params(model)) == before

    @pytest.mark.parametrize("head, mode", [
        ("flat", "random"), ("flat", "mean_of_seen"), ("linear", "phonology"), ("nonlinear", "phonology"),
    ])
    def test_extension_shares_no_array_with_the_original(self, head, mode):
        model, _ = tiny_model(head)
        newP = encode_inventory(TABLE, [PHONES[5]], specials=[])
        ext = extend_model(model, (PHONES[5],), newP, mode=mode, seed=1)
        original = [*model_params(model).values(), model.P]
        for name, a in [*model_params(ext).items(), ("P", ext.P)]:
            assert not any(np.shares_memory(a, b) for b in original), name

    def test_phonology_extension_changes_no_parameters(self):
        model, _ = tiny_model("linear")
        newP = encode_inventory(TABLE, [PHONES[5]], specials=[])
        ext = extend_model(model, (PHONES[5],), newP, mode="phonology")
        assert params_checksum(model_params(ext)) == params_checksum(model_params(model))
        assert ext.units == model.units + (PHONES[5],)
        assert ext.P.shape[0] == model.P.shape[0] + 1

    def test_flat_extension_appends_rows(self):
        model, _ = tiny_model("flat")
        n = model.params["head.E"].shape[0]
        newP = encode_inventory(TABLE, [PHONES[5], PHONES[6]], specials=[])
        ext = extend_model(model, (PHONES[5], PHONES[6]), newP, mode="random", seed=1)
        assert ext.params["head.E"].shape[0] == n + 2
        assert np.array_equal(ext.params["head.E"][:n], model.params["head.E"])
        assert list(ext.params) == list(model.params)

    def test_non_phonology_modes_rejected_for_phonology_heads(self):
        model, _ = tiny_model("linear")
        newP = encode_inventory(TABLE, [PHONES[5]], specials=[])
        with pytest.raises(ModeHeadMismatch):
            extend_model(model, (PHONES[5],), newP, mode="random")

    def test_phonology_matches_seen_duplicate(self):
        model, _ = tiny_model("linear")
        ext = extend_model(model, ("dup",), model.P[4:5], mode="phonology")
        E, _ = embeddings(ext)
        assert np.allclose(E[-1], E[4])

    def test_phonology_never_mutates_parameters(self):
        model, _ = tiny_model("nonlinear")
        before = params_checksum(model_params(model))
        newP = encode_inventory(TABLE, list(PHONES[5:7]), specials=[])
        ext = extend_model(model, tuple(PHONES[5:7]), newP, mode="phonology")
        assert params_checksum(model_params(model)) == before
        # the new rows are exactly what the unchanged head maps new_P to
        assert np.allclose(embeddings(ext)[0][-2:], compute_embeddings(model.head, model.params, newP)[0])

    @pytest.mark.parametrize("head, mode", [("flat", "random"), ("linear", "phonology")])
    def test_one_row_per_new_unit(self, head, mode):
        model, _ = tiny_model(head)
        newP = encode_inventory(TABLE, [PHONES[5]], specials=[])
        with pytest.raises(DimensionMismatch):
            extend_model(model, (PHONES[5], PHONES[6]), newP, mode=mode, seed=1)

    @pytest.mark.parametrize("new", [(PHONES[5], PHONES[5]), (PHONES[0],)])
    def test_new_units_must_be_distinct_and_new(self, new):
        model, _ = tiny_model("linear")
        assert PHONES[0] in model.units
        newP = encode_inventory(TABLE, list(new), specials=[])
        with pytest.raises(DuplicatePhone):
            extend_model(model, new, newP, mode="phonology")

    @pytest.mark.parametrize("head, mode", [("flat", "random"), ("linear", "phonology"), ("nonlinear", "phonology")])
    def test_default_mode_follows_the_head(self, head, mode):
        model, _ = tiny_model(head)
        newP = encode_inventory(TABLE, [PHONES[5], PHONES[6]], specials=[])
        default = extend_model(model, (PHONES[5], PHONES[6]), newP, seed=3)
        given = extend_model(model, (PHONES[5], PHONES[6]), newP, mode=mode, seed=3)
        assert params_checksum(model_params(default)) == params_checksum(model_params(given))
        assert default.units == given.units and np.array_equal(default.P, given.P)

    def test_random_is_seeded(self):
        model, _ = tiny_model("flat")
        newP = encode_inventory(TABLE, [PHONES[5], PHONES[6]], specials=[])
        a = extend_model(model, (PHONES[5], PHONES[6]), newP, mode="random", seed=3)
        b = extend_model(model, (PHONES[5], PHONES[6]), newP, mode="random", seed=3)
        assert np.array_equal(a.params["head.E"], b.params["head.E"])
        width = model.params["head.E"].shape[1]
        assert a.params["head.E"].shape == (model.n_units + 2, width)
        rows = np.random.default_rng(3).normal(0.0, 0.01, size=(2, width))
        assert np.array_equal(a.params["head.E"][-2:], rows)

    def test_mean_of_seen(self):
        model, _ = tiny_model("flat")
        assert model.n_units == 7
        set_model_params(model, {"head.E": np.repeat(np.arange(7.0)[:, None], 4, axis=1)})  # row i is all i
        newP = encode_inventory(TABLE, [PHONES[5]], specials=[])
        ext = extend_model(model, (PHONES[5],), newP, mode="mean_of_seen")
        assert np.allclose(ext.params["head.E"][-1], [3.0, 3.0, 3.0, 3.0])

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
