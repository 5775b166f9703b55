import json

import numpy as np
import pytest

from phonoam.checkpoint import load_checkpoint, save_checkpoint
from phonoam.encoder import EncoderConfig
from phonoam.errors import IoFailure
from phonoam.features import SpecialToken, builtin_table, encode_inventory
from phonoam.inventory import LanguageInventory, merge_inventories
from phonoam.model import build_model, model_forward, model_params, params_checksum
from phonoam.training import init_adam

TABLE = builtin_table()
PHONES = tuple(TABLE.phones())
RNG = np.random.default_rng(53)


def tiny_model(head):
    ps = merge_inventories([LanguageInventory(language_id="L1", phones=PHONES[:4])])
    P = encode_inventory(TABLE, list(ps.phones), list(SpecialToken))
    cfg = EncoderConfig(input_dim=3, context=1, hidden=(4,), output_dim=4, recurrent=head == "flat")
    return build_model(ps.units, P, cfg, head=head, seed=2, head_hidden=3)


@pytest.mark.parametrize("head", ["flat", "linear", "nonlinear"])
def test_roundtrip_preserves_everything(head, tmp_path):
    model = tiny_model(head)
    path = tmp_path / "model.npz"
    save_checkpoint(model, path, epoch=7, extra={"note": "x"})
    loaded, meta = load_checkpoint(path)

    assert params_checksum(model_params(loaded)) == params_checksum(model_params(model))
    assert loaded.units == model.units
    assert np.array_equal(loaded.P, model.P)
    assert loaded.encoder_config == model.encoder_config
    assert meta["epoch"] == 7 and meta["extra"] == {"note": "x"}

    x = RNG.normal(size=(5, 3))
    Za, _ = model_forward(model, x)
    Zb, _ = model_forward(loaded, x)
    assert np.array_equal(Za, Zb)


def test_checkpoint_with_old_dropout_key_loads(tmp_path):
    # files written before encoder dropout was removed carry "dropout": 0.0
    model = tiny_model("nonlinear")
    new, old = tmp_path / "new.npz", tmp_path / "old.npz"
    save_checkpoint(model, new)
    with np.load(new) as data:
        arrays = {k: data[k] for k in data.files}
    meta = json.loads(bytes(arrays["meta"]).decode())
    assert "dropout" not in meta["encoder_config"]
    meta["encoder_config"]["dropout"] = 0.0
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez_compressed(old, **arrays)

    a, _ = load_checkpoint(new)
    b, _ = load_checkpoint(old)
    assert b.encoder_config == a.encoder_config
    assert params_checksum(model_params(b)) == params_checksum(model_params(a))
    x = RNG.normal(size=(5, 3))
    assert np.array_equal(model_forward(b, x)[0], model_forward(a, x)[0])


def test_adam_state_roundtrip(tmp_path):
    model = tiny_model("linear")
    adam = init_adam(model_params(model))
    adam.step = 11
    for k in adam.m:
        adam.m[k] += 0.5
    path = tmp_path / "model.npz"
    save_checkpoint(model, path, adam=adam)
    _, meta = load_checkpoint(path)
    restored = meta["adam"]
    assert restored.step == 11
    for k in adam.m:
        assert np.array_equal(restored.m[k], adam.m[k])
        assert np.array_equal(restored.v[k], adam.v[k])


def test_missing_file(tmp_path):
    with pytest.raises(IoFailure):
        load_checkpoint(tmp_path / "nope.npz")


def test_save_to_bad_path(tmp_path):
    model = tiny_model("linear")
    with pytest.raises(IoFailure):
        save_checkpoint(model, tmp_path / "nodir" / "model.npz")
