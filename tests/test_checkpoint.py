import io
import json

import numpy as np
import pytest

from phonoam.checkpoint import load_checkpoint, save_checkpoint
from phonoam.encoder import EncoderConfig
from phonoam.errors import IoFailure
from phonoam.features import SpecialToken, builtin_table, encode_inventory
from phonoam.inventory import LanguageInventory, merge_inventories
from phonoam.model import build_model, model_forward, model_params, params_checksum

TABLE = builtin_table()
PHONES = tuple(TABLE.phones())
RNG = np.random.default_rng(53)


def tiny_model(head):
    ps = merge_inventories([LanguageInventory(language_id="L1", phones=PHONES[:4])])
    P = encode_inventory(TABLE, list(ps.phones), list(SpecialToken))
    cfg = EncoderConfig(input_dim=3, context=1, hidden=(4,), output_dim=4)
    return build_model(ps.units, P, cfg, head=head, seed=2, head_hidden=3)


@pytest.mark.parametrize("head", ["flat", "linear", "nonlinear"])
def test_roundtrip_preserves_everything(head, tmp_path):
    model = tiny_model(head)
    path = tmp_path / "model.npz"
    save_checkpoint(model, path, epoch=7)
    loaded, meta = load_checkpoint(path)

    assert params_checksum(model_params(loaded)) == params_checksum(model_params(model))
    assert loaded.units == model.units
    assert np.array_equal(loaded.P, model.P)
    assert loaded.encoder_config == model.encoder_config
    assert meta["epoch"] == 7

    x = RNG.normal(size=(5, 3))
    Za, _ = model_forward(model, x)
    Zb, _ = model_forward(loaded, x)
    assert np.array_equal(Za, Zb)


def rewrite(src, dst, meta_edits=(), **extra_arrays):
    """Copy a checkpoint, setting (group, key, value) metadata entries and
    adding or replacing arrays on the way; group None is the top level."""
    with np.load(src) as data:
        arrays = {k: data[k] for k in data.files}
    meta = json.loads(bytes(arrays["meta"]).decode())
    for group, key, value in meta_edits:
        (meta[group] if group else meta)[key] = value
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    arrays.update(extra_arrays)
    np.savez_compressed(dst, **arrays)


def assert_loads_as_saved(tmp_path, meta_edits, **extra_arrays):
    """A file that older versions wrote, with these entries added, loads as the
    same model as the file this version writes."""
    model = tiny_model("nonlinear")
    new, old = tmp_path / "new.npz", tmp_path / "old.npz"
    save_checkpoint(model, new)
    with np.load(new) as data:
        meta = json.loads(bytes(data["meta"]).decode())
        assert not extra_arrays.keys() & set(data.files)
    for group, key, _ in meta_edits:
        assert key not in (meta[group] if group else meta)
    rewrite(new, old, meta_edits, **extra_arrays)

    a, _ = load_checkpoint(new)
    b, _ = load_checkpoint(old)
    assert b.encoder_config == a.encoder_config
    assert params_checksum(model_params(b)) == params_checksum(model_params(a))
    x = RNG.normal(size=(5, 3))
    assert np.array_equal(model_forward(b, x)[0], model_forward(a, x)[0])


def test_checkpoint_with_old_dropout_key_loads(tmp_path):
    # files written before encoder dropout was removed carry "dropout": 0.0
    assert_loads_as_saved(tmp_path, [("encoder_config", "dropout", 0.0)])


# Keys of removed options that older files carry, with the one value this
# version computes.
OLD_OPTION_KEYS = [
    ("encoder_config", "activation", "tanh"),
    ("encoder_config", "recurrent", False),
    (None, "head_activation", "sigmoid"),
    (None, "head_activation", None),
]


@pytest.mark.parametrize("group, key, value", OLD_OPTION_KEYS, ids=lambda v: str(v))
def test_checkpoint_with_old_option_key_loads(group, key, value, tmp_path):
    assert_loads_as_saved(tmp_path, [(group, key, value)])


def test_checkpoint_with_old_adam_state_loads(tmp_path):
    # older `phonoam train` files also carry Adam's moments, its step and an
    # `extra` entry; nothing reads them, so they load as the same model
    params = model_params(tiny_model("nonlinear"))
    moments = {f"adam_{m}__{k}": np.full_like(v, 0.5) for k, v in params.items() for m in "mv"}
    assert_loads_as_saved(tmp_path, [(None, "adam_step", 11), (None, "extra", {"note": "x"})], **moments)


@pytest.mark.parametrize(
    "group, key, value",
    [("encoder_config", "activation", "relu"), ("encoder_config", "recurrent", True),
     (None, "head_activation", "tanh")],
    ids=lambda v: str(v),
)
def test_checkpoint_with_other_option_value_rejected(group, key, value, tmp_path):
    path = tmp_path / "model.npz"
    save_checkpoint(tiny_model("nonlinear"), path)
    rewrite(path, path, [(group, key, value)])
    with pytest.raises(IoFailure, match="must be"):
        load_checkpoint(path)


@pytest.mark.parametrize("name", ["head__b", "head__b1", "head__b2", "enc__R"])
def test_checkpoint_with_removed_parameter_rejected(name, tmp_path):
    path = tmp_path / "model.npz"
    save_checkpoint(tiny_model("nonlinear"), path)
    rewrite(path, path, **{name: np.zeros(4)})
    with pytest.raises(IoFailure, match=name):
        load_checkpoint(path)


def test_missing_file(tmp_path):
    with pytest.raises(IoFailure):
        load_checkpoint(tmp_path / "nope.npz")


def test_save_to_bad_path(tmp_path):
    model = tiny_model("linear")
    with pytest.raises(IoFailure):
        save_checkpoint(model, tmp_path / "nodir" / "model.npz")


def npy_bytes():
    buf = io.BytesIO()
    np.save(buf, np.zeros(3))
    return buf.getvalue()


@pytest.mark.parametrize(
    "content", [b"not a checkpoint", b"PK\x03\x04 truncated", b"", npy_bytes()],
    ids=["text", "truncated_zip", "empty", "npy"],
)
def test_unreadable_file_rejected(content, tmp_path):
    path = tmp_path / "bad.npz"
    path.write_bytes(content)
    with pytest.raises(IoFailure):
        load_checkpoint(path)


def test_missing_array_rejected(tmp_path):
    path = tmp_path / "model.npz"
    save_checkpoint(tiny_model("linear"), path)
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files if k != "head__A"}
    np.savez_compressed(path, **arrays)
    with pytest.raises(IoFailure, match="lacks 'A'"):
        load_checkpoint(path)


def test_P_rows_must_match_units(tmp_path):
    path = tmp_path / "model.npz"
    save_checkpoint(tiny_model("linear"), path)
    with np.load(path) as data:
        units = json.loads(bytes(data["meta"]).decode())["units"]
    rewrite(path, path, [(None, "units", units[:-1])])
    with pytest.raises(IoFailure, match="rows"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "meta_edits, arrays, message",
    [
        ([("encoder_config", "extra_knob", 1)], {}, "keys: extra_knob"),
        ([], {"enc__W0": np.zeros((4, 2))}, "enc__W0"),
        ([], {"enc__W2": np.zeros((4, 4))}, "enc__W2"),
        ([("encoder_config", "hidden", [5])], {}, "enc__W0, enc__W1, enc__b0"),
        ([], {"head__E": np.zeros((6, 4))}, "checkpoint E"),  # the model has 7 units of width 4
    ],
    ids=["unknown_key", "truncated_W0", "extra_layer", "hidden_width", "flat_E_rows"],
)
def test_arrays_must_match_config(meta_edits, arrays, message, tmp_path):
    path = tmp_path / "model.npz"
    save_checkpoint(tiny_model("flat"), path)
    rewrite(path, path, meta_edits, **arrays)
    with pytest.raises(IoFailure, match=message):
        load_checkpoint(path)
