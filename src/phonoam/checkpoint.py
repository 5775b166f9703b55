"""Versioned checkpoint container (npz with a JSON metadata entry)."""

from __future__ import annotations

import dataclasses
import json
import zipfile
import zlib

import numpy as np

from .encoder import EncoderConfig
from .errors import IoFailure
from .heads import FlatHead, LinearHead, NonlinearHead, head_kind, head_params
from .model import AcousticModel

FORMAT_VERSION = 1

# Options that older files record but that no longer exist, with the one value
# this version computes; a file holding any other value is refused.
FIXED_ENCODER_OPTIONS = {"activation": "tanh", "recurrent": False}
HEAD_ACTIVATIONS = (None, "sigmoid")
# Parameters of removed options; dropping them would change the model's outputs.
REMOVED_ARRAYS = ("enc__R", "head__b", "head__b1", "head__b2")


def save_checkpoint(model: AcousticModel, path, epoch: int = 0) -> None:
    """Write the model's parameters; the optimizer state is not kept."""
    meta = {
        "version": FORMAT_VERSION,
        "encoder_config": dataclasses.asdict(model.encoder_config),
        "head_kind": head_kind(model.head),
        "units": list(model.units),
        "epoch": epoch,
    }
    arrays = {f"enc__{k}": v for k, v in model.encoder_params.items()}
    arrays.update({f"head__{k}": v for k, v in head_params(model.head).items()})
    arrays["P"] = model.P
    try:
        np.savez_compressed(path, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


def _read(path) -> tuple[dict, dict[str, np.ndarray]]:
    """(metadata, arrays) of a checkpoint file, or IoFailure if it is unreadable."""
    try:
        with open(path, "rb") as fh:
            if not zipfile.is_zipfile(fh):
                raise IoFailure(f"{path} is not an npz archive")
            fh.seek(0)
            with np.load(fh, allow_pickle=False) as data:
                arrays = {k: data[k] for k in data.files}
        meta = json.loads(bytes(arrays.pop("meta")).decode())
    # zipfile raises NotImplementedError for a member that needs a newer zip version
    # or strong encryption, RuntimeError for one that needs a password
    except (OSError, EOFError, ValueError, KeyError, NotImplementedError, RuntimeError,
            zipfile.BadZipFile, zlib.error) as exc:
        raise IoFailure(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(meta, dict):
        raise IoFailure(f"checkpoint {path} metadata is not a JSON object")
    return meta, arrays


def _strip_removed_options(meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Drop what older files record of removed options; IoFailure if it changes the outputs."""
    cfg = meta["encoder_config"]
    cfg.pop("dropout", None)  # older files carry the removed encoder dropout; it never ran
    for key, value in FIXED_ENCODER_OPTIONS.items():
        if cfg.pop(key, value) != value:
            raise IoFailure(f"checkpoint encoder {key} must be {value!r}")
    if meta.get("head_activation") not in HEAD_ACTIVATIONS:
        raise IoFailure("checkpoint head activation must be sigmoid")
    removed = [k for k in REMOVED_ARRAYS if k in arrays]
    if removed:
        raise IoFailure(f"checkpoint holds parameters of removed options: {', '.join(removed)}")


def load_checkpoint(path) -> tuple[AcousticModel, dict]:
    meta, arrays = _read(path)
    try:
        return _build(meta, arrays), meta
    except KeyError as exc:
        raise IoFailure(f"checkpoint {path} lacks {exc}") from exc


def _build(meta: dict, arrays: dict[str, np.ndarray]) -> AcousticModel:
    if meta["version"] != FORMAT_VERSION:
        raise IoFailure(f"unsupported checkpoint version {meta['version']}")
    if not isinstance(meta["encoder_config"], dict):
        raise IoFailure("checkpoint encoder_config is not a JSON object")
    _strip_removed_options(meta, arrays)
    cfg = meta["encoder_config"]
    wrong = sorted(set(cfg) ^ {f.name for f in dataclasses.fields(EncoderConfig)})
    if wrong:
        raise IoFailure(f"checkpoint encoder_config has unknown or missing keys: {', '.join(wrong)}")
    # JSON integers load as int exactly; a bool, float or string is refused
    if not (
        all(type(cfg[k]) is int for k in ("input_dim", "context", "output_dim"))
        and isinstance(cfg["hidden"], list)
        and all(type(h) is int and h > 0 for h in cfg["hidden"])
    ):
        raise IoFailure(
            "checkpoint encoder_config needs integer input_dim, context and output_dim"
            " and hidden as a list of positive integers"
        )
    cfg["hidden"] = tuple(cfg["hidden"])
    encoder_config = EncoderConfig(**cfg)
    enc_params = {k[len("enc__"):]: v for k, v in arrays.items() if k.startswith("enc__")}
    expected = {}
    for i, (rows, cols) in enumerate(encoder_config.layer_dims):
        expected[f"W{i}"], expected[f"b{i}"] = (rows, cols), (rows,)
    shapes = {k: v.shape for k, v in enc_params.items()}
    bad = sorted(k for k in shapes.keys() | expected.keys() if shapes.get(k) != expected.get(k))
    if bad:
        raise IoFailure(f"checkpoint arrays {', '.join('enc__' + k for k in bad)} do not match encoder_config")
    hp = {k[len("head__"):]: v for k, v in arrays.items() if k.startswith("head__")}

    units = tuple(meta["units"])
    kind = meta["head_kind"]
    if kind == "flat":
        head = FlatHead(E=hp["E"])
        if head.E.shape != (len(units), encoder_config.output_dim):
            raise IoFailure(f"checkpoint E is {head.E.shape}, not {len(units)} units x {encoder_config.output_dim}")
    elif kind == "linear":
        head = LinearHead(A=hp["A"])
    elif kind == "nonlinear":
        head = NonlinearHead(A1=hp["A1"], A2=hp["A2"])
    else:
        raise IoFailure(f"unknown head kind {kind!r}")
    P = arrays["P"]
    if P.shape[0] != len(units):
        raise IoFailure(f"checkpoint P has {P.shape[0]} rows for {len(units)} units")
    return AcousticModel(
        encoder_config=encoder_config,
        encoder_params=enc_params,
        head=head,
        P=P,
        units=units,
    )
