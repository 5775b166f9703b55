"""Versioned checkpoint container (npz with a JSON metadata entry).

A file holds `model_params` with "." written as "__" (`enc__W0`, `head__A1`),
the phonological-vectors `P`, and metadata: format version, encoder config,
head kind, units and epoch.  The parameter layout lives only in the shape
tables of `encoder`, `heads` and `model`: loading checks the metadata, then
checks every `enc__*`, `head__*` and `P` array against `model_shapes` of that
metadata: each must be in both the file and the table, with the same shape,
dtype float64, and finite.  One IoFailure names every array that fails.  The
model then holds the file's arrays in `model_shapes` order, whatever order the
file stores them in; loading draws no weights.
"""

from __future__ import annotations

import dataclasses
import json
import zipfile
import zlib

import numpy as np

from .encoder import EncoderConfig
from .errors import IoFailure, io_failure
from .features import VECTOR_BITS
from .heads import HEAD_KINDS
from .model import AcousticModel, model_shapes

FORMAT_VERSION = 1

# Options that older files record but that no longer exist, with the one value
# this version computes; a file holding any other value is refused.
FIXED_ENCODER_OPTIONS = {"activation": "tanh", "recurrent": False}
HEAD_ACTIVATIONS = (None, "sigmoid")


def save_checkpoint(model: AcousticModel, path, epoch: int = 0) -> None:
    """Write the model's parameters to exactly `path`; the optimizer state is not kept."""
    meta = {
        "version": FORMAT_VERSION,
        "encoder_config": dataclasses.asdict(model.encoder_config),
        "head_kind": model.head,
        "units": list(model.units),
        "epoch": epoch,
    }
    with io_failure(), open(path, "wb") as fh:  # numpy appends ".npz" to a path, not to a handle
        np.savez_compressed(fh, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
                            **{k.replace(".", "__"): v for k, v in model.params.items()}, P=model.P)


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


def _strip_removed_options(meta: dict) -> None:
    """Drop the metadata older files record of removed options; IoFailure if it
    changes the outputs.  Their arrays (`enc__R`, `head__b*`) are not in the
    shape table, so the array check refuses them by name."""
    cfg = meta["encoder_config"]
    cfg.pop("dropout", None)  # older files carry the removed encoder dropout; it never ran
    for key, value in FIXED_ENCODER_OPTIONS.items():
        if cfg.pop(key, value) != value:
            raise IoFailure(f"checkpoint encoder {key} must be {value!r}")
    if meta.get("head_activation") not in HEAD_ACTIVATIONS:
        raise IoFailure("checkpoint head activation must be sigmoid")


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
    _strip_removed_options(meta)
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
    units = meta["units"]
    if not (isinstance(units, list) and all(type(u) is str for u in units) and len(set(units)) == len(units)):
        raise IoFailure("checkpoint units must be a list of distinct strings")
    if type(meta.get("epoch", 0)) is not int:
        raise IoFailure("checkpoint epoch must be an integer")
    cfg["hidden"] = tuple(cfg["hidden"])
    encoder_config = EncoderConfig(**cfg)
    kind = meta["head_kind"]
    if not (isinstance(kind, str) and kind in HEAD_KINDS):
        raise IoFailure(f"checkpoint has unknown head kind {kind!r}")
    # a nonlinear head's hidden width is its A1's row count; an A1 with no rows
    # is then refused by the array check, as a head needs at least one hidden unit
    a1 = arrays.get("head__A1")
    hidden = max(len(a1), 1) if a1 is not None and a1.ndim else 1
    shapes = model_shapes(len(units), encoder_config, kind, hidden)
    expected = {k.replace(".", "__"): shape for k, shape in shapes.items()} | {"P": (len(units), VECTOR_BITS)}
    found = {k: v for k, v in arrays.items() if k == "P" or k.startswith(("enc__", "head__"))}
    bad = sorted(
        k for k in expected.keys() | found.keys()
        if k not in expected or k not in found
        or (found[k].shape, found[k].dtype) != (expected[k], np.float64)
        or not np.isfinite(found[k]).all()
    )
    if bad:
        raise IoFailure(
            f"checkpoint arrays {', '.join(bad)} do not match the model its metadata describes:"
            " each must be in both, with the same shape and dtype, and finite"
        )
    params = {k: found[k.replace(".", "__")] for k in shapes}
    return AcousticModel(encoder_config, kind, params, found["P"], tuple(units))
