"""Versioned checkpoint container (npz with a JSON metadata entry)."""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from .encoder import EncoderConfig
from .errors import IoFailure
from .heads import FlatHead, LinearHead, NonlinearHead, head_kind, head_params
from .model import AcousticModel

FORMAT_VERSION = 1


def save_checkpoint(
    model: AcousticModel,
    path,
    epoch: int = 0,
    adam=None,
    extra: dict | None = None,
) -> None:
    meta = {
        "version": FORMAT_VERSION,
        "encoder_config": dataclasses.asdict(model.encoder_config),
        "head_kind": head_kind(model.head),
        "head_activation": getattr(model.head, "activation", None),
        "units": list(model.units),
        "epoch": epoch,
        "adam_step": getattr(adam, "step", None),
        "extra": extra or {},
    }
    arrays = {f"enc__{k}": v for k, v in model.encoder_params.items()}
    arrays.update({f"head__{k}": v for k, v in head_params(model.head).items()})
    if adam is not None:
        arrays.update({f"adam_m__{k}": v for k, v in adam.m.items()})
        arrays.update({f"adam_v__{k}": v for k, v in adam.v.items()})
    arrays["P"] = model.P
    try:
        np.savez_compressed(path, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


def load_checkpoint(path) -> tuple[AcousticModel, dict]:
    try:
        data = np.load(path, allow_pickle=False)
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    meta = json.loads(bytes(data["meta"]).decode())
    if meta["version"] != FORMAT_VERSION:
        raise IoFailure(f"unsupported checkpoint version {meta['version']}")

    cfg = meta["encoder_config"]
    cfg.pop("dropout", None)  # older files carry the removed encoder dropout; it never ran
    cfg["hidden"] = tuple(cfg["hidden"])
    encoder_config = EncoderConfig(**cfg)
    enc_params = {k[len("enc__"):]: data[k] for k in data.files if k.startswith("enc__")}
    hp = {k[len("head__"):]: data[k] for k in data.files if k.startswith("head__")}

    kind = meta["head_kind"]
    if kind == "flat":
        head = FlatHead(E=hp["E"])
    elif kind == "linear":
        head = LinearHead(A=hp["A"], b=hp.get("b"))
    else:
        head = NonlinearHead(
            A1=hp["A1"],
            A2=hp["A2"],
            b1=hp.get("b1"),
            b2=hp.get("b2"),
            activation=meta["head_activation"] or "sigmoid",
        )
    model = AcousticModel(
        encoder_config=encoder_config,
        encoder_params=enc_params,
        head=head,
        P=data["P"],
        units=tuple(meta["units"]),
    )
    if meta.get("adam_step") is not None:
        from .training import AdamState

        meta["adam"] = AdamState(
            m={k[len("adam_m__"):]: data[k] for k in data.files if k.startswith("adam_m__")},
            v={k[len("adam_v__"):]: data[k] for k in data.files if k.startswith("adam_v__")},
            step=meta["adam_step"],
        )
    return model, meta
