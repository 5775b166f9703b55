"""Synthetic multilingual corpora whose acoustics are caused by phonology.

A single emission map W (shared across all languages) sends each phone's
51-bit phonological-vector to a D-dimensional acoustic prototype.  Frames are
prototype + per-language offset + white noise.  Because the prototype is a
deterministic function of the phonological-vector, an unseen phone's acoustics
are predictable from its phonology, which is exactly the structure a
phonology-driven embedding head can exploit and a flat head cannot.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import IoFailure, UnknownPhone
from .features import VECTOR_BITS, FeatureTable, encode_phone


@dataclass(frozen=True)
class SynthLanguageSpec:
    language_id: str
    inventory: tuple[str, ...]
    duration_range: tuple[int, int] = (2, 4)  # frames per phone
    noise_std: float = 0.3
    offset_std: float = 0.1
    length_range: tuple[int, int] = (3, 6)  # phones per utterance
    utterance_count: int = 40
    seed: int = 0


@dataclass
class Utterance:
    frames: np.ndarray  # T x D
    phones: tuple[str, ...]
    language_id: str


def make_emission_map(D: int, seed: int) -> np.ndarray:
    """Shared D x 51 Gaussian map from phonological-vectors to prototypes."""
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 1.0 / np.sqrt(VECTOR_BITS), size=(D, VECTOR_BITS))


def phone_prototype(W: np.ndarray, table: FeatureTable, phone: str) -> np.ndarray:
    return W @ encode_phone(table, phone)


def generate_language(
    spec: SynthLanguageSpec, table: FeatureTable, W: np.ndarray
) -> list[Utterance]:
    """Seeded utterances for one language; deterministic given the spec."""
    for p in spec.inventory:
        if p not in table:
            raise UnknownPhone(f"{p!r} missing from feature table")
    rng = np.random.default_rng(spec.seed)
    D = W.shape[0]
    offset = rng.normal(0.0, spec.offset_std, size=D) if spec.offset_std > 0 else np.zeros(D)
    prototypes = {p: phone_prototype(W, table, p) for p in spec.inventory}

    d_lo, d_hi = spec.duration_range
    l_lo, l_hi = spec.length_range
    utterances = []
    for _ in range(spec.utterance_count):
        length = int(rng.integers(l_lo, l_hi + 1))
        phones = tuple(spec.inventory[i] for i in rng.integers(0, len(spec.inventory), length))
        chunks = []
        for p in phones:
            dur = int(rng.integers(d_lo, d_hi + 1))
            if spec.noise_std > 0:
                noise = rng.normal(0.0, spec.noise_std, size=(dur, D))
            else:
                noise = np.zeros((dur, D))
            chunks.append(prototypes[p] + offset + noise)
        utterances.append(
            Utterance(
                frames=np.concatenate(chunks, axis=0),
                phones=phones,
                language_id=spec.language_id,
            )
        )
    return utterances


def save_corpus(utterances: list[Utterance], path) -> None:
    """Write a corpus as JSON lines: a symbol-table header, then one record
    per utterance with label indices and row-major float64 frames."""
    symbols = sorted({p for u in utterances for p in u.phones})
    index = {p: i for i, p in enumerate(symbols)}
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"symbols": symbols}, ensure_ascii=False) + "\n")
            for u in utterances:
                rec = {
                    "language": u.language_id,
                    "labels": [index[p] for p in u.phones],
                    "frames": [[float(v) for v in row] for row in u.frames],
                }
                fh.write(json.dumps(rec, ensure_ascii=False) + "\n")
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


def load_corpus(path) -> list[Utterance]:
    try:
        with open(path, encoding="utf-8") as fh:
            header = json.loads(fh.readline())
            symbols = header["symbols"]
            utterances = []
            for line in fh:
                rec = json.loads(line)
                utterances.append(
                    Utterance(
                        frames=np.array(rec["frames"], dtype=np.float64),
                        phones=tuple(symbols[i] for i in rec["labels"]),
                        language_id=rec["language"],
                    )
                )
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    return utterances
